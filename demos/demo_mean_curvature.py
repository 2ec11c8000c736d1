"""Boundary mean curvature over the neck and the taper.
========================================================

Over the neck the boundary sits inside a metric cylinder line x sphere as a
curve profile; the margin A - B is nonnegative exactly where the boundary
mean curvature is, and the search measures it under three normalizations on
its check grid.  Over the taper the fiber caps shrink from hemispheres, and
the generic second-fundamental-form oracle confirms that the fibers'
convexity dominates once their scale is small.
"""

import math

import numpy as np

from plumbric import EpsilonProfile, search_parameters, z2_mean_curvature

res = search_parameters(4, 4, math.pi / 4, 0.1, mc_margin_tol=1e-9, grid_n=2048)
m = res.measurement
print("neck margins (minima over the check grid)")
print(f"  transcribed normalization: {m.margin_min('reported'):.3e}")
print(f"  curvature normalization:   {m.margin_min('curvature'):.3e}")
print(f"  per-unit-collar variant:   {m.margin_min('unit'):.3e}")

ep = EpsilonProfile(a2=-1.0, b2=0.0, eps_end=0.4)
print("\ntaper boundary (fiber-angle pi/2 -> 0.4), three fiber scales")


def collar(t):
    # the collar warp 1 + 0.1 t with its first two derivatives
    return 1.0 + 0.1 * t, np.full(t.shape, 0.1), np.zeros(t.shape)


for r in (0.2, 0.1, 0.05):
    z = z2_mean_curvature(ep, collar, r=r, p=4, q=4)
    print(f"  r = {r}: mean curvature {np.array2string(z.mean_curvature, precision=3)}")
