"""The finite-difference curvature oracle vs closed forms.
===========================================================

The oracle differences a diagonal coordinate-patch metric twice, assembles
Christoffel symbols and Ricci, and sharpens the result with one Richardson
level.  A chart gives the metric's diagonal: ``patch.g`` returns one row of
d entries per point.  The oracle knows nothing about warped products, which
is what makes it a trustworthy second route for the closed-form doubly
warped curvature.
"""

import numpy as np

from plumbric import WarpedJet, doubly_warped_ricci, numeric_curvature
from plumbric.charts import cylinder_patch, flat_patch, warped_patch

# Round spheres at several radii, in nested angles (a sphere of constant
# radius warped over a point): scalar must be n(n-1)/r^2.
for n, r in ((3, 0.5), (5, 1.0), (7, 2.0)):
    sphere = warped_patch(flat_patch(()), lambda xb, r=r: np.full(xb.shape[:-1], r), n)
    rep = numeric_curvature(sphere, np.full(n, 1.2))
    print(f"S^{n}({r}): oracle scalar {rep.scalar:.8f}   exact {n * (n - 1) / r**2}")

# A metric product line x sphere: Ricci is degenerate along the line.
rep = numeric_curvature(cylinder_patch(3, 2.0), [0.0, 2.4, 1.2, 0.9])
print(f"\nline x S^3(2): scalar {rep.scalar:.8f} (exact 1.5), "
      f"min Ricci eigenvalue {rep.min_ricci_eigenvalue:.2e}")

# Now a doubly warped product with generic profiles: the closed forms and the
# oracle must agree component by component.
def f(t):
    return 1.0 + 0.3 * np.sin(np.asarray(t))


def h(t):
    return 1.2 + 0.2 * np.cos(np.asarray(t))


# dt^2 + h(t)^2 ds_{q-1}^2 + f(t)^2 ds_{p-1}^2: the collar sphere warped over
# the line, then the fiber sphere warped over that.
p = q = 3
t0 = 1.0
line = flat_patch(((0.5, 1.5),))
patch = warped_patch(warped_patch(line, lambda xb: h(xb[..., 0]), q - 1),
                     lambda xb: f(xb[..., 0]), p - 1)
point = np.array([t0, 1.1, 1.3, 0.9, 1.4])
rep = numeric_curvature(patch, point)
jet = WarpedJet(t=t0, f=float(f(t0)), f1=0.3 * np.cos(t0), f2=-0.3 * np.sin(t0),
                h=float(h(t0)), h1=-0.2 * np.sin(t0), h2=-0.2 * np.cos(t0))
rt, rh, rf = doubly_warped_ricci(jet, p, q)
g0 = patch.g(point[np.newaxis])[0]
print("\ncomponent   closed form     oracle")
for name, closed, idx in (("line", rt, 0), ("collar", rh, 1), ("fiber", rf, q)):
    print(f"  {name:6s}  {closed: .10f}  {rep.ricci[idx, idx] / g0[idx]: .10f}")
