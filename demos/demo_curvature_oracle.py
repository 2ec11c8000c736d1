"""The curvature oracle on exact 2-jets vs closed forms.
======================================================

A chart gives the 2-jet of a diagonal metric: ``patch.g`` returns, per
point, the diagonal with its gradient and Hessian in the chart's
coordinates, written by hand through the chain rule.  The oracle assembles
Christoffel symbols and Ricci from those exact derivatives, with no
finite-difference step, so it agrees with the closed forms to roundoff.  It
knows nothing about warped products, which is what makes it a trustworthy
second route for the closed-form doubly warped curvature.
"""

import numpy as np

from plumbric import WarpedJet, doubly_warped_ricci, numeric_curvature
from plumbric.charts import coordinate_jets, cylinder_patch, flat_patch, warped_patch


def constant(r):
    """A sphere radius r over a point: its value, and no base coordinate to vary in."""
    return lambda xb: (np.full(len(xb), r), np.zeros((len(xb), 0)), np.zeros((len(xb), 0, 0)))


# Round spheres at several radii, in nested angles (a sphere of constant
# radius warped over a point): scalar must be n(n-1)/r^2.
for n, r in ((3, 0.5), (5, 1.0), (7, 2.0)):
    rep = numeric_curvature(warped_patch(flat_patch(()), constant(r), n), np.full(n, 1.2))
    print(f"S^{n}({r}): oracle scalar {rep.scalar:.15f}   exact {n * (n - 1) / r**2}")

# A metric product line x sphere: Ricci is degenerate along the line.
rep = numeric_curvature(cylinder_patch(3, 2.0), [0.0, 2.4, 1.2, 0.9])
print(f"\nline x S^3(2): scalar {rep.scalar:.15f} (exact 1.5), "
      f"min Ricci eigenvalue {rep.min_ricci_eigenvalue:.2e}")


# Now a doubly warped product with generic profiles: the closed forms and the
# oracle must agree component by component.  Each radius is a function of t
# with its first two derivatives.
def f(xb):
    t = xb[:, 0]
    return coordinate_jets(xb.shape[1], 0, 1.0 + 0.3 * np.sin(t), 0.3 * np.cos(t), -0.3 * np.sin(t))


def h(xb):
    t = xb[:, 0]
    return coordinate_jets(xb.shape[1], 0, 1.2 + 0.2 * np.cos(t), -0.2 * np.sin(t), -0.2 * np.cos(t))


# dt^2 + h(t)^2 ds_{q-1}^2 + f(t)^2 ds_{p-1}^2: the collar sphere warped over
# the line, then the fiber sphere warped over that.
p = q = 3
t0 = 1.0
patch = warped_patch(warped_patch(flat_patch(((0.5, 1.5),)), h, q - 1), f, p - 1)
point = np.array([t0, 1.1, 1.3, 0.9, 1.4])
rep = numeric_curvature(patch, point)
jet = WarpedJet(t=t0, f=1.0 + 0.3 * np.sin(t0), f1=0.3 * np.cos(t0), f2=-0.3 * np.sin(t0),
                h=1.2 + 0.2 * np.cos(t0), h1=-0.2 * np.sin(t0), h2=-0.2 * np.cos(t0))
rt, rh, rf = doubly_warped_ricci(jet, p, q)
g0 = patch.g(point[np.newaxis])[0][0]
print("\ncomponent   closed form          oracle")
for name, closed, idx in (("line", rt, 0), ("collar", rh, 1), ("fiber", rf, q)):
    print(f"  {name:6s}  {closed: .15f}  {rep.ricci[idx, idx] / g0[idx]: .15f}")
