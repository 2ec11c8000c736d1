"""Building an admissible neck profile, end to end.
====================================================

The search picks the join point and scales so that the collar piece (the
h0/fC solutions) hands its slope to a concave fiber run-out ending with the
exact cap jets, then verifies positivity of all three boundary Ricci
components, the mean-curvature margin, the nine interface clauses, and both
gluing checks on a 2048-point grid.
"""

import math

import numpy as np

from plumbric import check_bc, doubly_warped_ricci, search_parameters
from plumbric.meancurv import z3_mean_curvature_from_pair

res = search_parameters(4, 4, math.pi / 4, 0.1)
left, right, pair = res.left, res.right, res.pair

print("accepted parameters")
print(f"  lambda = {left.lam},  a = {left.a},  C = {left.C},  b = {left.b:.4f}")
print(f"  t1 = {right.t1:.3e},  b3 = {right.b3:.6e}")
print(f"  beta = {right.beta:.3e},  rho = {right.rho:.3e}  (beta*rho = {right.beta * right.rho:.4f})")

bc = check_bc(res.measurement.jets, left, right, pair.eps_b2)
print("\nnine interface clauses")
for name, clause in bc.clauses.items():
    rel = "<=" if clause["one_sided"] else "=="
    print(f"  {name:8s} actual {clause['actual']: .9e}  {rel} target "
          f"{clause['target']: .9e}   residual {clause['residual']: .1e}")

t = pair.grid(2048)
ric = doubly_warped_ricci(pair.jets(t), 4, 4)
print("\nboundary Ricci minima over the grid:",
      ["%.3e" % float(np.min(r)) for r in ric])

rep = z3_mean_curvature_from_pair(pair, 4, 4)
print(f"mean-curvature margin minimum: {rep.margin_min_reported:.3e} "
      f"(tolerance -1e-9); sign-consistent: {rep.sign_consistent(atol=1e-7)}")
