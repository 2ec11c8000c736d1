"""Boundary forms and the gluing test.
======================================

Two manifolds with positive Ricci curvature glue to one when the sum of
their boundary second fundamental forms is positive semi-definite.  A cap of
angular radius eps bounded by the round sphere of radius rho has the form
(cos(eps)/rho) per unit direction, so two caps over the same boundary sphere
glue exactly when cos(eps1) + cos(eps2) >= 0.  A neck profile meets the same
test at both of its ends.
"""

import math

import numpy as np

from plumbric import BlockDiagonalForm, interface_forms, perelman_form_check, search_parameters

# Sweep the complementary-pair family: the gluing flips exactly where the
# cosine sum changes sign.
print(" eps1   eps2    cos-sum   glues?")
rho, eps2 = 1.0, 2.2
for eps1 in np.linspace(0.6, 2.6, 9):
    c1 = BlockDiagonalForm(((math.cos(eps1) / rho, 3),))
    c2 = BlockDiagonalForm(((math.cos(eps2) / rho, 3),))
    ok = perelman_form_check(c1, c2)
    print(f" {eps1:.3f}  {eps2:.3f}  {math.cos(eps1) + math.cos(eps2): .4f}   {ok}")

# An accepted neck: at a3 it glues to the taper collar, whose form is
# (lambda/alpha) on the collar block, and at b3 to the embedded cap product,
# whose form is -cot(R/N)/(beta N) on the fiber block.
p = q = 4
res = search_parameters(p, q, math.pi / 4, 0.1, mc_margin_tol=1e-9, grid_n=2048)
left, right = res.left, res.right
II_a3, II_b3 = interface_forms(res.measurement.jets, p, q)
taper_side = BlockDiagonalForm(((left.lam / left.alpha, q - 1), (0.0, p - 1)))
cap_side = BlockDiagonalForm(((0.0, q - 1),
                              (-math.cos(right.angle) / math.sin(right.angle) / right.bN, p - 1)))
print("\nneck end   neck form (collar, fiber)     other side (collar, fiber)   glues?")
for end, neck, other in (("a3", II_a3, taper_side), ("b3", II_b3, cap_side)):
    (nc, _), (nf, _) = neck.blocks
    (oc, _), (of, _) = other.blocks
    print(f"  {end}      ({nc: .3e}, {nf: .3e})   ({oc: .3e}, {of: .3e})  "
          f"{perelman_form_check(neck, other)}")
