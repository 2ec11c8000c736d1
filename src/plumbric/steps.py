"""Smooth transition functions shared by the profile builders.

Two families are provided:

* ``smooth_step`` -- the classical C-infinity step built from exp(-1/x).
  It is identically 0 for x <= 0 and identically 1 for x >= 1, with *all*
  derivatives vanishing at both ends.  The collar rise of the right profile
  piece decays through it, so the rise meets its plateau to every order.
* ``smoothstep7`` -- the degree-7 polynomial step (three vanishing
  derivatives at each end).  Cheaper and adequate where only C^3 contact is
  needed, e.g. the fiber-angle taper; its first two derivatives are the
  polynomials ``smoothstep7_d1`` and ``smoothstep7_d2``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bump_exp",
    "bump_exp_d1",
    "smooth_step",
    "smooth_step_d1",
    "smoothstep7",
    "smoothstep7_d1",
    "smoothstep7_d2",
]


def bump_exp(x):
    """exp(-1/x) for x > 0, 0 otherwise (C-infinity flat at 0)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0.0
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        out[pos] = np.exp(-1.0 / x[pos])
    return out


def bump_exp_d1(x):
    """Derivative of :func:`bump_exp`: exp(-1/x)/x^2 on x > 0.

    It is 0 wherever exp(-1/x) underflows to 0, which covers the x whose
    square underflows too (x < 1.5e-162), where the quotient would be 0/0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0.0
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        xp = x[pos]
        num = np.exp(-1.0 / xp)
        out[pos] = np.divide(num, xp * xp, out=np.zeros_like(num), where=num > 0.0)
    return out


def smooth_step(x):
    """C-infinity step: 0 for x <= 0, 1 for x >= 1, strictly increasing between.

    u/(u+v) is exactly 0 for x <= 0, where u = 0, and exactly 1 for x >= 1,
    where v = 0, so one formula serves every x."""
    x = np.asarray(x, dtype=float)
    u, v = bump_exp(x), bump_exp(1.0 - x)
    return u / (u + v)


def smooth_step_d1(x):
    """First derivative of :func:`smooth_step` (vanishes to all orders at 0, 1).

    d/dx [u/(u+v)] = (u'v + u v') / (u+v)^2, since dv/dx = -phi'(1-x); off
    (0, 1) both products are exactly 0."""
    x = np.asarray(x, dtype=float)
    u, v = bump_exp(x), bump_exp(1.0 - x)
    return (bump_exp_d1(x) * v + u * bump_exp_d1(1.0 - x)) / (u + v) ** 2


def smoothstep7(x):
    """Degree-7 smoothstep: 35x^4 - 84x^5 + 70x^6 - 20x^7, clamped to [0, 1]."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return x ** 4 * (35.0 + x * (-84.0 + x * (70.0 - 20.0 * x)))



def smoothstep7_d1(x):
    """First derivative of :func:`smoothstep7`: 140 x^3 (1-x)^3, 0 off [0, 1]."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return 140.0 * (x * (1.0 - x)) ** 3


def smoothstep7_d2(x):
    """Second derivative of :func:`smoothstep7`: 420 x^2 (1-x)^2 (1-2x), 0 off [0, 1]."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return 420.0 * (x * (1.0 - x)) ** 2 * (1.0 - 2.0 * x)
