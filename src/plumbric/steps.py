"""Smooth transition functions shared by the profile builders.

Two families are provided:

* ``smooth_step`` -- the classical C-infinity step built from exp(-1/x).
  It is identically 0 for x <= 0 and identically 1 for x >= 1, with *all*
  derivatives vanishing at both ends.  The collar rise of the right profile
  piece decays through it, so the rise meets its plateau to every order.
* ``smoothstep7`` -- the degree-7 polynomial step (three vanishing
  derivatives at each end).  Cheaper and adequate where only C^3 contact is
  needed, e.g. the fiber-angle taper.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bump_exp",
    "bump_exp_d1",
    "smooth_step",
    "smooth_step_d1",
    "smoothstep7",
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
    """Derivative of :func:`bump_exp`: exp(-1/x)/x^2 on x > 0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0.0
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        xp = x[pos]
        out[pos] = np.exp(-1.0 / xp) / (xp * xp)
    return out


def _phi_pair(x):
    x = np.asarray(x, dtype=float)
    u = bump_exp(x)
    v = bump_exp(1.0 - x)
    return x, u, v


def smooth_step(x):
    """C-infinity step: 0 for x <= 0, 1 for x >= 1, strictly increasing between."""
    x, u, v = _phi_pair(x)
    den = u + v
    out = np.empty_like(x)
    lo = x <= 0.0
    hi = x >= 1.0
    mid = ~(lo | hi)
    out[lo] = 0.0
    out[hi] = 1.0
    out[mid] = u[mid] / den[mid]
    return out


def smooth_step_d1(x):
    """First derivative of :func:`smooth_step` (vanishes to all orders at 0, 1)."""
    x, u, v = _phi_pair(x)
    up = bump_exp_d1(x)
    vp = bump_exp_d1(1.0 - x)
    den = u + v
    out = np.zeros_like(x)
    mid = (x > 0.0) & (x < 1.0)
    # d/dx [u/(u+v)] = (u'v + u v') / (u+v)^2, since dv/dx = -phi'(1-x).
    out[mid] = (up[mid] * v[mid] + u[mid] * vp[mid]) / (den[mid] ** 2)
    return out


def smoothstep7(x):
    """Degree-7 smoothstep: 35x^4 - 84x^5 + 70x^6 - 20x^7, clamped to [0, 1]."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return x ** 4 * (35.0 + x * (-84.0 + x * (70.0 - 20.0 * x)))

