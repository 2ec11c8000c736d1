"""Closed-form Ricci curvature of doubly warped product metrics.

The metric is ``dt^2 + h(t)^2 ds_{q-1}^2 + f(t)^2 ds_{p-1}^2`` on an interval
times S^{q-1} x S^{p-1}.  The Ricci endomorphism is diagonal in the frame
(d/dt, unit S^{q-1} directions, unit S^{p-1} directions) with eigenvalues

    ric_t = -(q-1) h''/h - (p-1) f''/f
    ric_h = -h''/h + (q-2)(1 - h'^2)/h^2 - (p-1) f' h'/(f h)
    ric_f = -f''/f + (p-2)(1 - f'^2)/f^2 - (q-1) f' h'/(f h)

These expressions are validated against the curvature oracle on exact 2-jets
(see :mod:`plumbric.oracle`), to roundoff; the oracle is the independent
route, the closed forms are the fast route used on dense profile grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["WarpedJet", "doubly_warped_ricci"]


@dataclass(frozen=True)
class WarpedJet:
    """Second-order data of the two warping functions at a parameter value.

    Fields may be floats or equal-shape numpy arrays (grids of jets).
    """

    t: object
    f: object
    f1: object
    f2: object
    h: object
    h1: object
    h2: object

    def __post_init__(self):
        if np.any(np.asarray(self.f) <= 0) or np.any(np.asarray(self.h) <= 0):
            raise ValueError("warping functions must be positive")


def doubly_warped_ricci(jet: WarpedJet, p: int, q: int):
    """Unit-vector Ricci values (ric_t, ric_h, ric_f) of the doubly warped metric."""
    if p < 2 or q < 2:
        raise ValueError(f"sphere factors need p, q >= 2, got p={p}, q={q}")
    f, f1, f2 = (np.asarray(v, dtype=float) for v in (jet.f, jet.f1, jet.f2))
    h, h1, h2 = (np.asarray(v, dtype=float) for v in (jet.h, jet.h1, jet.h2))
    ric_t = -(q - 1) * h2 / h - (p - 1) * f2 / f
    mixed = f1 * h1 / (f * h)
    ric_h = -h2 / h + (q - 2) * (1.0 - h1 ** 2) / h ** 2 - (p - 1) * mixed
    ric_f = -f2 / f + (p - 2) * (1.0 - f1 ** 2) / f ** 2 - (q - 1) * mixed
    return ric_t, ric_h, ric_f
