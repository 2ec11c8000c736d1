"""The coordinate patches the certificate's oracle checks run on.

Every chart is built from two pieces: :func:`flat_patch`, the Euclidean
metric on a coordinate box, and :func:`warped_patch`, which warps a round
sphere factor over a base patch with a radius that depends on the base point.
:func:`cylinder_patch` is the metric line x sphere under the neck bulk; the
taper bundle and the neck bulk warp further factors over these.  The sphere
factors use nested-angle (hyperspherical) coordinates, so every metric here
is diagonal, and each chart's ``g`` returns the diagonal with its exact
gradient and Hessian, the contract of ``oracle.MetricPatch``.  A warped
chart's radius callable returns its own 2-jet over the base coordinates,
(value, gradient, Hessian) of shapes (n,), (n, base dim) and (n, base dim,
base dim); :func:`coordinate_jets` builds it for a radius of one base
coordinate.  Every chart computes each row from that row alone.  Grid
sampling should stay at least POLE_MARGIN radians away from the angle
endpoints.
"""

from __future__ import annotations

import numpy as np

from .oracle import MetricPatch

__all__ = [
    "POLE_MARGIN",
    "ANGLE_BOX",
    "coordinate_jets",
    "flat_patch",
    "warped_patch",
    "cylinder_patch",
]

POLE_MARGIN = 0.05
ANGLE_BOX = (POLE_MARGIN, np.pi - POLE_MARGIN)


def coordinate_jets(width: int, k: int, value, d1, d2) -> tuple:
    """The 2-jet, over points of ``width`` coordinates, of a function of
    coordinate k alone, from its value and first two derivatives along it."""
    value = np.asarray(value, dtype=float)
    grad = np.zeros(value.shape + (width,))
    hess = np.zeros(value.shape + (width, width))
    grad[:, k] = d1
    hess[:, k, k] = d2
    return value, grad, hess


def _unit_sphere_jets(angles: np.ndarray) -> tuple:
    """Diagonal of the unit n-sphere metric in nested angles, with its
    gradient and Hessian.

    ``angles`` has shape (rows, n).  S[:, k] = prod_{j<k} sin^2(angle_j), and
    with c_j = 2 cot(angle_j), the derivative of log sin^2(angle_j),
    dS[:, j, k] = c_j S_k and d2S[:, j, l, k] = (c_j c_l - delta_jl (2 +
    c_j^2 / 2)) S_k for j, l < k, and 0 otherwise.
    """
    n = angles.shape[-1]
    S = np.ones(angles.shape)
    if n > 1:
        S[:, 1:] = np.cumprod(np.sin(angles[:, :-1]) ** 2, axis=-1)
    c = 2.0 * np.cos(angles) / np.sin(angles)
    before = np.triu(np.ones((n, n), dtype=bool), 1)   # before[j, k]: j < k
    dS = np.where(before, c[:, :, None] * S[:, None, :], 0.0)
    cc = c[:, :, None] * c[:, None, :] - np.eye(n) * (2.0 + 0.5 * c * c)[:, :, None]
    d2S = np.where(before[:, None, :] & before, cc[..., None] * S[:, None, None, :], 0.0)
    return S, dS, d2S


def flat_patch(domain) -> MetricPatch:
    """Flat metric on the coordinate box ``domain`` (one (lo, hi) per coordinate):
    every diagonal entry is 1, with zero derivatives."""
    d = len(domain)

    def g(x):
        n = len(x)
        return np.ones((n, d)), np.zeros((n, d, d)), np.zeros((n, d, d, d))

    return MetricPatch(dim=d, domain=tuple(domain), g=g)


def warped_patch(base: MetricPatch, radius_of_base_point, fiber_dim: int) -> MetricPatch:
    """base + radius^2 ds_{fiber_dim}^2: a round sphere factor warped over ``base``.

    The new coordinates are (base coordinates..., fiber angles...), and the
    diagonal is the base's followed by the fiber's, R^2 S_k with S the unit
    sphere's.  ``radius_of_base_point`` takes an (n, base.dim) stack of base
    points and returns the radius's 2-jet there.  The fiber entries' jets are
    the product rule's: d(R^2 S_k) = 2 R dR S_k + R^2 dS_k, and so on.
    """
    db = base.dim
    d = db + fiber_dim

    def g(x):
        x = np.asarray(x, dtype=float)
        n = len(x)
        Db, dDb, d2Db = base.g(x[:, :db])
        R, dR, d2R = (np.asarray(v, dtype=float) for v in radius_of_base_point(x[:, :db]))
        S, dS, d2S = _unit_sphere_jets(x[:, db:])
        R2 = R * R
        dR2 = 2.0 * R[:, None] * dR                                   # d_i R^2
        d2R2 = 2.0 * (dR[:, :, None] * dR[:, None, :] + R[:, None, None] * d2R)
        D = np.concatenate([Db, R2[:, None] * S], axis=1)
        dD = np.zeros((n, d, d))
        dD[:, :db, :db] = dDb
        dD[:, :db, db:] = dR2[:, :, None] * S[:, None, :]
        dD[:, db:, db:] = R2[:, None, None] * dS
        d2D = np.zeros((n, d, d, d))
        d2D[:, :db, :db, :db] = d2Db
        d2D[:, :db, :db, db:] = d2R2[..., None] * S[:, None, None, :]
        d2D[:, :db, db:, db:] = dR2[:, :, None, None] * dS[:, None]
        d2D[:, db:, :db, db:] = d2D[:, :db, db:, db:].transpose(0, 2, 1, 3)
        d2D[:, db:, db:, db:] = R2[:, None, None, None] * d2S
        return D, dD, d2D

    return MetricPatch(dim=d, domain=base.domain + (ANGLE_BOX,) * fiber_dim, g=g)


def cylinder_patch(p: int, radius: float) -> MetricPatch:
    """Metric line x round p-sphere: dt^2 + ds^2 + radius^2 sin^2(s/radius) ds_{p-1}^2.

    Coordinates: (t, s, p-1 nested angles); s is the geodesic distance from a
    pole of the sphere factor, and t runs over [-1, 1].
    """
    s_box = (POLE_MARGIN * radius, (np.pi - POLE_MARGIN) * radius)

    def sphere_radius(xb):
        u = xb[:, 1] / radius
        return coordinate_jets(2, 1, radius * np.sin(u), np.cos(u), -np.sin(u) / radius)

    return warped_patch(flat_patch(((-1.0, 1.0), s_box)), sphere_radius, p - 1)
