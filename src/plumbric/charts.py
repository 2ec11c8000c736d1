"""Coordinate-patch builders feeding the curvature oracle.

Every warped-product chart is built from two pieces: :func:`flat_patch`, the
Euclidean metric on a coordinate box, and :func:`warped_patch`, which warps a
round sphere factor over a base patch with a radius that depends on the base
point.  The sphere factors use nested-angle (hyperspherical) coordinates, so
every metric here is diagonal.  Grid sampling should stay at least
POLE_MARGIN radians away from the angle endpoints.
"""

from __future__ import annotations

import numpy as np

from .oracle import MetricPatch

__all__ = [
    "POLE_MARGIN",
    "ANGLE_BOX",
    "flat_patch",
    "warped_patch",
    "euclidean_patch",
    "sphere_stereographic",
    "sphere_polar",
    "cylinder_patch",
    "doubly_warped_patch",
    "scaled_patch",
]

POLE_MARGIN = 0.05
ANGLE_BOX = (POLE_MARGIN, np.pi - POLE_MARGIN)


def _unit_sphere_diag(angles: np.ndarray) -> np.ndarray:
    """Diagonal of the unit n-sphere metric in nested angles.

    ``angles`` has shape (..., n); entry k of the result is
    prod_{j<k} sin^2(angle_j).
    """
    n = angles.shape[-1]
    diag = np.ones(angles.shape[:-1] + (n,))
    if n > 1:
        s2 = np.sin(angles[..., :-1]) ** 2
        diag[..., 1:] = np.cumprod(s2, axis=-1)
    return diag


def flat_patch(domain) -> MetricPatch:
    """Flat metric on the coordinate box ``domain`` (one (lo, hi) per coordinate)."""
    d = len(domain)

    def g(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(np.eye(d), x.shape[:-1] + (d, d)).copy()

    return MetricPatch(dim=d, domain=tuple(domain), g=g)


def warped_patch(base: MetricPatch, radius_of_base_point, fiber_dim: int) -> MetricPatch:
    """base + radius^2 ds_{fiber_dim}^2: a round sphere factor warped over ``base``.

    The new coordinates are (base coordinates..., fiber angles...).
    ``radius_of_base_point`` takes base points of shape (..., base.dim) and
    returns the fiber radius there.
    """
    db = base.dim
    d = db + fiber_dim

    def g(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (d, d))
        out[..., :db, :db] = base.g(x[..., :db])
        rad = np.asarray(radius_of_base_point(x[..., :db]))
        idx = np.arange(db, d)
        out[..., idx, idx] = rad[..., np.newaxis] ** 2 * _unit_sphere_diag(x[..., db:])
        return out

    return MetricPatch(dim=d, domain=base.domain + (ANGLE_BOX,) * fiber_dim, g=g)


def euclidean_patch(d: int, half_width: float = 1.0) -> MetricPatch:
    """Flat metric on a centered coordinate box."""
    return flat_patch(((-half_width, half_width),) * d)


def sphere_stereographic(n: int, r: float, half_width: float = 0.8) -> MetricPatch:
    """Round n-sphere of radius r in a stereographic chart.

    g_ij = 4 r^4 / (r^2 + |x|^2)^2 delta_ij.
    """

    def g(x):
        x = np.asarray(x, dtype=float)
        conf = 4.0 * r ** 4 / (r ** 2 + np.sum(x * x, axis=-1)) ** 2
        eye = np.eye(n)
        return conf[..., np.newaxis, np.newaxis] * eye

    return MetricPatch(dim=n, domain=tuple((-half_width, half_width) for _ in range(n)), g=g)


def sphere_polar(n: int, r: float) -> MetricPatch:
    """Round n-sphere of radius r in nested-angle coordinates (warped over a point)."""
    return warped_patch(flat_patch(()), lambda xb: np.full(xb.shape[:-1], r), n)


def cylinder_patch(p: int, radius: float, t_half_width: float = 1.0) -> MetricPatch:
    """Metric line x round p-sphere: dt^2 + ds^2 + radius^2 sin^2(s/radius) ds_{p-1}^2.

    Coordinates: (t, s, p-1 nested angles); s is the geodesic distance from a
    pole of the sphere factor.
    """
    s_box = (POLE_MARGIN * radius, (np.pi - POLE_MARGIN) * radius)
    return warped_patch(flat_patch(((-t_half_width, t_half_width), s_box)),
                        lambda xb: radius * np.sin(xb[..., 1] / radius), p - 1)


def doubly_warped_patch(f, h, p: int, q: int, t_domain) -> MetricPatch:
    """dt^2 + h(t)^2 ds_{q-1}^2 + f(t)^2 ds_{p-1}^2 with callables f, h.

    Coordinates: (t, q-1 angles for the first factor, p-1 angles for the
    second).  ``f`` and ``h`` must accept numpy arrays.
    """
    line = flat_patch((tuple(t_domain),))
    return warped_patch(warped_patch(line, lambda xb: h(xb[..., 0]), q - 1),
                        lambda xb: f(xb[..., 0]), p - 1)


def scaled_patch(patch: MetricPatch, lam: float) -> MetricPatch:
    """The same chart with metric multiplied by lam^2."""

    def g(x):
        return lam ** 2 * patch.g(x)

    return MetricPatch(dim=patch.dim, domain=patch.domain, g=g)
