"""The coordinate patches the certificate's oracle checks run on.

Every chart is built from two pieces: :func:`flat_patch`, the Euclidean
metric on a coordinate box, and :func:`warped_patch`, which warps a round
sphere factor over a base patch with a radius that depends on the base point.
:func:`cylinder_patch` is the metric line x sphere under the neck bulk; the
taper bundle and the neck bulk warp further factors over these.  The sphere
factors use nested-angle (hyperspherical) coordinates, so every metric here
is diagonal.  Grid sampling should stay at least POLE_MARGIN radians away
from the angle endpoints.
"""

from __future__ import annotations

import numpy as np

from .oracle import MetricPatch

__all__ = [
    "POLE_MARGIN",
    "ANGLE_BOX",
    "flat_patch",
    "warped_patch",
    "cylinder_patch",
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


def cylinder_patch(p: int, radius: float) -> MetricPatch:
    """Metric line x round p-sphere: dt^2 + ds^2 + radius^2 sin^2(s/radius) ds_{p-1}^2.

    Coordinates: (t, s, p-1 nested angles); s is the geodesic distance from a
    pole of the sphere factor, and t runs over [-1, 1].
    """
    s_box = (POLE_MARGIN * radius, (np.pi - POLE_MARGIN) * radius)
    return warped_patch(flat_patch(((-1.0, 1.0), s_box)),
                        lambda xb: radius * np.sin(xb[..., 1] / radius), p - 1)
