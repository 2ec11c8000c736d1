"""Independent oracles the tests compare the program against.

Charts with known curvature (flat space, round spheres in two coordinate
systems, a rescaled chart), the doubly warped chart the closed-form Ricci
values are compared on, the scalar curvature as the trace of those closed
forms, and the finite-difference route to the neck boundary's mean
curvature.  Test modules import these; pytest puts this directory on
``sys.path``.
"""

import math

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from plumbric.charts import flat_patch, warped_patch
from plumbric.meancurv import bulk_patch, z3_mean_curvature
from plumbric.oracle import GraphHypersurface, MetricPatch, numeric_second_fundamental_form
from plumbric.warped import WarpedJet, doubly_warped_ricci


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


def doubly_warped_scalar(jet: WarpedJet, p: int, q: int):
    """Scalar curvature: the trace of the Ricci endomorphism.

    One t-direction, q-1 equal S^{q-1} eigenvalues, p-1 equal S^{p-1}
    eigenvalues.
    """
    ric_t, ric_h, ric_f = doubly_warped_ricci(jet, p, q)
    return ric_t + (q - 1) * ric_h + (p - 1) * ric_f


def oracle_boundary_mean_curvature(pair, p: int, q: int, n_points: int = 7,
                                   d_min: float = 0.02):
    """Mean curvature of the neck boundary via the generic oracle.

    Runs the finite-difference second-fundamental-form computation on the
    :func:`plumbric.meancurv.bulk_patch` at sample points where the graph
    description is well conditioned (D >= d_min), with the chart's own step;
    the vertical end regions cannot be differenced and are excluded.

    Returns (t_samples, oracle_mc, closed_form_mc).
    """
    patch, curve, keep, step = bulk_patch(pair, p, q, d_min)
    th = curve.t[keep]
    tth = curve.t_tilde[keep]
    idx = np.unique(np.linspace(0, th.size - 1, n_points).astype(int))
    F_of_tt = CubicHermiteSpline(tth, curve.F[keep], curve.F1[keep])

    def height(xs):
        xs = np.asarray(xs, dtype=float)
        return F_of_tt(xs[..., 0])

    hyper = GraphHypersurface(axis=1, height=height, normal_sign=-1)
    angles = np.full(patch.dim - 2, math.pi / 2 + 0.1)

    _curve_pc, _sphere_p, _sphere_q, mc, _degenerate = z3_mean_curvature(curve, pair, p, q)
    mc_closed = mc[keep]

    t_out, mc_oracle, mc_cf = [], [], []
    margin = 4.0 * step[0]
    for i in idx:
        tt0 = tth[i]
        if not (tth[0] + margin < tt0 < tth[-1] - margin):
            continue
        base = np.concatenate([[tt0], angles])
        rep = numeric_second_fundamental_form(patch, hyper, base, step=step)
        t_out.append(th[i])
        mc_oracle.append(rep.mean_curvature)
        mc_cf.append(float(mc_closed[i]))
    return np.asarray(t_out), np.asarray(mc_oracle), np.asarray(mc_cf)
