"""Independent oracles the tests compare the program against.

Charts with known curvature (flat space, round spheres in two coordinate
systems, a rescaled chart), each returning its metric's exact 2-jet, the
doubly warped chart the closed-form Ricci values are compared on, the
scalar curvature as the trace of those closed forms, and the oracle route to
the neck boundary's mean curvature.  Test modules import these; pytest puts
this directory on ``sys.path``.
"""

import math

import numpy as np

from plumbric.charts import coordinate_jets, flat_patch, warped_patch
from plumbric.meancurv import _neck_terms, build_curve, bulk_patch, z3_mean_curvature
from plumbric.oracle import GraphHypersurface, MetricPatch, numeric_second_fundamental_form
from plumbric.warped import WarpedJet, doubly_warped_ricci


def euclidean_patch(d: int, half_width: float = 1.0) -> MetricPatch:
    """Flat metric on a centered coordinate box."""
    return flat_patch(((-half_width, half_width),) * d)


def sphere_stereographic(n: int, r: float, half_width: float = 0.8) -> MetricPatch:
    """Round n-sphere of radius r in a stereographic chart.

    g_ij = c delta_ij with c = 4 r^4 / u^2, u = r^2 + |x|^2, so
    d_k c = -16 r^4 x_k / u^3 and d_k d_l c = 96 r^4 x_k x_l / u^4 - 16 r^4 delta_kl / u^3.
    """

    def g(x):
        x = np.asarray(x, dtype=float)
        u = r ** 2 + np.sum(x * x, axis=-1)
        conf = 4.0 * r ** 4 / u ** 2
        dconf = -16.0 * r ** 4 * x / u[:, None] ** 3
        d2conf = (96.0 * r ** 4 * x[:, :, None] * x[:, None, :] / u[:, None, None] ** 4
                  - 16.0 * r ** 4 * np.eye(n) / u[:, None, None] ** 3)
        ones = np.ones(n)
        return conf[:, None] * ones, dconf[..., None] * ones, d2conf[..., None] * ones

    return MetricPatch(dim=n, domain=tuple((-half_width, half_width) for _ in range(n)), g=g)


def sphere_polar(n: int, r: float) -> MetricPatch:
    """Round n-sphere of radius r in nested-angle coordinates (warped over a point)."""
    return warped_patch(flat_patch(()), lambda xb: (np.full(len(xb), r), np.zeros((len(xb), 0)),
                                                    np.zeros((len(xb), 0, 0))), n)


def line_warp(val, d1, d2):
    """A warping radius of the first base coordinate, from a function and its
    first two derivatives, as ``charts.warped_patch`` takes it."""
    return lambda xb: coordinate_jets(xb.shape[1], 0, val(xb[:, 0]), d1(xb[:, 0]), d2(xb[:, 0]))


def affine_warp(lam: float):
    """The collar warp 1 + lam t with its first two derivatives, as
    ``meancurv.z2_mean_curvature`` takes it."""
    return lambda t: (1.0 + lam * t, np.full(t.shape, lam), np.zeros(t.shape))


def doubly_warped_patch(f, h, p: int, q: int, t_domain) -> MetricPatch:
    """dt^2 + h(t)^2 ds_{q-1}^2 + f(t)^2 ds_{p-1}^2 with f and h each given as
    (function, first derivative, second derivative).

    Coordinates: (t, q-1 angles for the first factor, p-1 angles for the
    second).  The callables must accept numpy arrays.
    """
    line = flat_patch((tuple(t_domain),))
    return warped_patch(warped_patch(line, line_warp(*h), q - 1), line_warp(*f), p - 1)


def scaled_patch(patch: MetricPatch, lam: float) -> MetricPatch:
    """The same chart with metric multiplied by lam^2."""

    def g(x):
        return tuple(lam ** 2 * jet for jet in patch.g(x))

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

    Runs the second-fundamental-form oracle on the
    :func:`plumbric.meancurv.bulk_patch` at n_points samples of a 1024-point
    boundary curve where the graph description is well conditioned
    (D >= d_min), its first and last such samples left out: at a3 the curve's
    height F lies below the chart's s range.  The boundary is the graph s = F
    over the slice parameter, whose t~-jet is the curve's closed form
    (F, F', F'') at each sample's t.

    Returns (t_samples, oracle_mc, closed_form_mc).
    """
    bN = pair.right.bN
    patch = bulk_patch(pair, p, q)
    curve = build_curve(pair, pair.right.beta, pair.right.N, grid_n=1024)
    keep = np.flatnonzero(curve.D >= d_min)
    idx = keep[np.unique(np.linspace(1, keep.size - 2, n_points).astype(int))]

    def height(xs):
        jets = pair.jets(xs[:, 0])
        D, E, F, _cot, bracket = _neck_terms(jets.f, jets.f1, jets.f2, bN)
        return coordinate_jets(xs.shape[1], 0, F, jets.f1 / np.sqrt(D),
                               np.sqrt(E) * bracket / D ** 2)

    hyper = GraphHypersurface(axis=1, height=height, normal_sign=-1)
    bases = np.full((idx.size, patch.dim - 1), math.pi / 2 + 0.1)
    bases[:, 0] = curve.t[idx]
    reps = numeric_second_fundamental_form(patch, hyper, bases)
    mc = z3_mean_curvature(curve, pair, p, q)[3]
    return curve.t[idx], np.array([rep.mean_curvature for rep in reps]), mc[idx]
