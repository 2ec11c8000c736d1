"""Generic finite-difference curvature oracle for diagonal coordinate-patch metrics.

A chart is a callable ``points -> metric diagonals`` on a coordinate box:
every chart in ``charts`` and ``meancurv`` is diagonal, and the oracle reads
only the diagonal, shape (..., dim).  Christoffel symbols are assembled from
central differences of the metric, Ricci from analytic contractions of those,
and one Richardson extrapolation level (steps h and h/2) removes the leading
O(h^2) truncation error.  Ricci and the second fundamental form of a graph
take every difference on one stencil (``_stencil`` / ``_differences``) and
share the Christoffel assembly.  Each evaluates the metric once, on one
(rows, dim) stack of diagonals whose first row is the point itself; Ricci's
stack holds the stencils of both steps.  A stack of the wrong shape raises
``MetricShapeError``, and an entry that is not finite and positive raises
``NonSPDMetricError``, before any differencing.

Of the derivative of the Christoffel symbols Ricci reads only two traces,
d_a Gamma^a_jk and d_j Gamma^a_ak, and forms only those, as (d, d, d) arrays
with one row per summand a, summed over a in order.  No array of d^4 entries
is formed.  On a diagonal metric three groups of sums have exactly one
nonzero summand per entry: Gamma = g^{lm} T_ijm / 2 (m = l), the two traces
of dT that Ricci reads, and the four contractions of d g^-1 with T and of
g^-1 with dT (c = a).  Each is formed as ``0.0 + product``, which is the
value of any sum that starts at +0 and adds the exact zeros of the other
summands (einsum's, for one), zero signs included.  Two conditions make this
the value of the dense route (``tests/oracle_reference.py``) bit for bit:

* ``np.linalg.inv`` and ``np.linalg.cholesky`` of diag(D) have exact +0 off
  the diagonal, so every other summand is an exact zero;
* every sum with more than one nonzero summand (Ricci's four terms, the
  contraction Gamma^a_ab, the scalar, d g^-1 = -g^-1 (dg) g^-1 and the
  Christoffel term of the second fundamental form) runs, as before, on
  C-contiguous operands: numpy's reduction order follows the layout, and a
  transposed operand can move the last bit of a sum.

The least Ricci eigenvalue and the principal curvatures are eigenvalues of
symmetric-definite pencils (Ricci against the metric, the second fundamental
form against the induced metric).  Each is reduced by the Cholesky factor
L of its metric to the standard symmetric eigenproblem of L^-1 A L^-T (Martin
and Wilkinson 1968; Golub and Van Loan, Matrix Computations, 8.7), solved by
numpy, so the oracle needs nothing beyond numpy.  A metric whose Cholesky
factorization fails raises ``NonSPDMetricError`` naming the matrix.

This module is deliberately independent of every closed-form curvature
formula in the package: it is the second route used to validate them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "MetricPatch",
    "CurvatureReport",
    "GraphHypersurface",
    "SecondFundamentalFormReport",
    "numeric_curvature",
    "numeric_second_fundamental_form",
    "OracleDomainError",
    "NonSPDMetricError",
    "MetricShapeError",
]

DEFAULT_STEP = 1e-3


class OracleDomainError(ValueError):
    """Evaluation point too close to the coordinate-box boundary."""


class NonSPDMetricError(ValueError):
    """A metric, or an induced metric, that is not finite and positive definite
    where the oracle reads it."""


class MetricShapeError(ValueError):
    """A chart returned something other than one metric diagonal per point."""


@dataclass(frozen=True)
class MetricPatch:
    """A coordinate-box metric.

    ``g`` must accept an array of points of shape (..., dim) and return the
    diagonals of the metric matrices there, shape (..., dim): the metric is
    diagonal in these coordinates.
    """

    dim: int
    domain: tuple
    g: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class CurvatureReport:
    point: np.ndarray
    ricci: np.ndarray
    scalar: float
    min_ricci_eigenvalue: float


def _cholesky(B: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of ``B``; a ``NonSPDMetricError`` naming ``what``
    if ``B`` is not positive definite."""
    try:
        return np.linalg.cholesky(B)
    except np.linalg.LinAlgError as exc:
        raise NonSPDMetricError(f"{what} matrix is not positive definite at the point") from exc


def _pencil_eigenvalues(A: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of the symmetric-definite pencil A x = lambda B x
    with B = L L^T: those of C = L^-1 A L^-T (Cholesky reduction to a
    standard eigenproblem, as LAPACK's sygvd does)."""
    Linv = np.linalg.inv(L)
    return np.linalg.eigvalsh(Linv @ A @ Linv.T)


def _metric_diagonals(patch: MetricPatch, x: np.ndarray) -> np.ndarray:
    """The chart's metric diagonals at the stencil points ``x``, one row each.

    A ``MetricShapeError`` unless the chart returned shape ``x.shape``, and a
    ``NonSPDMetricError`` unless every entry is finite and positive.
    """
    D = np.asarray(patch.g(x), dtype=float)
    if D.shape != x.shape:
        raise MetricShapeError(f"metric diagonals must have shape {x.shape}, got {D.shape}")
    if not np.isfinite(D).all():
        raise NonSPDMetricError("metric matrix is not finite on the stencil")
    if not (D > 0.0).all():
        raise NonSPDMetricError("metric matrix is not positive definite on the stencil")
    return D


def _stencil(h: np.ndarray, corners: bool) -> np.ndarray:
    """Offsets of the central-difference stencil with per-coordinate steps ``h``.

    Rows: zero (the center); h_k e_k and -h_k e_k for each k; then, with
    ``corners``, the four corners +/- h_k e_k +/- h_l e_l (++, +-, -+, --)
    of each pair k < l.  The offsets of steps h/2 are exactly half these.
    """
    n = h.size
    e = np.diag(h)
    offsets = [np.zeros((1, n)), np.stack([e, -e], axis=1).reshape(2 * n, n)]
    if corners:
        k, l = np.triu_indices(n, 1)
        sk = np.array([1.0, 1.0, -1.0, -1.0])[:, None, None]
        sl = np.array([1.0, -1.0, 1.0, -1.0])[:, None, None]
        offsets.append((sk * e[k] + sl * e[l]).transpose(1, 0, 2).reshape(-1, n))
    return np.concatenate(offsets)


def _differences(values: np.ndarray, h: np.ndarray, corners: bool) -> tuple:
    """First and second central differences of values taken on :func:`_stencil`.

    ``values[i]`` is the function (of any trailing shape) at stencil row i.
    Returns (d1, d2) with d1[k] = d_k and d2[k, l] = d_k d_l of the function;
    without ``corners`` only the diagonal of d2 is filled.
    """
    n = h.size
    hh = h.reshape((n,) + (1,) * (values.ndim - 1))
    plus, minus = values[1:2 * n + 1:2], values[2:2 * n + 2:2]
    d1 = (plus - minus) / (2.0 * hh)
    d2 = np.zeros((n, n) + values.shape[1:])
    d2[np.arange(n), np.arange(n)] = (plus - 2.0 * values[0] + minus) / (hh * hh)
    if corners:
        k, l = np.triu_indices(n, 1)
        c = values[2 * n + 1:].reshape((-1, 4) + values.shape[1:])
        denom = (4.0 * h[k] * h[l]).reshape((-1,) + (1,) * (values.ndim - 1))
        d2[k, l] = d2[l, k] = (c[:, 0] - c[:, 1] - c[:, 2] + c[:, 3]) / denom
    return d1, d2


class _Gathers(NamedTuple):
    """Flat indices of the entries read by the one-summand contractions."""

    eye: np.ndarray       # (d, d) mask of the diagonal
    diag: np.ndarray      # [a] -> (a, a) of a (d, d) array
    last_first: np.ndarray  # [a, j, k] -> (j, k, a) of a (d, d, d) array
    aaa: np.ndarray       # [a] -> (a, a, a)
    jaa: np.ndarray       # [a, j] -> (j, a, a)
    aak: np.ndarray       # [a, k] -> (a, a, k)
    div: tuple            # the three d2g entries of d_a T[j, k, a]
    grad: tuple           # the three d2g entries of d_j T[a, k, a]


@functools.lru_cache(maxsize=None)
def _gathers(d: int) -> _Gathers:
    """The gathers of dimension d, each shaped like the array it builds; one
    cache entry per chart dimension, read and never written by its callers.

    ``div`` and ``grad`` index the second differences d2D[m, i, b] =
    d^2_{mi} g_bb with one +0 appended (flat index d^3), which stands for
    every off-diagonal d^2_{mi} g_bc.
    """
    a, j, k = np.ogrid[:d, :d, :d]

    def flat(x, y, z):
        return (x * d + y) * d + z

    def d2g(m, i, b, c):  # d^2_{mi} g_bc
        return np.where(b == c, flat(m, i, b), d ** 3)

    def dT(m, i, b, c):  # d_m T[i, b, c] = d2g(m, i, b, c) + d2g(m, b, i, c) - d2g(m, c, i, b)
        return d2g(m, i, b, c), d2g(m, b, i, c), d2g(m, c, i, b)

    return _Gathers(eye=np.eye(d, dtype=bool), diag=a * (d + 1), last_first=flat(j, k, a),
                    aaa=flat(a, a, a), jaa=flat(j, a, a), aak=flat(a, a, k),
                    div=dT(a, j, k, a), grad=dT(j, a, k, a))


def _embed(dD: np.ndarray) -> np.ndarray:
    """dg[k, a, b] = d_k g_ab from dD[k, a] = d_k g_aa: exact +0 off the diagonal."""
    return np.where(_gathers(dD.shape[-1]).eye, dD[..., np.newaxis], 0.0)


def _christoffel(ginv: np.ndarray, dg: np.ndarray) -> tuple:
    """Christoffel symbols gamma[l, i, j] = Gamma^l_ij from dg[k, a, b] = d_k g_ab.

    Also returns Tl[l, i, j] = T[i, j, l], with T[i, j, m] = d_i g_jm + d_j g_im
    - d_m g_ij, so that gamma = g^{lm} T_ijm / 2, whose one nonzero summand
    is m = l.
    """
    ix = _gathers(len(ginv))
    T = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    Tl = T.take(ix.last_first)
    return 0.5 * (0.0 + ginv.take(ix.diag) * Tl), Tl


def _ricci(D: np.ndarray, ginv: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Ricci tensor from the metric diagonals ``D`` on the corner stencil of
    steps ``h``, with ``ginv`` the inverse metric at its center.

    Of the derivative d_m Gamma^l_ij = (d_m g^{lc} T_ijc + g^{lc} d_m T_ijc) / 2
    only the two traces Ricci reads are formed, d_a Gamma^a_jk and
    d_j Gamma^a_ak, as (d, d, d) arrays indexed [a, j, k].  In each sum over c
    only c = a is nonzero, and of d_m T only the entries the traces read are
    formed, from the second differences of the diagonal.
    """
    dD, d2D = _differences(D, h, corners=True)   # d2D[m, k, a] = d^2_{mk} g_aa
    ix = _gathers(len(ginv))
    dg = _embed(dD)
    gamma, Tl = _christoffel(ginv, dg)
    dginv = -((ginv @ dg) @ ginv)  # dginv[m, l, k] = d_m g^{lk}
    d2 = np.append(d2D.ravel(), 0.0)

    def dT(terms):
        return d2.take(terms[0]) + d2.take(terms[1]) - d2.take(terms[2])

    gd = ginv.take(ix.diag)
    div = 0.5 * ((0.0 + dginv.take(ix.aaa) * Tl) + (0.0 + gd * dT(ix.div)))
    grad = 0.5 * ((0.0 + dginv.take(ix.jaa) * Tl.take(ix.aak)) + (0.0 + gd * dT(ix.grad)))

    term1 = np.einsum("ajk->jk", div)
    term2 = np.einsum("ajk->jk", grad)
    contracted = np.einsum("aab->b", gamma)
    term3 = np.einsum("b,bjk->jk", contracted, gamma)
    term4 = np.einsum("ajb,bak->jk", gamma, gamma)
    ric = term1 - term2 + term3 - term4
    return 0.5 * (ric + ric.T)


def _step_vector(patch: MetricPatch, step) -> np.ndarray:
    h = np.broadcast_to(np.asarray(step, dtype=float), (patch.dim,)).copy()
    if np.any(h <= 0):
        raise ValueError("steps must be positive")
    return h


def _require_interior(patch: MetricPatch, point: np.ndarray, h: np.ndarray, what: str):
    for x, (lo, hi), hk in zip(point, patch.domain, h):
        if x < lo + 2 * hk or x > hi - 2 * hk:
            raise OracleDomainError(f"{what} {point} within 2*step of the domain boundary")


def numeric_curvature(patch: MetricPatch, point, step=DEFAULT_STEP) -> CurvatureReport:
    """Ricci, scalar, and minimal Ricci eigenvalue (against g) at a point.

    ``step`` may be a scalar or a per-coordinate vector (use steps
    proportional to each coordinate's scale on anisotropic charts).  The
    point must be interior to the patch domain with margin >= 2*step.
    One Richardson level combines steps ``step`` and ``step/2``.
    """
    point = np.asarray(point, dtype=float)
    if point.shape != (patch.dim,):
        raise ValueError(f"point must have shape ({patch.dim},), got {point.shape}")
    h = _step_vector(patch, step)
    _require_interior(patch, point, h, "point")
    offsets = _stencil(h, corners=True)
    D = _metric_diagonals(patch, point + np.concatenate([offsets, 0.5 * offsets]))
    g0 = np.diag(D[0])
    L = _cholesky(g0, "metric")
    ginv = np.linalg.inv(g0)

    n = len(offsets)  # rows of step h, then of step h/2
    ric = (4.0 * _ricci(D[n:], ginv, 0.5 * h) - _ricci(D[:n], ginv, h)) / 3.0
    scalar = float(np.einsum("ij,ij->", ginv, ric))
    eigs = _pencil_eigenvalues(ric, L)
    return CurvatureReport(point=point, ricci=ric, scalar=scalar,
                           min_ricci_eigenvalue=float(eigs[0]))


@dataclass(frozen=True)
class GraphHypersurface:
    """A hypersurface given as a graph x_axis = height(other coordinates).

    ``height`` takes an array of shape (..., dim-1) of the non-axis
    coordinates (in their original order) and returns the axis coordinate.
    ``normal_sign`` picks the normal orientation: the unit normal is chosen
    with g-dual component along the axis of this sign (+1 means the normal
    points toward increasing x_axis).
    """

    axis: int
    height: Callable[[np.ndarray], np.ndarray]
    normal_sign: int = 1


@dataclass(frozen=True)
class SecondFundamentalFormReport:
    point: np.ndarray
    form: np.ndarray
    induced_metric: np.ndarray
    principal_curvatures: np.ndarray

    @property
    def mean_curvature(self) -> float:
        """Trace of the shape operator: sum of principal curvatures."""
        return float(np.sum(self.principal_curvatures))


def _normal_christoffel(gamma: np.ndarray, tangents: np.ndarray,
                        gnu: np.ndarray) -> np.ndarray:
    """Gamma^m_bc T_i^b T_j^c (g nu)_m as two matrix products."""
    return tangents @ np.tensordot(gnu, gamma, axes=1) @ tangents.T


def numeric_second_fundamental_form(patch: MetricPatch, hypersurface: GraphHypersurface,
                                    base_point, step=DEFAULT_STEP
                                    ) -> SecondFundamentalFormReport:
    """Second fundamental form of a graph hypersurface at a point.

    ``base_point`` gives the dim-1 non-axis coordinates; the axis coordinate
    is filled in from the graph.  The form is computed in the tangent basis
    T_i = e_i + (d height/d x_i) e_axis via II(X, Y) = g(nu, nabla_X Y) with
    ``nu`` the unit normal of the requested orientation.  ``step`` may be a
    scalar or a per-coordinate vector indexed like the patch coordinates.
    """
    d = patch.dim
    a = hypersurface.axis
    others = [i for i in range(d) if i != a]
    bp = np.asarray(base_point, dtype=float)
    if bp.shape != (d - 1,):
        raise ValueError(f"base point must have shape ({d - 1},), got {bp.shape}")
    h = _step_vector(patch, step)
    hb = h[others]

    # Height value, gradient, and Hessian by central differences.
    W = np.asarray(hypersurface.height(bp + _stencil(hb, corners=True)), dtype=float)
    grad, hess = _differences(W, hb, corners=True)

    point = np.empty(d)
    point[others] = bp
    point[a] = W[0]
    _require_interior(patch, point, h, "graph point")
    D = _metric_diagonals(patch, point + _stencil(h, corners=False))
    g0 = np.diag(D[0])
    ginv = np.linalg.inv(g0)

    # Tangent vectors T_i = e_{others[i]} + grad_i e_a.
    tangents = np.zeros((d - 1, d))
    tangents[np.arange(d - 1), others] = 1.0
    tangents[:, a] = grad

    # Unit normal from the conormal d(x_a - height): components delta_a - grad.
    conormal = np.zeros(d)
    conormal[a] = 1.0
    conormal[others] = -grad
    nu = ginv @ conormal
    norm = float(np.sqrt(nu @ g0 @ nu))
    if norm < 1e-14:
        raise ValueError("degenerate normal direction")
    nu /= norm
    if np.sign(nu[a]) != np.sign(hypersurface.normal_sign):
        nu = -nu

    # Christoffel symbols at the point (central differences of g).
    dD, _ = _differences(D, h, corners=False)
    gamma, _ = _christoffel(ginv, _embed(dD))

    gnu = g0 @ nu
    # II_ij = Hess_ij * (g nu)_a + Gamma^m_{bc} T_i^b T_j^c (g nu)_m
    form = hess * gnu[a] + _normal_christoffel(gamma, tangents, gnu)
    form = 0.5 * (form + form.T)

    induced = tangents @ g0 @ tangents.T
    pcs = _pencil_eigenvalues(form, _cholesky(induced, "induced metric"))
    return SecondFundamentalFormReport(point=point, form=form, induced_metric=induced,
                                       principal_curvatures=pcs)
