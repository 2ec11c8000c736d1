"""Generic finite-difference curvature oracle for diagonal coordinate-patch metrics.

A chart is a callable ``points -> metric diagonals`` on a coordinate box:
every chart in ``charts`` and ``meancurv`` is diagonal, and the oracle reads
only the diagonal, shape (..., dim).  Christoffel symbols are assembled from
central differences of the metric, Ricci from analytic contractions of those,
and one Richardson extrapolation level (steps h and h/2) removes the leading
O(h^2) truncation error.  Ricci and the second fundamental form of a graph
take every difference on one stencil (``_stencil`` / ``_differences``) and
share the Christoffel assembly.

Both oracles take one point, shape (dim,), or a stack of n points, shape
(n, dim); one point runs as a stack of one.  A call evaluates the metric
once, on the stencils of all its points stacked as (n * rows, dim) diagonals,
whose first row of each block is the point itself (Ricci's block holds the
stencils of both steps), and differences the whole (n, rows, dim) stack in
one pass.  Each point has its own outcome: its report, or the
``OracleDomainError`` or ``NonSPDMetricError`` that point alone meets.  A
point within two steps of the domain boundary is not evaluated, and a block
with an entry that is not finite and positive is not differenced.  Those
errors are built, not raised, so a stored one carries no traceback and keeps
no frame alive.  One point returns its report or raises its error; a stack
returns the list of outcomes in point order.  Any other error propagates
from the call: a chart stack of the wrong shape raises ``MetricShapeError``
before any differencing.  A stack gives each point the bits of its one-point
call when the chart computes each row from that row alone, element-wise, as
every chart in ``charts`` and ``meancurv`` does; a BLAS product across a
row's coordinates can round a row differently with the number of rows.

Of the derivative of the Christoffel symbols Ricci reads only two traces,
d_a Gamma^a_jk and d_j Gamma^a_ak, and forms only those, as (d, d, d) arrays
with one row per summand a, summed over a in order.  No array of d^4 entries
is formed.  On a diagonal metric three groups of sums have exactly one
nonzero summand per entry: Gamma = g^{lm} T_ijm / 2 (m = l), the two traces
of dT that Ricci reads, and the four contractions of d g^-1 with T and of
g^-1 with dT (c = a).  Each is formed as ``0.0 + product``, which is the
value of any sum that starts at +0 and adds the exact zeros of the other
summands (einsum's, for one), zero signs included.  These products, like the
differences, are element-wise, so they run on the whole stack.  Two
conditions make this the value of the dense route
(``tests/oracle_reference.py``) bit for bit:

* ``np.linalg.inv`` and ``np.linalg.cholesky`` of diag(D) have exact +0 off
  the diagonal, so every other summand is an exact zero;
* every sum with more than one nonzero summand (Ricci's four terms, the
  contraction Gamma^a_ab, the scalar, d g^-1 = -g^-1 (dg) g^-1 and the
  Christoffel term of the second fundamental form) runs, as before, once per
  point on C-contiguous (d, ...) operands: numpy's reduction order follows
  the layout, and a transposed or stacked operand can move the last bit of a
  sum.  So do the Cholesky, inverse and eigenvalue calls, whose failures are
  per point.

The least Ricci eigenvalue and the principal curvatures are eigenvalues of
symmetric-definite pencils (Ricci against the metric, the second fundamental
form against the induced metric).  Each is reduced by the Cholesky factor
L of its metric to the standard symmetric eigenproblem of L^-1 A L^-T (Martin
and Wilkinson 1968; Golub and Van Loan, Matrix Computations, 8.7), solved by
numpy, so the oracle needs nothing beyond numpy.  A metric without a
Cholesky factor is that point's ``NonSPDMetricError`` naming the matrix.

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


def _cholesky(B: np.ndarray, what: str):
    """Lower Cholesky factor of ``B``, or, if ``B`` is not positive definite,
    a ``NonSPDMetricError`` naming ``what``, returned as that point's outcome."""
    try:
        return np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        return NonSPDMetricError(f"{what} matrix is not positive definite at the point")


def _pencil_eigenvalues(A: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of the symmetric-definite pencil A x = lambda B x
    with B = L L^T: those of C = L^-1 A L^-T (Cholesky reduction to a
    standard eigenproblem, as LAPACK's sygvd does)."""
    Linv = np.linalg.inv(L)
    return np.linalg.eigvalsh(Linv @ A @ Linv.T)


def _point_stack(points, width: int, what: str) -> tuple:
    """``points`` as an (n, width) stack, and whether it was one point."""
    x = np.asarray(points, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != width:
        raise ValueError(f"{what} must have shape ({width},) or (n, {width}), got {x.shape}")
    return x.reshape(-1, width), x.ndim == 1


def _result(outcomes: list, one: bool):
    """A stack's outcomes; for one point, its report, or its error raised.

    The error is popped before it is raised, so no frame of the call refers
    to it and its traceback makes no reference cycle.
    """
    if not one:
        return outcomes
    if isinstance(outcomes[0], ValueError):
        raise outcomes.pop()
    return outcomes[0]


def _read_metric(patch: MetricPatch, points: np.ndarray, h: np.ndarray,
                 offsets: np.ndarray, what: str) -> tuple:
    """The chart's metric diagonals on the stencils ``offsets`` of the points.

    Returns (outcomes, read, D): one outcome per point, None where it was
    read and otherwise its ``OracleDomainError`` or ``NonSPDMetricError``;
    the indices of the points read; and their diagonals, shape (read.size,
    rows, dim), from one chart call on the stencils of every point interior
    with margin 2*h.  A ``MetricShapeError`` unless the chart returned one
    diagonal per stencil point.
    """
    lo, hi = np.asarray(patch.domain, dtype=float).T
    near = ((points < lo + 2 * h) | (points > hi - 2 * h)).any(axis=1)
    outcomes = [OracleDomainError(f"{what} {x} within 2*step of the domain boundary")
                if out else None for x, out in zip(points, near)]
    live = np.flatnonzero(~near)
    if live.size == 0:
        return outcomes, live, None
    x = (points[live, np.newaxis] + offsets).reshape(-1, patch.dim)
    D = np.asarray(patch.g(x), dtype=float)
    if D.shape != x.shape:
        raise MetricShapeError(f"metric diagonals must have shape {x.shape}, got {D.shape}")
    D = D.reshape(live.size, len(offsets), patch.dim)
    finite = np.isfinite(D).all(axis=(1, 2))
    positive = (D > 0.0).all(axis=(1, 2))
    for i, f, pos in zip(live, finite, positive):
        if not f:
            outcomes[i] = NonSPDMetricError("metric matrix is not finite on the stencil")
        elif not pos:
            outcomes[i] = NonSPDMetricError(
                "metric matrix is not positive definite on the stencil")
    ok = finite & positive
    return outcomes, live[ok], D[ok]


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
        k, l = _pairs(n)
        sk = np.array([1.0, 1.0, -1.0, -1.0])[:, None, None]
        sl = np.array([1.0, -1.0, 1.0, -1.0])[:, None, None]
        offsets.append((sk * e[k] + sl * e[l]).transpose(1, 0, 2).reshape(-1, n))
    return np.concatenate(offsets)


def _differences(values: np.ndarray, h: np.ndarray, corners: bool) -> tuple:
    """First and second central differences of values taken on :func:`_stencil`.

    ``values[p, i]`` is the function (of any trailing shape) at stencil row i
    of point p.  Returns (d1, d2) with d1[p, k] = d_k and d2[p, k, l] =
    d_k d_l of the function at point p; without ``corners`` only the diagonal
    of d2 is filled.
    """
    n = h.size
    lead, tail = values.shape[0], values.shape[2:]
    hh = h.reshape((n,) + (1,) * len(tail))
    plus, minus = values[:, 1:2 * n + 1:2], values[:, 2:2 * n + 2:2]
    d1 = (plus - minus) / (2.0 * hh)
    d2 = np.zeros((lead, n, n) + tail)
    d2[:, np.arange(n), np.arange(n)] = (plus - 2.0 * values[:, :1] + minus) / (hh * hh)
    if corners:
        k, l = _pairs(n)
        c = values[:, 2 * n + 1:].reshape((lead, -1, 4) + tail)
        denom = (4.0 * h[k] * h[l]).reshape((-1,) + (1,) * len(tail))
        d2[:, k, l] = d2[:, l, k] = (c[:, :, 0] - c[:, :, 1] - c[:, :, 2] + c[:, :, 3]) / denom
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


@functools.lru_cache(maxsize=None)
def _pairs(n: int) -> tuple:
    """The stencil's corner pairs k < l, ``np.triu_indices(n, 1)``; one cache
    entry per stencil width, read and never written by its callers."""
    return np.triu_indices(n, 1)


def _take(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Per point p of the stack ``a``, the entries at the flat ``index`` of a[p]."""
    return a.reshape(len(a), -1).take(index, axis=1)


def _embed(dD: np.ndarray) -> np.ndarray:
    """dg[p, k, a, b] = d_k g_ab from dD[p, k, a] = d_k g_aa: exact +0 off the diagonal."""
    return np.where(_gathers(dD.shape[-1]).eye, dD[..., np.newaxis], 0.0)


def _christoffel(ginv: np.ndarray, dg: np.ndarray) -> tuple:
    """Christoffel symbols gamma[p, l, i, j] = Gamma^l_ij at point p from
    dg[p, k, a, b] = d_k g_ab.

    Also returns Tl[p, l, i, j] = T[i, j, l], with T[i, j, m] = d_i g_jm +
    d_j g_im - d_m g_ij, so that gamma = g^{lm} T_ijm / 2, whose one nonzero
    summand is m = l.
    """
    ix = _gathers(ginv.shape[-1])
    T = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)
    Tl = _take(T, ix.last_first)
    return 0.5 * (0.0 + _take(ginv, ix.diag) * Tl), Tl


def _ricci_sum(div: np.ndarray, grad: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Ricci of one point, unsymmetrized, from its traces d_a Gamma^a_jk and
    d_j Gamma^a_ak and its Christoffel symbols: the sums with more than one
    nonzero summand, each on C-contiguous (d, ...) operands."""
    term1 = np.einsum("ajk->jk", div)
    term2 = np.einsum("ajk->jk", grad)
    contracted = np.einsum("aab->b", gamma)
    term3 = np.einsum("b,bjk->jk", contracted, gamma)
    term4 = np.einsum("ajb,bak->jk", gamma, gamma)
    return term1 - term2 + term3 - term4


def _ricci(D: np.ndarray, ginv: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Ricci tensors, one per point, from the metric diagonals ``D`` (points,
    rows, d) on the corner stencil of steps ``h``, with ``ginv`` the inverse
    metrics at the centers.

    Of the derivative d_m Gamma^l_ij = (d_m g^{lc} T_ijc + g^{lc} d_m T_ijc) / 2
    only the two traces Ricci reads are formed, d_a Gamma^a_jk and
    d_j Gamma^a_ak, as (d, d, d) arrays indexed [a, j, k].  In each sum over c
    only c = a is nonzero, and of d_m T only the entries the traces read are
    formed, from the second differences of the diagonal.
    """
    dD, d2D = _differences(D, h, corners=True)   # d2D[p, m, k, a] = d^2_{mk} g_aa
    ix = _gathers(ginv.shape[-1])
    dg = _embed(dD)
    gamma, Tl = _christoffel(ginv, dg)
    # dginv[p, m, l, k] = d_m g^{lk}
    dginv = np.stack([-((gi @ dgi) @ gi) for gi, dgi in zip(ginv, dg)])
    d2 = np.concatenate([d2D.reshape(len(D), -1), np.zeros((len(D), 1))], axis=1)

    def dT(terms):
        return _take(d2, terms[0]) + _take(d2, terms[1]) - _take(d2, terms[2])

    gd = _take(ginv, ix.diag)
    div = 0.5 * ((0.0 + _take(dginv, ix.aaa) * Tl) + (0.0 + gd * dT(ix.div)))
    grad = 0.5 * ((0.0 + _take(dginv, ix.jaa) * _take(Tl, ix.aak)) + (0.0 + gd * dT(ix.grad)))
    ric = np.stack([_ricci_sum(*terms) for terms in zip(div, grad, gamma)])
    return 0.5 * (ric + ric.transpose(0, 2, 1))


def _step_vector(patch: MetricPatch, step) -> np.ndarray:
    h = np.broadcast_to(np.asarray(step, dtype=float), (patch.dim,)).copy()
    if np.any(h <= 0):
        raise ValueError("steps must be positive")
    return h


def numeric_curvature(patch: MetricPatch, points, step=DEFAULT_STEP):
    """Ricci, scalar, and minimal Ricci eigenvalue (against g) at a point, or
    at each point of an (n, dim) stack.

    ``step`` may be a scalar or a per-coordinate vector (use steps
    proportional to each coordinate's scale on anisotropic charts).  A point
    must be interior to the patch domain with margin >= 2*step.  One
    Richardson level combines steps ``step`` and ``step/2``.  One point
    returns its ``CurvatureReport`` or raises its error; a stack returns one
    outcome per point, the report or the error (see the module docstring).
    """
    P, one = _point_stack(points, patch.dim, "point")
    h = _step_vector(patch, step)
    offsets = _stencil(h, corners=True)
    outcomes, read, D = _read_metric(patch, P, h, np.concatenate([offsets, 0.5 * offsets]),
                                     "point")
    if not read.size:
        return _result(outcomes, one)
    g0 = [np.diag(D0) for D0 in D[:, 0]]
    ginv = np.stack([np.linalg.inv(g) for g in g0])
    n = len(offsets)  # rows of step h, then of step h/2
    ric = (4.0 * _ricci(D[:, n:], ginv, 0.5 * h) - _ricci(D[:, :n], ginv, h)) / 3.0
    for i, g, gi, r in zip(read, g0, ginv, ric):
        L = _cholesky(g, "metric")
        if isinstance(L, NonSPDMetricError):
            outcomes[i] = L
            continue
        eigs = _pencil_eigenvalues(r, L)
        outcomes[i] = CurvatureReport(point=P[i], ricci=r,
                                      scalar=float(np.einsum("ij,ij->", gi, r)),
                                      min_ricci_eigenvalue=float(eigs[0]))
    return _result(outcomes, one)


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
                                    base_points, step=DEFAULT_STEP):
    """Second fundamental form of a graph hypersurface at a point, or at each
    point of an (n, dim-1) stack.

    A base point gives the dim-1 non-axis coordinates; the axis coordinate
    is filled in from the graph.  The form is computed in the tangent basis
    T_i = e_i + (d height/d x_i) e_axis via II(X, Y) = g(nu, nabla_X Y) with
    ``nu`` the unit normal of the requested orientation.  ``step`` may be a
    scalar or a per-coordinate vector indexed like the patch coordinates.
    One base point returns its ``SecondFundamentalFormReport`` or raises its
    error; a stack returns one outcome per point, the report or the error
    (see the module docstring).
    """
    d = patch.dim
    a = hypersurface.axis
    others = [i for i in range(d) if i != a]
    B, one = _point_stack(base_points, d - 1, "base point")
    h = _step_vector(patch, step)
    hb = h[others]

    # Height values, gradients, and Hessians by central differences.
    xb = (B[:, np.newaxis] + _stencil(hb, corners=True)).reshape(-1, d - 1)
    W = np.asarray(hypersurface.height(xb), dtype=float).reshape(len(B), -1)
    grads, hessians = _differences(W, hb, corners=True)

    P = np.empty((len(B), d))
    P[:, others] = B
    P[:, a] = W[:, 0]
    outcomes, read, D = _read_metric(patch, P, h, _stencil(h, corners=False), "graph point")
    if not read.size:
        return _result(outcomes, one)
    g0 = [np.diag(D0) for D0 in D[:, 0]]
    ginv = np.stack([np.linalg.inv(g) for g in g0])
    # Christoffel symbols at the points (central differences of g).
    dD, _ = _differences(D, h, corners=False)
    gammas, _ = _christoffel(ginv, _embed(dD))

    for i, g, gi, gamma in zip(read, g0, ginv, gammas):
        grad = grads[i]
        # Tangent vectors T_i = e_{others[i]} + grad_i e_a.
        tangents = np.zeros((d - 1, d))
        tangents[np.arange(d - 1), others] = 1.0
        tangents[:, a] = grad

        # Unit normal from the conormal d(x_a - height): components delta_a - grad.
        conormal = np.zeros(d)
        conormal[a] = 1.0
        conormal[others] = -grad
        nu = gi @ conormal
        norm = float(np.sqrt(nu @ g @ nu))
        if norm < 1e-14:
            raise ValueError("degenerate normal direction")
        nu /= norm
        if np.sign(nu[a]) != np.sign(hypersurface.normal_sign):
            nu = -nu

        gnu = g @ nu
        # II_ij = Hess_ij * (g nu)_a + Gamma^m_{bc} T_i^b T_j^c (g nu)_m
        form = hessians[i] * gnu[a] + _normal_christoffel(gamma, tangents, gnu)
        form = 0.5 * (form + form.T)

        induced = tangents @ g @ tangents.T
        L = _cholesky(induced, "induced metric")
        outcomes[i] = L if isinstance(L, NonSPDMetricError) else SecondFundamentalFormReport(
            point=P[i], form=form, induced_metric=induced,
            principal_curvatures=_pencil_eigenvalues(form, L))
    return _result(outcomes, one)
