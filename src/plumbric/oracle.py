"""Generic curvature oracle for diagonal coordinate-patch metrics, on exact 2-jets.

A chart is a callable ``points -> (D, dD, d2D)``: at each of n points, the
metric's diagonal D[p, a] = g_aa, its gradient dD[p, k, a] = d_k g_aa and its
Hessian d2D[p, m, k, a] = d_m d_k g_aa in the chart's coordinates, shapes
(n, dim), (n, dim, dim) and (n, dim, dim, dim).  Every chart in ``charts`` and
``meancurv`` is diagonal and writes these derivatives by hand through the
chain rule, so the oracle takes no finite-difference step; a graph's height
returns its 2-jet the same way (``GraphHypersurface``).

Both oracles take one point, shape (dim,), or a stack of n points, shape
(n, dim); one point runs as a stack of one.  A call reads the chart once, on
the points inside its closed coordinate box.  Each point has its own outcome:
its report, or the ``OracleDomainError`` (outside the box) or
``NonSPDMetricError`` (jets not finite, or a metric not positive definite)
that point alone meets.  Those errors are built, not raised, so a stored one
carries no traceback and keeps no frame alive.  One point returns its report
or raises its error; a stack returns the list of outcomes in point order.
Any other error propagates from the call: a chart that does not return three
arrays of those shapes raises ``MetricShapeError``.  A stack gives each point
the bits of its one-point call when the chart computes each row from that row
alone, element-wise, as every chart in ``charts`` and ``meancurv`` does.

The metric is diagonal, so each Christoffel symbol is one product of the
gradient, and the two derivative traces Ricci reads, d_a Gamma^a_jk and
d_j Gamma^a_ak, are formed directly from the gradient and Hessian (see
``_ricci``): no array of d^4 entries is formed.  Everything after the chart
call runs once per point.

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

from dataclasses import dataclass
from typing import Callable

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


class OracleDomainError(ValueError):
    """Evaluation point outside the coordinate box."""


class NonSPDMetricError(ValueError):
    """Jets that are not finite, or a metric or induced metric that is not
    positive definite, where the oracle reads them."""


class MetricShapeError(ValueError):
    """A chart returned something other than one metric 2-jet per point."""


@dataclass(frozen=True)
class MetricPatch:
    """A coordinate-box metric, diagonal in its coordinates.

    ``g`` takes an (n, dim) stack of points in the closed box ``domain`` and
    returns the 2-jet of the metric's diagonal there: (D, dD, d2D) of shapes
    (n, dim), (n, dim, dim) and (n, dim, dim, dim), dD[p, k, a] = d_k g_aa and
    d2D[p, m, k, a] = d_m d_k g_aa.
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


def _read_metric(patch: MetricPatch, points: np.ndarray, what: str) -> tuple:
    """The chart's metric 2-jets at the points inside its domain.

    Returns (outcomes, read, jets): one outcome per point, None where it was
    read and otherwise its ``OracleDomainError`` or ``NonSPDMetricError``;
    the indices of the points read; and their (D, dD, d2D), from one chart
    call on every point inside the closed box.  A ``MetricShapeError`` unless
    the chart returned one 2-jet per point.
    """
    lo, hi = np.asarray(patch.domain, dtype=float).T
    inside = ((lo <= points) & (points <= hi)).all(axis=1)
    outcomes = [None if ok else OracleDomainError(f"{what} {x} outside the chart's domain")
                for x, ok in zip(points, inside)]
    live = np.flatnonzero(inside)
    if live.size == 0:
        return outcomes, live, None
    jets = patch.g(points[live])
    n, d = live.size, patch.dim
    shapes = ((n, d), (n, d, d), (n, d, d, d))
    got = tuple(np.shape(j) for j in jets) if isinstance(jets, tuple) else np.shape(jets)
    if got != shapes:
        raise MetricShapeError(f"metric jets must have shapes {shapes}, got {got}")
    jets = tuple(np.asarray(j, dtype=float) for j in jets)
    finite = np.logical_and.reduce([np.isfinite(j).reshape(n, -1).all(axis=1) for j in jets])
    positive = (jets[0] > 0.0).all(axis=1)
    for i, f, pos in zip(live, finite, positive):
        if not f:
            outcomes[i] = NonSPDMetricError(
                "metric matrix is not finite at the point: value, gradient or Hessian")
        elif not pos:
            outcomes[i] = NonSPDMetricError("metric matrix is not positive definite at the point")
    ok = finite & positive
    return outcomes, live[ok], tuple(j[ok] for j in jets)


def _christoffel(D: np.ndarray, dD: np.ndarray) -> tuple:
    """Christoffel symbols gamma[l, i, j] = Gamma^l_ij of the metric diag(D)
    with gradient dD[k, a] = d_k g_aa, and T[i, j, l] = d_i g_jl + d_j g_il -
    d_l g_ij, so that Gamma^l_ij = T[i, j, l] / (2 g_ll)."""
    dg = dD[:, :, np.newaxis] * np.eye(D.size)   # dg[k, a, b] = d_k g_ab
    T = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    return T.transpose(2, 0, 1) / (2.0 * D[:, np.newaxis, np.newaxis]), T


def _ricci(D: np.ndarray, dD: np.ndarray, d2D: np.ndarray) -> np.ndarray:
    """Ricci tensor R_jk = d_a Gamma^a_jk - d_j Gamma^a_ak + Gamma^a_ab Gamma^b_jk
    - Gamma^a_jb Gamma^b_ak of the metric diag(D), from its gradient
    dD[k, a] = d_k g_aa and Hessian d2D[m, k, a] = d_m d_k g_aa.

    The two derivative terms, with w_a = 1/g_aa and d_m w_a = -w_a^2 d_m g_aa:

        d_a Gamma^a_jk = (w_a d_a T[j, k, a] - w_a^2 d_a g_aa T[j, k, a]) / 2,
        d_a T[j, k, a] = delta_ka d_a d_j g_aa + delta_ja d_a d_k g_aa
                         - delta_jk d_a d_a g_jj,
        d_j Gamma^a_ak = (w_a d_j d_k g_aa - w_a^2 d_j g_aa d_k g_aa) / 2,

    summed over a, since Gamma^a_ak = w_a d_k g_aa / 2.  Every array has d^3
    entries at most.
    """
    w, eye, a = 1.0 / D, np.eye(D.size), np.arange(D.size)
    gamma, T = _christoffel(D, dD)
    cross, pure = d2D[a, :, a], d2D[a, a, :]   # [a, j]: d_a d_j g_aa and d_a d_a g_jj
    dT = cross[:, :, None] * eye[:, None, :] + cross[:, None, :] * eye[:, :, None] \
        - pure[:, :, None] * eye
    div = 0.5 * (np.einsum("a,ajk->jk", w, dT) - np.einsum("a,jka->jk", w * w * dD[a, a], T))
    grad = 0.5 * (np.einsum("a,jka->jk", w, d2D) - np.einsum("a,ja,ka->jk", w * w, dD, dD))
    ric = (div - grad + np.einsum("b,bjk->jk", np.einsum("aab->b", gamma), gamma)
           - np.einsum("ajb,bak->jk", gamma, gamma))
    return 0.5 * (ric + ric.T)


def numeric_curvature(patch: MetricPatch, points):
    """Ricci, scalar, and minimal Ricci eigenvalue (against g) at a point, or
    at each point of an (n, dim) stack.

    A point must lie in the patch's closed domain.  One point returns its
    ``CurvatureReport`` or raises its error; a stack returns one outcome per
    point, the report or the error (see the module docstring).
    """
    P, one = _point_stack(points, patch.dim, "point")
    outcomes, read, jets = _read_metric(patch, P, "point")
    if not read.size:
        return _result(outcomes, one)
    for i, D, dD, d2D in zip(read, *jets):
        r = _ricci(D, dD, d2D)
        eigs = _pencil_eigenvalues(r, np.diag(np.sqrt(D)))
        outcomes[i] = CurvatureReport(point=P[i], ricci=r, scalar=float(np.sum(np.diag(r) / D)),
                                      min_ricci_eigenvalue=float(eigs[0]))
    return _result(outcomes, one)


@dataclass(frozen=True)
class GraphHypersurface:
    """A hypersurface given as a graph x_axis = height(other coordinates).

    ``height`` takes an (n, dim-1) stack of the non-axis coordinates (in their
    original order) and returns the axis coordinate's 2-jet there: values,
    gradients and Hessians, shapes (n,), (n, dim-1) and (n, dim-1, dim-1).
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
                                    base_points):
    """Second fundamental form of a graph hypersurface at a point, or at each
    point of an (n, dim-1) stack.

    A base point gives the dim-1 non-axis coordinates; the axis coordinate
    is filled in from the graph.  The form is computed in the tangent basis
    T_i = e_i + (d height/d x_i) e_axis via II(X, Y) = g(nu, nabla_X Y) with
    ``nu`` the unit normal of the requested orientation.  A point whose
    height jets are not finite is that point's ``NonSPDMetricError``.  One
    base point returns its ``SecondFundamentalFormReport`` or raises its
    error; a stack returns one outcome per point, the report or the error
    (see the module docstring).
    """
    d = patch.dim
    a = hypersurface.axis
    others = [i for i in range(d) if i != a]
    B, one = _point_stack(base_points, d - 1, "base point")
    W, grads, hessians = (np.asarray(v, dtype=float) for v in hypersurface.height(B))
    P = np.empty((len(B), d))
    P[:, others] = B
    P[:, a] = W
    outcomes, read, jets = _read_metric(patch, P, "graph point")
    if not read.size:
        return _result(outcomes, one)
    for i, D, dD, _ in zip(read, *jets):
        grad = grads[i]
        if not (np.isfinite(grad).all() and np.isfinite(hessians[i]).all()):
            outcomes[i] = NonSPDMetricError("graph height jets are not finite at the point")
            continue
        # Tangent vectors T_i = e_{others[i]} + grad_i e_a.
        tangents = np.zeros((d - 1, d))
        tangents[np.arange(d - 1), others] = 1.0
        tangents[:, a] = grad

        # Unit normal from the conormal d(x_a - height): components delta_a - grad.
        conormal = np.zeros(d)
        conormal[a] = 1.0
        conormal[others] = -grad
        g = np.diag(D)
        nu = conormal / D
        norm = float(np.sqrt(nu @ g @ nu))
        if norm < 1e-14:
            raise ValueError("degenerate normal direction")
        nu /= norm
        if np.sign(nu[a]) != np.sign(hypersurface.normal_sign):
            nu = -nu

        gnu = g @ nu
        # II_ij = Hess_ij * (g nu)_a + Gamma^m_{bc} T_i^b T_j^c (g nu)_m
        gamma, _ = _christoffel(D, dD)
        form = hessians[i] * gnu[a] + _normal_christoffel(gamma, tangents, gnu)
        form = 0.5 * (form + form.T)

        induced = tangents @ g @ tangents.T
        L = _cholesky(induced, "induced metric")
        outcomes[i] = L if isinstance(L, NonSPDMetricError) else SecondFundamentalFormReport(
            point=P[i], form=form, induced_metric=induced,
            principal_curvatures=_pencil_eigenvalues(form, L))
    return _result(outcomes, one)
