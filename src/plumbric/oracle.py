"""Generic finite-difference curvature oracle for coordinate-patch metrics.

Given a metric as a callable ``point -> symmetric matrix`` on a coordinate
box, Christoffel symbols are assembled from central differences of the metric,
Ricci from analytic contractions of those, and one Richardson extrapolation
level (steps h and h/2) removes the leading O(h^2) truncation error.  Ricci
and the second fundamental form of a graph take every difference on one
stencil (``_stencil`` / ``_differences``) and share the Christoffel assembly.
Each evaluates the metric once, on one stack of stencil rows whose first row
is the point itself; Ricci's stack holds the stencils of both steps.

Of the derivative of the Christoffel symbols Ricci reads only two traces,
d_a Gamma^a_jk and d_j Gamma^a_ak, and forms only those: each is an einsum to
a d^3 array with one row per summand a, summed over a in order.  The Ricci
path has no contraction of cost O(d^5).  On a diagonal metric, as every chart
in ``charts`` and ``meancurv`` is, each summand is a single nonzero product,
so its value does not depend on the contraction order: the traces are the
same doubles as those of the full derivative tensor.

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
]

DEFAULT_STEP = 1e-3


class OracleDomainError(ValueError):
    """Evaluation point too close to the coordinate-box boundary."""


class NonSPDMetricError(ValueError):
    """Metric matrix not symmetric positive definite at the point."""


@dataclass(frozen=True)
class MetricPatch:
    """A coordinate-box metric.

    ``g`` must accept an array of points of shape (..., dim) and return the
    metric matrices with shape (..., dim, dim).
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


def _metric_factor(g0: np.ndarray) -> np.ndarray:
    """Cholesky factor of the metric ``g0`` at the point, which must be symmetric."""
    if not np.allclose(g0, g0.T, atol=1e-10 * (1.0 + np.abs(g0).max())):
        raise NonSPDMetricError("metric matrix is not symmetric at the point")
    return _cholesky(g0, "metric")


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


def _christoffel(ginv: np.ndarray, dg: np.ndarray) -> tuple:
    """Christoffel symbols gamma[l, i, j] = Gamma^l_ij from dg[k, a, b] = d_k g_ab.

    Also returns T[i, j, m] = d_i g_jm + d_j g_im - d_m g_ij, so that
    gamma = g^{lm} T_ijm / 2.
    """
    T = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    return 0.5 * np.einsum("lm,ijm->lij", ginv, T), T


def _ricci(G: np.ndarray, ginv: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Ricci tensor from the metric ``G`` on the corner stencil of steps ``h``,
    with ``ginv`` the inverse metric at its center.

    Of the derivative d_m Gamma^l_ij = (d_m g^{lc} T_ijc + g^{lc} d_m T_ijc) / 2
    only the two traces Ricci reads are formed, d_a Gamma^a_jk and
    d_j Gamma^a_ak, each from a d^3 array with one row per summand a.
    """
    dg, d2g = _differences(G, h, corners=True)   # d2g[m, k, a, b] = d^2_{mk} g_ab
    gamma, T = _christoffel(ginv, dg)
    dT = d2g + d2g.transpose(0, 2, 1, 3) - d2g.transpose(0, 2, 3, 1)  # d_m T[i, j, k]
    dginv = -((ginv @ dg) @ ginv)  # dginv[m, l, k] = d_m g^{lk}
    div = 0.5 * (np.einsum("aac,jkc->ajk", dginv, T) + np.einsum("ac,ajkc->ajk", ginv, dT))
    grad = 0.5 * (np.einsum("jac,akc->ajk", dginv, T) + np.einsum("ac,jakc->ajk", ginv, dT))

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
    G = patch.g(point + np.concatenate([offsets, 0.5 * offsets]))  # steps h, then h/2
    g0 = G[0]
    L = _metric_factor(g0)
    ginv = np.linalg.inv(g0)

    n = len(offsets)
    ric = (4.0 * _ricci(G[n:], ginv, 0.5 * h) - _ricci(G[:n], ginv, h)) / 3.0
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
    G = patch.g(point + _stencil(h, corners=False))
    g0 = G[0]
    _metric_factor(g0)  # a named error if g0 is not symmetric positive definite
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
    dg, _ = _differences(G, h, corners=False)
    gamma, _ = _christoffel(ginv, dg)

    gnu = g0 @ nu
    # II_ij = Hess_ij * (g nu)_a + Gamma^m_{bc} T_i^b T_j^c (g nu)_m
    form = hess * gnu[a] + _normal_christoffel(gamma, tangents, gnu)
    form = 0.5 * (form + form.T)

    induced = tangents @ g0 @ tangents.T
    pcs = _pencil_eigenvalues(form, _cholesky(induced, "induced metric"))
    return SecondFundamentalFormReport(point=point, form=form, induced_metric=induced,
                                       principal_curvatures=pcs)
