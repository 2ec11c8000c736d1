"""Finite-difference reference routes for the curvature oracle.

``plumbric.oracle`` reads exact 2-jets from its charts.  The routes here are
the finite-difference oracle it replaced, kept as the reference the tests
compare it against; they read only the chart's values (``metric_values``).

* ``numeric_curvature`` and ``numeric_second_fundamental_form`` are that
  oracle as it was: central differences on a stencil of 1 + 2d + 2d(d-1)
  rows with per-coordinate steps, one Richardson level (steps h and h/2) for
  Ricci, points within two steps of the domain's edge not evaluated, and the
  metric's diagonal contracted with one product per one-summand sum, so that
  on a diagonal chart it gives the dense route's doubles.  Its error is the
  Richardson truncation, O(h^4), plus the roundoff of second differences,
  O(eps / h^2).
* ``dense_curvature`` and ``dense_second_fundamental_form`` read full
  (rows, d, d) metric stacks: a chart may return full matrices, and a
  diagonal chart's diagonals are embedded in zero-filled matrices
  (``metric_stack``).  ``dense_curvature`` builds the whole derivative of the
  Christoffel symbols, the (d, d, d, d) tensor d_m Gamma^l_ij, with
  ``np.einsum`` and takes Ricci's two traces of it.

``normal_christoffel`` is the einsum form of ``oracle._normal_christoffel``'s
matrix products, so tests can swap it in and compare the two routes.  Test
modules import these; pytest puts this directory on ``sys.path``.
"""

import functools
from typing import NamedTuple

import numpy as np

from plumbric import oracle

DEFAULT_STEP = 1e-3
VALUE_ROWS = 64  # chart rows per call when only the values are read


def metric_values(patch, x):
    """The chart's metric at the points ``x``: its diagonals, shape (rows, d),
    or, for a dense test chart, its matrices.  A diagonal chart returns its
    2-jet, whose Hessians would hold rows * d^3 doubles on a stencil, so it
    is read VALUE_ROWS rows at a time and only the values are kept."""
    x = np.asarray(x, dtype=float)
    first = patch.g(x[:VALUE_ROWS])
    if not isinstance(first, tuple):
        return np.asarray(patch.g(x), dtype=float)
    return np.concatenate([np.asarray(first[0], dtype=float)]
                          + [np.asarray(patch.g(x[i:i + VALUE_ROWS])[0], dtype=float)
                             for i in range(VALUE_ROWS, len(x), VALUE_ROWS)])


def _read_metric(patch, points: np.ndarray, h: np.ndarray,
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
    outcomes = [oracle.OracleDomainError(f"{what} {x} within 2*step of the domain boundary")
                if out else None for x, out in zip(points, near)]
    live = np.flatnonzero(~near)
    if live.size == 0:
        return outcomes, live, None
    x = (points[live, np.newaxis] + offsets).reshape(-1, patch.dim)
    D = metric_values(patch, x)
    if D.shape != x.shape:
        raise oracle.MetricShapeError(f"metric diagonals must have shape {x.shape}, got {D.shape}")
    D = D.reshape(live.size, len(offsets), patch.dim)
    finite = np.isfinite(D).all(axis=(1, 2))
    positive = (D > 0.0).all(axis=(1, 2))
    for i, f, pos in zip(live, finite, positive):
        if not f:
            outcomes[i] = oracle.NonSPDMetricError("metric matrix is not finite on the stencil")
        elif not pos:
            outcomes[i] = oracle.NonSPDMetricError(
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


def _step_vector(patch, step) -> np.ndarray:
    h = np.broadcast_to(np.asarray(step, dtype=float), (patch.dim,)).copy()
    if np.any(h <= 0):
        raise ValueError("steps must be positive")
    return h


def numeric_curvature(patch, points, step=DEFAULT_STEP):
    """Ricci, scalar, and minimal Ricci eigenvalue (against g) at a point, or
    at each point of an (n, dim) stack.

    ``step`` may be a scalar or a per-coordinate vector (use steps
    proportional to each coordinate's scale on anisotropic charts).  A point
    must be interior to the patch domain with margin >= 2*step.  One
    Richardson level combines steps ``step`` and ``step/2``.  One point
    returns its ``CurvatureReport`` or raises its error; a stack returns one
    outcome per point, the report or the error (see the module docstring).
    """
    P, one = oracle._point_stack(points, patch.dim, "point")
    h = _step_vector(patch, step)
    offsets = _stencil(h, corners=True)
    outcomes, read, D = _read_metric(patch, P, h, np.concatenate([offsets, 0.5 * offsets]),
                                     "point")
    if not read.size:
        return oracle._result(outcomes, one)
    g0 = [np.diag(D0) for D0 in D[:, 0]]
    ginv = np.stack([np.linalg.inv(g) for g in g0])
    n = len(offsets)  # rows of step h, then of step h/2
    ric = (4.0 * _ricci(D[:, n:], ginv, 0.5 * h) - _ricci(D[:, :n], ginv, h)) / 3.0
    for i, g, gi, r in zip(read, g0, ginv, ric):
        L = oracle._cholesky(g, "metric")
        if isinstance(L, oracle.NonSPDMetricError):
            outcomes[i] = L
            continue
        eigs = oracle._pencil_eigenvalues(r, L)
        outcomes[i] = oracle.CurvatureReport(point=P[i], ricci=r,
                                      scalar=float(np.einsum("ij,ij->", gi, r)),
                                      min_ricci_eigenvalue=float(eigs[0]))
    return oracle._result(outcomes, one)


def numeric_second_fundamental_form(patch, hypersurface,
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
    B, one = oracle._point_stack(base_points, d - 1, "base point")
    h = _step_vector(patch, step)
    hb = h[others]

    # Height values, gradients, and Hessians by central differences.
    xb = (B[:, np.newaxis] + _stencil(hb, corners=True)).reshape(-1, d - 1)
    W = np.asarray(hypersurface.height(xb)[0], dtype=float).reshape(len(B), -1)
    grads, hessians = _differences(W, hb, corners=True)

    P = np.empty((len(B), d))
    P[:, others] = B
    P[:, a] = W[:, 0]
    outcomes, read, D = _read_metric(patch, P, h, _stencil(h, corners=False), "graph point")
    if not read.size:
        return oracle._result(outcomes, one)
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
        form = hessians[i] * gnu[a] + oracle._normal_christoffel(gamma, tangents, gnu)
        form = 0.5 * (form + form.T)

        induced = tangents @ g @ tangents.T
        L = oracle._cholesky(induced, "induced metric")
        outcomes[i] = L if isinstance(L, oracle.NonSPDMetricError) else (
            oracle.SecondFundamentalFormReport(
                point=P[i], form=form, induced_metric=induced,
                principal_curvatures=oracle._pencil_eigenvalues(form, L)))
    return oracle._result(outcomes, one)


def metric_stack(patch, x):
    """The chart's metric matrices at the points ``x``, shape (rows, d, d)."""
    G = metric_values(patch, x)
    if G.shape == x.shape:  # a diagonal chart
        G = np.where(np.eye(patch.dim, dtype=bool), G[..., np.newaxis], 0.0)
    return G


def _point_differences(values, h, corners):
    """The differences of one point's stencil values."""
    d1, d2 = _differences(values[np.newaxis], h, corners)
    return d1[0], d2[0]


def christoffel(ginv, dg):
    """gamma[l, i, j] = Gamma^l_ij and T[i, j, m] = d_i g_jm + d_j g_im - d_m g_ij."""
    T = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    return 0.5 * np.einsum("lm,ijm->lij", ginv, T), T


def christoffel_derivative(ginv, dg, T, dT):
    """dgamma[m, l, i, j] = d_m Gamma^l_ij, with dT[m, i, j, k] = d_m T[i, j, k]."""
    dginv = -np.einsum("la,mab,bk->mlk", ginv, dg, ginv)  # dginv[m, l, k] = d_m g^{lk}
    return 0.5 * (np.einsum("mlk,ijk->mlij", dginv, T)
                  + np.einsum("lk,mijk->mlij", ginv, dT))


def ricci_fixed_step(G, h):
    """Ricci tensor from the metric ``G`` on the corner stencil of steps ``h``."""
    dg, d2g = _point_differences(G, h, corners=True)   # d2g[m, k, a, b] = d^2_{mk} g_ab
    ginv = np.linalg.inv(G[0])
    gamma, T = christoffel(ginv, dg)
    dT = d2g + d2g.transpose(0, 2, 1, 3) - d2g.transpose(0, 2, 3, 1)
    dgamma = christoffel_derivative(ginv, dg, T, dT)

    term1 = np.einsum("aajk->jk", dgamma)
    term2 = np.einsum("jaak->jk", dgamma)
    contracted = np.einsum("aab->b", gamma)
    term3 = np.einsum("b,bjk->jk", contracted, gamma)
    term4 = np.einsum("ajb,bak->jk", gamma, gamma)
    ric = term1 - term2 + term3 - term4
    return 0.5 * (ric + ric.T)


def dense_curvature(patch, point, step=DEFAULT_STEP):
    """:func:`numeric_curvature` by the full-derivative route."""
    point = np.asarray(point, dtype=float)
    h = _step_vector(patch, step)
    offsets = _stencil(h, corners=True)
    G = metric_stack(patch, point + np.concatenate([offsets, 0.5 * offsets]))
    n = len(offsets)
    ric = (4.0 * ricci_fixed_step(G[n:], h / 2.0) - ricci_fixed_step(G[:n], h)) / 3.0
    g0 = G[0]
    scalar = float(np.einsum("ij,ij->", np.linalg.inv(g0), ric))
    eigs = oracle._pencil_eigenvalues(ric, oracle._cholesky(g0, "metric"))
    return oracle.CurvatureReport(point=point, ricci=ric, scalar=scalar,
                                  min_ricci_eigenvalue=float(eigs[0]))


def dense_second_fundamental_form(patch, hypersurface, base_point, step=DEFAULT_STEP):
    """:func:`numeric_second_fundamental_form` over the full metric."""
    d = patch.dim
    a = hypersurface.axis
    others = [i for i in range(d) if i != a]
    bp = np.asarray(base_point, dtype=float)
    h = _step_vector(patch, step)
    hb = h[others]
    W = np.asarray(hypersurface.height(bp + _stencil(hb, corners=True))[0], dtype=float)
    grad, hess = _point_differences(W, hb, corners=True)

    point = np.empty(d)
    point[others] = bp
    point[a] = W[0]
    G = metric_stack(patch, point + _stencil(h, corners=False))
    g0 = G[0]
    ginv = np.linalg.inv(g0)
    tangents = np.zeros((d - 1, d))
    tangents[np.arange(d - 1), others] = 1.0
    tangents[:, a] = grad
    conormal = np.zeros(d)
    conormal[a] = 1.0
    conormal[others] = -grad
    nu = ginv @ conormal
    nu /= float(np.sqrt(nu @ g0 @ nu))
    if np.sign(nu[a]) != np.sign(hypersurface.normal_sign):
        nu = -nu

    dg, _ = _point_differences(G, h, corners=False)
    gamma, _ = christoffel(ginv, dg)
    gnu = g0 @ nu
    form = hess * gnu[a] + oracle._normal_christoffel(gamma, tangents, gnu)
    form = 0.5 * (form + form.T)
    induced = tangents @ g0 @ tangents.T
    pcs = oracle._pencil_eigenvalues(form, oracle._cholesky(induced, "induced metric"))
    return oracle.SecondFundamentalFormReport(point=point, form=form, induced_metric=induced,
                                              principal_curvatures=pcs)


def normal_christoffel(gamma, tangents, gnu):
    """Gamma^m_bc T_i^b T_j^c (g nu)_m."""
    return np.einsum("mbc,ib,jc,m->ij", gamma, tangents, tangents, gnu)
