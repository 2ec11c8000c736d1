"""Reference routes for the oracle's contractions, on dense metrics.

``oracle`` reads a chart's metric diagonal and forms each contraction that
has one nonzero summand on a diagonal metric as that one product.  The
routes here read full (rows, d, d) metric stacks: a chart may return full
matrices, and a diagonal chart's diagonals are embedded in zero-filled
matrices (``metric_stack``).  ``numeric_curvature`` builds the whole
derivative of the Christoffel symbols, the (d, d, d, d) tensor
d_m Gamma^l_ij, with ``np.einsum`` and takes Ricci's two traces of it;
``numeric_second_fundamental_form`` is the oracle's graph route with every
contraction over the full metric.  Both read the metric from the same stack
of stencil rows as the oracle, so on a diagonal chart they give the oracle's
doubles.  ``normal_christoffel`` is the einsum form of
``oracle._normal_christoffel``'s matrix products, so tests can swap it in and
compare the two routes.  Test modules import these; pytest puts this
directory on ``sys.path``.
"""

import numpy as np

from plumbric import oracle


def metric_stack(patch, x):
    """The chart's metric matrices at the points ``x``, shape (rows, d, d)."""
    G = patch.g(x)
    if G.shape == x.shape:  # a diagonal chart
        G = np.where(np.eye(patch.dim, dtype=bool), G[..., np.newaxis], 0.0)
    return G


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
    dg, d2g = oracle._differences(G, h, corners=True)   # d2g[m, k, a, b] = d^2_{mk} g_ab
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


def numeric_curvature(patch, point, step=oracle.DEFAULT_STEP):
    """``oracle.numeric_curvature`` by the full-derivative route."""
    point = np.asarray(point, dtype=float)
    h = oracle._step_vector(patch, step)
    offsets = oracle._stencil(h, corners=True)
    G = metric_stack(patch, point + np.concatenate([offsets, 0.5 * offsets]))
    n = len(offsets)
    ric = (4.0 * ricci_fixed_step(G[n:], h / 2.0) - ricci_fixed_step(G[:n], h)) / 3.0
    g0 = G[0]
    scalar = float(np.einsum("ij,ij->", np.linalg.inv(g0), ric))
    eigs = oracle._pencil_eigenvalues(ric, oracle._cholesky(g0, "metric"))
    return oracle.CurvatureReport(point=point, ricci=ric, scalar=scalar,
                                  min_ricci_eigenvalue=float(eigs[0]))


def numeric_second_fundamental_form(patch, hypersurface, base_point, step=oracle.DEFAULT_STEP):
    """``oracle.numeric_second_fundamental_form`` over the full metric."""
    d = patch.dim
    a = hypersurface.axis
    others = [i for i in range(d) if i != a]
    bp = np.asarray(base_point, dtype=float)
    h = oracle._step_vector(patch, step)
    hb = h[others]
    W = np.asarray(hypersurface.height(bp + oracle._stencil(hb, corners=True)), dtype=float)
    grad, hess = oracle._differences(W, hb, corners=True)

    point = np.empty(d)
    point[others] = bp
    point[a] = W[0]
    G = metric_stack(patch, point + oracle._stencil(h, corners=False))
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

    dg, _ = oracle._differences(G, h, corners=False)
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
