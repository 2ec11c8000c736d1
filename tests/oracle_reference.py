"""Reference routes for the oracle's contractions.

``numeric_curvature`` builds the whole derivative of the Christoffel symbols,
the (d, d, d, d) tensor d_m Gamma^l_ij, with ``np.einsum`` and takes Ricci's
two traces of it; ``oracle.numeric_curvature`` forms only the two traces.
Both read the metric from the same stack of stencil rows, so that a chart
whose ``g`` rounds a row by its place in the stack (one with a BLAS
matrix-vector product, such as the tests' warped charts) moves no bits
between them: on a diagonal chart the two give the same doubles.  ``normal_christoffel`` is the einsum form of
``oracle._normal_christoffel``'s matrix products, so tests can swap it in and
compare the two routes.  Test modules import these; pytest puts this directory
on ``sys.path``.
"""

import numpy as np

from plumbric import oracle


def christoffel_derivative(ginv, dg, T, dT):
    """dgamma[m, l, i, j] = d_m Gamma^l_ij, with dT[m, i, j, k] = d_m T[i, j, k]."""
    dginv = -np.einsum("la,mab,bk->mlk", ginv, dg, ginv)  # dginv[m, l, k] = d_m g^{lk}
    return 0.5 * (np.einsum("mlk,ijk->mlij", dginv, T)
                  + np.einsum("lk,mijk->mlij", ginv, dT))


def ricci_fixed_step(G, h):
    """Ricci tensor from the metric ``G`` on the corner stencil of steps ``h``."""
    dg, d2g = oracle._differences(G, h, corners=True)   # d2g[m, k, a, b] = d^2_{mk} g_ab
    ginv = np.linalg.inv(G[0])
    gamma, T = oracle._christoffel(ginv, dg)
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
    G = patch.g(point + np.concatenate([offsets, 0.5 * offsets]))
    n = len(offsets)
    ric = (4.0 * ricci_fixed_step(G[n:], h / 2.0) - ricci_fixed_step(G[:n], h)) / 3.0
    g0 = G[0]
    scalar = float(np.einsum("ij,ij->", np.linalg.inv(g0), ric))
    eigs = oracle._pencil_eigenvalues(ric, oracle._cholesky(g0, "metric"))
    return oracle.CurvatureReport(point=point, ricci=ric, scalar=scalar,
                                  min_ricci_eigenvalue=float(eigs[0]))


def normal_christoffel(gamma, tangents, gnu):
    """Gamma^m_bc T_i^b T_j^c (g nu)_m."""
    return np.einsum("mbc,ib,jc,m->ij", gamma, tangents, tangents, gnu)
