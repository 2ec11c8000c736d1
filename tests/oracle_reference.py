"""The einsum route to the oracle's large contractions.

``oracle._christoffel_derivative`` and ``oracle._normal_christoffel`` contract
with matrix products; these are the same contractions as plain ``np.einsum``
calls, so tests can swap them in and compare the two routes.  Test modules
import these; pytest puts this directory on ``sys.path``.
"""

import numpy as np


def christoffel_derivative(ginv, dg, T, dT):
    """dgamma[m, l, i, j] = d_m Gamma^l_ij, with dT[m, i, j, k] = d_m T[i, j, k]."""
    dginv = -np.einsum("la,mab,bk->mlk", ginv, dg, ginv)  # dginv[m, l, k] = d_m g^{lk}
    return 0.5 * (np.einsum("mlk,ijk->mlij", dginv, T)
                  + np.einsum("lk,mijk->mlij", ginv, dT))


def normal_christoffel(gamma, tangents, gnu):
    """Gamma^m_bc T_i^b T_j^c (g nu)_m."""
    return np.einsum("mbc,ib,jc,m->ij", gamma, tangents, tangents, gnu)
