"""The general GF(2) symplectic-basis route to the Arf invariant.

It shares nothing with the leaf peeling of ``plumbing.arf_invariant`` beyond
the error class, so tests compare the two. Test modules import these;
pytest puts this directory on ``sys.path``.
"""

from plumbric.plumbing import NonUnimodularFormError, intersection_matrix


def _gf2_symplectic_basis(B):
    """Symplectic basis of a nondegenerate alternating form over GF(2).

    Returns pairs (a_i, b_i) of basis vectors (as int bitmasks over the
    standard basis).  Raises :class:`NonUnimodularFormError` if degenerate.
    """
    n = len(B)

    def pairing(x, y):
        total = 0
        xi = x
        i = 0
        while xi:
            if xi & 1:
                yj = y
                j = 0
                while yj:
                    if yj & 1:
                        total ^= B[i][j] & 1
                    yj >>= 1
                    j += 1
            xi >>= 1
            i += 1
        return total

    basis = [1 << i for i in range(n)]
    pairs = []
    while basis:
        a = basis.pop(0)
        partner = next((y for y in basis if pairing(a, y) == 1), None)
        if partner is None:
            raise NonUnimodularFormError("mod-2 form is degenerate on the remaining space")
        basis.remove(partner)
        # project the rest onto the complement of the hyperbolic pair
        basis = [y ^ (pairing(y, partner) * a) ^ (pairing(y, a) * partner)
                 for y in basis]
        pairs.append((a, partner))
    return pairs, pairing


def arf_of_refinement(B, q_values) -> int:
    """Arf invariant of the quadratic refinement q over the alternating form B.

    ``q_values`` lists q(e_i) on the standard basis; q extends by
    q(x + y) = q(x) + q(y) + B(x, y).  The value is the majority invariant
    sum q(a_i) q(b_i) over a symplectic basis, and is basis independent.
    """
    pairs, pairing = _gf2_symplectic_basis(B)

    def q(x):
        total = 0
        idxs = [i for i in range(len(q_values)) if (x >> i) & 1]
        for i in idxs:
            total ^= q_values[i] & 1
        for ii in range(len(idxs)):
            for jj in range(ii + 1, len(idxs)):
                total ^= B[idxs[ii]][idxs[jj]] & 1
        return total

    return sum(q(a) * q(b) for a, b in pairs) % 2


def reference_arf(tree) -> int:
    """The Arf invariant of a skew plumbing tree through the symplectic basis
    of its full mod-2 intersection matrix."""
    M, _sym = intersection_matrix(tree)
    B = [[abs(x) % 2 for x in row] for row in M]
    return arf_of_refinement(B, [v.framing_q for v in tree.vertices])
