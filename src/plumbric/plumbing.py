"""Combinatorial plumbing trees and their exact topological ledgers.

Exact integer arithmetic throughout: the determinant of the intersection form
by one O(m) recursion over the tree (no m x m matrix is built), the Arf
invariant by peeling leaf pairs off the tree in O(m), boundary clutching words,
and fixed-point ledgers of pairwise-distinct end invariants, each a rational
with a power-of-two denominator kept as an integer pair in lowest terms.
``Fraction`` values are built only when a caller asks for them
(``eta_local_contribution``, ``EtaLedgerResult.etas``), so no command imports
``fractions``.  The dense ``intersection_matrix`` and its ``bareiss_det`` are
the reference the tree recursion is tested against; no command runs them.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

__all__ = [
    "PlumbingVertex",
    "PlumbingTree",
    "tangent_chain",
    "form_symmetry",
    "intersection_matrix",
    "bareiss_det",
    "tree_det",
    "boundary_sphere_test",
    "arf_invariant",
    "clutching_word",
    "eta_local_contribution",
    "EtaLedger",
    "EtaLedgerResult",
    "eta_ledger",
    "fixed_point_count",
]


class TreeStructureError(ValueError):
    """The vertex/edge data does not describe a valid plumbing tree."""


# The type of each vertex key of a tree document (``type(value) is kind``, so
# that a bool is no integer), and how an error names it.
_VERTEX_TYPES = {"base_dim": int, "rank": int, "euler": int, "framing_q": int,
                 "char_label": str, "trivial": bool}
_TYPE_NAMES = {int: "an integer", str: "a string", bool: "true or false"}
_vertex_values = operator.itemgetter(*_VERTEX_TYPES)  # in PlumbingVertex's field order


@dataclass(frozen=True)
class PlumbingVertex:
    """One disk bundle in the plumbing.

    ``base_dim`` is the dimension of the base sphere, ``rank`` the fiber
    rank; ``euler`` the Euler number of the bundle; ``framing_q`` the mod-2
    framing value used by the quadratic refinement in the middle-odd case
    (1 for tangent bundles of odd spheres); ``char_label`` an opaque name
    for the clutching map with ``trivial`` marking product bundles.
    """

    base_dim: int
    rank: int
    euler: int
    framing_q: int = 0
    char_label: str = ""
    trivial: bool = False

    def __post_init__(self):
        if self.base_dim < 1 or self.rank < 1:
            raise TreeStructureError("base dimension and rank must be positive")
        if self.framing_q not in (0, 1):
            raise TreeStructureError(f"framing value must be 0 or 1, got {self.framing_q}")


@dataclass(frozen=True)
class PlumbingTree:
    """Plumbing of disk bundles along a tree.

    ``edges`` are (i, j, sign) with sign +-1.  In equivariant mode the
    underlying graph must be a path (an order-two symmetry acting on each
    bundle with isolated fixed points forces a straight line).
    """

    vertices: tuple
    edges: tuple
    equivariant: bool = False

    def __post_init__(self):
        n = len(self.vertices)
        if n == 0:
            raise TreeStructureError("tree needs at least one vertex")
        seen = set()
        adj = [[] for _ in range(n)]
        for (i, j, s) in self.edges:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise TreeStructureError(f"bad edge ({i}, {j})")
            if s != 1 and s != -1:
                raise TreeStructureError(f"edge sign must be +-1, got {s}")
            key = i * n + j if i < j else j * n + i  # the pair (min, max), as one int
            if key in seen:
                raise TreeStructureError(f"duplicate edge between {i} and {j}")
            seen.add(key)
            adj[i].append(j)
            adj[j].append(i)
        if len(self.edges) != n - 1:
            raise TreeStructureError(
                f"a tree on {n} vertices needs {n - 1} edges, got {len(self.edges)}")
        # connectivity
        stack, visited = [0], [False] * n
        visited[0] = True
        while stack:
            for w in adj[stack.pop()]:
                if not visited[w]:
                    visited[w] = True
                    stack.append(w)
        if not all(visited):
            raise TreeStructureError("plumbing graph is not connected")
        # dimensions must alternate across each plumbing point
        verts = self.vertices
        for (i, j, _s) in self.edges:
            vi, vj = verts[i], verts[j]
            if vi.base_dim != vj.rank or vi.rank != vj.base_dim:
                raise TreeStructureError(
                    f"edge ({i}, {j}): base/fiber dimensions do not cross-match")
        if self.equivariant and any(len(ns) > 2 for ns in adj):
            raise TreeStructureError(
                "equivariant plumbing requires a path (straight-line) graph")
        object.__setattr__(self, "_adj", dict(enumerate(map(tuple, adj))))

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def total_dim(self) -> int:
        v = self.vertices[0]
        return v.base_dim + v.rank

    def path_order(self) -> list:
        """Vertex order along the path; raises if the tree is not a path."""
        adj = self._adj
        degs = {v: len(adj[v]) for v in adj}
        if self.n == 1:
            return [0]
        if any(d > 2 for d in degs.values()):
            raise TreeStructureError("plumbing graph is not a path")
        start = min(v for v, d in degs.items() if d == 1)
        order = [start]
        prev = None
        while len(order) < self.n:
            nxt = [w for w in adj[order[-1]] if w != prev]
            prev = order[-1]
            order.append(nxt[0])
        return order

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "schema": "plumbric-tree/1",
            "equivariant": self.equivariant,
            "vertices": [{
                "base_dim": v.base_dim, "rank": v.rank, "euler": v.euler,
                "framing_q": v.framing_q, "char_label": v.char_label,
                "trivial": v.trivial} for v in self.vertices],
            "edges": [list(e) for e in self.edges],
        }, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "PlumbingTree":
        """The tree of a ``to_json`` document; a document of another shape,
        or with a value of another type than :data:`_VERTEX_TYPES` names (an
        integer is never a bool), raises a ``TreeStructureError`` naming what
        is wrong.  Only the keys the document has are passed on, so a missing
        optional key takes the dataclass default."""
        doc = json.loads(text)
        if not (isinstance(doc, dict) and isinstance(doc.get("vertices"), list)
                and isinstance(doc.get("edges"), list)):
            raise TreeStructureError(
                "a plumbing tree document is a JSON object with lists 'vertices' and 'edges'")
        kinds = tuple(_VERTEX_TYPES.values())
        args = []  # each vertex's field values, or the keyword arguments it has
        for i, v in enumerate(doc["vertices"]):
            # A vertex with the six keys, each of its type (as to_json writes
            # them), passes on one comparison; any other is checked key by key.
            if type(v) is dict and v.keys() == _VERTEX_TYPES.keys():
                values = _vertex_values(v)
                if tuple(map(type, values)) == kinds:
                    args.append(values)
                    continue
            if not (isinstance(v, dict) and {"base_dim", "rank", "euler"} <= v.keys()):
                raise TreeStructureError(
                    f"vertex {i} must be an object with 'base_dim', 'rank' and 'euler'")
            for key, kind in _VERTEX_TYPES.items():
                if key in v and type(v[key]) is not kind:
                    raise TreeStructureError(
                        f"vertex {i}'s {key!r} must be {_TYPE_NAMES[kind]}, got {v[key]!r}")
            args.append({key: v[key] for key in _VERTEX_TYPES if key in v})
        for k, e in enumerate(doc["edges"]):
            if not (isinstance(e, list) and len(e) == 3
                    and type(e[0]) is int and type(e[1]) is int and type(e[2]) is int):
                raise TreeStructureError(
                    f"edge {k} must be a list [i, j, sign] of integers, got {e!r}")
        if "equivariant" in doc and type(doc["equivariant"]) is not bool:
            raise TreeStructureError(
                f"'equivariant' must be true or false, got {doc['equivariant']!r}")
        verts = tuple(PlumbingVertex(**a) if type(a) is dict else PlumbingVertex(*a)
                      for a in args)
        extra = {"equivariant": doc["equivariant"]} if "equivariant" in doc else {}
        return cls(vertices=verts, edges=tuple(map(tuple, doc["edges"])), **extra)


def tangent_chain(length: int, dim: int, equivariant: bool = False) -> PlumbingTree:
    """Straight-line plumbing of ``length`` copies of the odd-sphere tangent
    disk bundle (Euler number 0, framing value 1)."""
    if dim % 2 == 0:
        raise TreeStructureError("tangent chains use odd-dimensional spheres")
    verts = tuple(PlumbingVertex(base_dim=dim, rank=dim, euler=0, framing_q=1,
                                 char_label=f"tau_{i + 1}") for i in range(length))
    edges = tuple((i, i + 1, 1) for i in range(length - 1))
    return PlumbingTree(vertices=verts, edges=edges, equivariant=equivariant)


# ---------------------------------------------------------------------------
# Intersection form
# ---------------------------------------------------------------------------


def form_symmetry(tree: PlumbingTree) -> str:
    """Symmetry type of the intersection form: "symmetric" when the middle
    dimension (p+q)/2 is even, "skew" when it is odd.  Requires p+q even."""
    if tree.total_dim % 2 != 0:
        raise TreeStructureError(
            f"intersection form needs even total dimension, got {tree.total_dim}")
    return "skew" if (tree.total_dim // 2) % 2 == 1 else "symmetric"


def intersection_matrix(tree: PlumbingTree):
    """Integer intersection matrix of the plumbing and its symmetry type:
    Euler numbers on the diagonal, edge signs off it (negated below the
    diagonal in the skew case)."""
    sym = form_symmetry(tree)
    n = tree.n
    M = [[0] * n for _ in range(n)]
    for k, v in enumerate(tree.vertices):
        M[k][k] = v.euler
    for (i, j, s) in tree.edges:
        M[i][j] = s
        M[j][i] = -s if sym == "skew" else s
    return M, sym


def bareiss_det(matrix) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    M = [list(map(int, row)) for row in matrix]
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if M[r][k] != 0), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[-1][-1]


def tree_det(tree: PlumbingTree) -> int:
    """Exact determinant of the intersection form, in O(m) integer steps.

    The matrix is supported on a tree, so only the permutations made of fixed
    points and edge transpositions contribute: the determinant is a sum over
    matchings.  A transposition (i j) contributes -M_ij M_ji = sigma s^2 =
    sigma, with sigma = -1 for a symmetric form and +1 for a skew one.  Root
    the tree at vertex 0.  Let F(v) be the determinant of v's subtree, and
    G(v) = prod_c F(c) over v's children c, the determinant of that subtree
    less v.  Then

        F(v) = e_v G(v) + sigma sum_c G(c) prod_{c' != c} F(c'),

    and the determinant is F(0).  The prefix products and the sum are carried
    child by child: with P the product of F and S the sum over the children
    seen so far, a child c sets S <- S F(c) + G(c) P, then P <- P F(c), so
    nothing is divided and no product is taken twice.  The tree is walked by
    an iterative breadth-first search, so a chain of any length works."""
    sigma = 1 if form_symmetry(tree) == "skew" else -1
    adj, n = tree._adj, tree.n
    parent = [-1] * n
    order = [0]
    for v in order:
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    prod = [1] * n   # P(v): product of F over v's children done so far, then G(v)
    cross = [0] * n  # S(v): the sum term over v's children done so far
    for v in reversed(order):
        det = tree.vertices[v].euler * prod[v] + sigma * cross[v]
        u = parent[v]
        if u >= 0:
            cross[u] = cross[u] * det + prod[v] * prod[u]
            prod[u] *= det
    return det


def boundary_sphere_test(tree: PlumbingTree):
    """(is_homotopy_sphere, det): |det| = 1 detects homotopy-sphere boundaries
    for simply connected tree plumbings over spheres (p, q >= 3)."""
    det = tree_det(tree)
    return abs(det) == 1, det


# ---------------------------------------------------------------------------
# Arf invariant
# ---------------------------------------------------------------------------


class NonUnimodularFormError(ValueError):
    """The mod-2 intersection form is degenerate or not alternating."""


def arf_invariant(tree: PlumbingTree) -> int:
    """Arf invariant of the plumbing's mod-2 quadratic refinement, by peeling.

    Skew case; q(e_v) is the framing value.  The mod-2 form is 1 on each edge
    and Euler mod 2 on the diagonal; an odd Euler number leaves no refinement
    (q(2x) = 0 forces B(x, x) = 0).  A leaf and its only neighbour, the mate,
    are a hyperbolic pair adding q(leaf) q(mate); each other neighbour w of the
    mate becomes w + leaf, so q(w) += q(leaf), and the pair is removed.  A
    vertex left without a neighbour spans the radical: the form is degenerate.
    """
    if form_symmetry(tree) != "skew":
        raise TreeStructureError("Arf invariant applies to the middle-odd (skew) case")
    odd = [k for k, v in enumerate(tree.vertices) if v.euler % 2]
    if odd:
        raise NonUnimodularFormError(f"mod-2 form is not alternating (odd Euler number at "
                                     f"vertices {odd}): no quadratic refinement exists")
    q = [v.framing_q for v in tree.vertices]
    adj = {k: set(ns) for k, ns in tree._adj.items()}
    leaves = [k for k, ns in adj.items() if len(ns) <= 1]
    arf = 0
    while leaves:
        leaf = leaves.pop()
        if leaf not in adj:
            continue
        if not adj[leaf]:
            raise NonUnimodularFormError("mod-2 form is degenerate on the remaining space")
        (mate,) = adj.pop(leaf)
        arf ^= q[leaf] & q[mate]
        for w in adj.pop(mate) - {leaf}:
            q[w] ^= q[leaf]
            adj[w].discard(mate)
            if len(adj[w]) <= 1:
                leaves.append(w)
    return arf


# ---------------------------------------------------------------------------
# Clutching words
# ---------------------------------------------------------------------------


def clutching_word(tree: PlumbingTree) -> list:
    """Boundary gluing word of a straight-line plumbing.

    The boundary of an m-chain is two trivial pieces glued along the
    composition of the vertices' clutching maps alternated with the cross
    swap I; trivial bundles drop out and the empty composition renders as
    the plain cross swap (the standard-sphere gluing).
    """
    order = tree.path_order()
    tokens = []
    for pos, vi in enumerate(reversed(order)):
        v = tree.vertices[vi]
        if pos > 0:
            tokens.append("I")
        if not v.trivial:
            tokens.append(v.char_label or f"Phi_{vi + 1}")
    return tokens if tokens else ["I"]


def render_word(tokens) -> str:
    return " . ".join(tokens) if tokens else "I"


# ---------------------------------------------------------------------------
# Fixed-point ledgers
# ---------------------------------------------------------------------------


def eta_local_contribution(n: int):
    """Local index contribution of an isolated fixed point: exactly 2^-n, as
    a Fraction.  ``n`` is an integer >= 1 (a bool is none), or a
    ``ValueError`` names it."""
    from fractions import Fraction

    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    return Fraction(1, 2 ** n)


def fixed_point_count(m_bundles: int, convention: str) -> int:
    """Number of isolated fixed points of the involution on an m-bundle chain.

    "reported" follows the recorded count 2l+1 for m = 8l; "chain" counts two
    fixed points per bundle with one identified per plumbing (m + 1).  Both
    are strictly increasing in the chain length, so distinctness results do
    not depend on the convention.  ``m_bundles`` is an integer >= 1 (a bool
    is none), or a ``ValueError`` names it.
    """
    if type(m_bundles) is not int or m_bundles < 1:
        raise ValueError(f"the bundle count must be an integer >= 1, got {m_bundles!r}")
    if convention == "reported":
        if m_bundles % 8 != 0:
            raise ValueError("the reported count applies to chains of length 8l")
        return 2 * (m_bundles // 8) + 1
    if convention == "chain":
        return m_bundles + 1
    raise ValueError(f"unknown convention {convention!r}")


@dataclass(frozen=True)
class EtaLedger:
    """Exact fixed-point ledger for a family of chain plumbings.

    ``k`` fixes the boundary dimension 4k+1 (so n = 2k+1); ``lengths``
    indexes the family, at least two members, since the ledger certifies
    that they differ; ``fixed_point_counts`` maps each length to its
    isolated fixed-point count.  ``k``, the lengths and the counts are
    integers (a bool is none), or a ``ValueError`` names the value.  The
    ambient offset C_V shared by every member stays symbolic: it cancels in
    differences.
    """

    k: int
    lengths: tuple
    fixed_point_counts: dict

    def __post_init__(self):
        if type(self.k) is not int or self.k < 1:
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        lengths, table = self.lengths, self.fixed_point_counts
        if len(lengths) < 2:
            raise ValueError(f"a distinctness ledger needs at least two lengths, "
                             f"got {len(lengths)}")
        if set(map(type, lengths)) != {int}:
            bad = next(l for l in lengths if type(l) is not int)
            raise ValueError(f"each length must be an integer, got {bad!r}")
        try:
            counts = [table[l] for l in lengths]
        except KeyError as exc:
            raise ValueError(
                f"fixed_point_counts has no count for length {exc.args[0]}") from None
        if set(map(type, counts)) != {int}:
            l, c = next((l, c) for l, c in zip(lengths, counts) if type(c) is not int)
            raise ValueError(f"the fixed-point count of length {l} must be an integer, "
                             f"got {c!r}")
        if sorted(lengths) != list(lengths):
            raise ValueError("lengths must be increasing")
        if not all(map(operator.lt, counts, counts[1:])):
            raise ValueError("fixed-point counts must be strictly increasing in the length")

    @property
    def n(self) -> int:
        return 2 * self.k + 1


@dataclass(frozen=True)
class EtaLedgerResult:
    """End invariants eta_l = -2 (count_l 2^-n + C_V) and their distinctness.

    ``eta_pairs`` maps each length to the rational part of its eta as the
    integer pair (numerator, denominator) in lowest terms; the denominator is
    a power of two.  ``etas`` gives the same values as Fractions, built when
    read."""

    n: int
    eta_pairs: dict              # length -> (numerator, denominator) of the rational part
    cv_coefficient: int          # coefficient of the symbolic constant (always -2)
    distinct: bool
    collisions: tuple

    @property
    def etas(self) -> dict:
        """Each length's rational part as a Fraction."""
        from fractions import Fraction

        return {l: Fraction(*pair) for l, pair in self.eta_pairs.items()}

    def as_dict(self) -> dict:
        """The JSON-ready dictionary: each eta as [numerator, denominator]
        under its length's decimal string, each collision as a list."""
        pairs = self.eta_pairs
        return {
            "n": self.n,
            "cv_coefficient": self.cv_coefficient,
            "etas": dict(zip(map(str, pairs), map(list, pairs.values()))),
            "distinct": self.distinct,
            "collisions": [list(c) for c in self.collisions],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=1)


def eta_ledger(ledger: EtaLedger) -> EtaLedgerResult:
    """Evaluate the ledger exactly, in integers, and certify pairwise
    distinctness.

    Each end invariant is -2(count * 2^-n + C_V).  Its rational part is
    x / 2^n with x = -2 count; with 2^v the lowest set bit of x (x & -x),
    capped at 2^n, the pair (x / 2^v, 2^(n-v)) is that rational in lowest
    terms, and a count of 0 gives (0, 1).  For fixed n the rational part is
    injective in the count, and differences cancel the symbolic constant, so
    lengths collide exactly when their counts do.
    """
    n, lengths = ledger.n, ledger.lengths
    counts = list(map(ledger.fixed_point_counts.__getitem__, lengths))
    top = 1 << n
    pairs = []
    for c in counts:
        x = -2 * c
        low = x & -x or top  # 2^v, the lowest set bit of x; a count of 0 takes 2^n
        if low > top:
            low = top
        pairs.append((x // low, top // low))
    collisions = ()
    if len(set(counts)) < len(counts):
        groups = {}
        for l, c in zip(lengths, counts):
            groups.setdefault(c, []).append(l)
        # The lengths increase strictly, so sorted pairs come in pairwise-scan order.
        collisions = tuple(sorted((a, b) for group in groups.values()
                                  for i, a in enumerate(group) for b in group[i + 1:]))
    return EtaLedgerResult(n=n, eta_pairs=dict(zip(lengths, pairs)), cv_coefficient=-2,
                           distinct=not collisions, collisions=collisions)
