import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from plumbric.plumbing import (EtaLedger, EtaLedgerResult, NonUnimodularFormError,
                               PlumbingTree, PlumbingVertex, TreeStructureError,
                               arf_invariant, bareiss_det,
                               boundary_sphere_test, clutching_word, eta_ledger,
                               eta_local_contribution, fixed_point_count,
                               form_symmetry, intersection_matrix, render_word,
                               tangent_chain, tree_det)

from eta_reference import reference_etas, reference_json
from gf2_reference import arf_of_refinement, reference_arf

RNG = np.random.default_rng(99)


class TestTreeValidation:
    def test_not_a_tree(self):
        verts = tuple(PlumbingVertex(3, 3, 0) for _ in range(3))
        with pytest.raises(TreeStructureError):
            PlumbingTree(vertices=verts, edges=((0, 1, 1), (1, 2, 1), (2, 0, 1)))

    def test_dimension_mismatch(self):
        verts = (PlumbingVertex(3, 4, 0), PlumbingVertex(3, 4, 0))
        with pytest.raises(TreeStructureError):
            PlumbingTree(vertices=verts, edges=((0, 1, 1),))

    def test_equivariant_needs_path(self):
        verts = tuple(PlumbingVertex(3, 3, 0) for _ in range(4))
        star = ((0, 1, 1), (0, 2, 1), (0, 3, 1))
        with pytest.raises(TreeStructureError):
            PlumbingTree(vertices=verts, edges=star, equivariant=True)
        PlumbingTree(vertices=verts, edges=star)  # fine without the flag

    def test_json_round_trip(self):
        tree = tangent_chain(4, 3, equivariant=True)
        back = PlumbingTree.from_json(tree.to_json())
        assert back == tree

    @pytest.mark.parametrize("edit, match", [
        # a vertex with all six keys but one of the wrong type
        (lambda d: d["vertices"][1].update(rank=True),
         "vertex 1's 'rank' must be an integer, got True"),
        # type faults are named before a vertex's value fault and an edge fault
        (lambda d: (d["vertices"][0].update(base_dim=0), d["vertices"][2].update(trivial=1),
                    d["edges"].append([0, 1])),
         "vertex 2's 'trivial' must be true or false, got 1"),
        (lambda d: (d["vertices"][0].update(base_dim=0), d["edges"].append([0, 1])),
         "edge 3 must be a list"),
        (lambda d: (d["vertices"][0].update(base_dim=0), d.update(equivariant=1)),
         "'equivariant' must be true or false"),
        (lambda d: d["vertices"][0].update(base_dim=0), "base dimension and rank must be positive"),
        (lambda d: d["edges"].__setitem__(2, [1, 0, 1]), "duplicate edge between 1 and 0"),
        (lambda d: d["edges"].__setitem__(2, [2, 2, 1]), r"bad edge \(2, 2\)"),
        (lambda d: d["edges"].__setitem__(2, [2, 4, 1]), r"bad edge \(2, 4\)"),
        (lambda d: d["edges"].__setitem__(2, [2, 3, 0]), "edge sign must be"),
        (lambda d: d["edges"].pop(), "needs 3 edges, got 2"),
    ])
    def test_json_faults_are_named(self, edit, match):
        doc = json.loads(tangent_chain(4, 3).to_json())
        edit(doc)
        with pytest.raises(TreeStructureError, match=match):
            PlumbingTree.from_json(json.dumps(doc))

    def test_json_vertex_keys_beyond_the_six_are_ignored(self):
        doc = json.loads(tangent_chain(3, 5).to_json())
        doc["vertices"][1]["note"] = "kept out of the vertex"
        del doc["vertices"][2]["char_label"]
        tree = PlumbingTree.from_json(json.dumps(doc))
        assert tree.vertices[:2] == tangent_chain(3, 5).vertices[:2]
        assert tree.vertices[2].char_label == ""


class TestIntersectionForm:
    def test_single_tangent_vertex(self):
        M, sym = intersection_matrix(tangent_chain(1, 3))
        assert M == [[0]]
        assert sym == "skew"
        sphere, det = boundary_sphere_test(tangent_chain(1, 3))
        assert det == 0 and not sphere

    def test_two_chain(self):
        M, _ = intersection_matrix(tangent_chain(2, 3))
        assert M == [[0, 1], [-1, 0]]
        assert bareiss_det(M) == 1

    def test_three_chain_singular(self):
        sphere, det = boundary_sphere_test(tangent_chain(3, 3))
        assert det == 0 and not sphere

    def test_det_pattern_to_length_20(self):
        for m in range(2, 21):
            sphere, det = boundary_sphere_test(tangent_chain(m, 3))
            if m % 2 == 0:
                assert abs(det) == 1 and sphere
            else:
                assert det == 0 and not sphere

    def test_even_middle_is_symmetric(self):
        verts = (PlumbingVertex(4, 4, 2), PlumbingVertex(4, 4, 2))
        tree = PlumbingTree(vertices=verts, edges=((0, 1, 1),))
        M, sym = intersection_matrix(tree)
        assert sym == "symmetric"
        assert M == [[2, 1], [1, 2]]
        assert bareiss_det(M) == 3

    def test_e8_shape(self):
        verts = tuple(PlumbingVertex(4, 4, 2) for _ in range(8))
        edges = ((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1),
                 (5, 6, 1), (4, 7, 1))
        tree = PlumbingTree(vertices=verts, edges=edges)
        M, sym = intersection_matrix(tree)
        assert sym == "symmetric"
        assert bareiss_det(M) == 1

    def test_odd_total_dim_rejected(self):
        verts = (PlumbingVertex(3, 4, 0), PlumbingVertex(4, 3, 0))
        tree = PlumbingTree(vertices=verts, edges=((0, 1, 1),))
        with pytest.raises(TreeStructureError):
            intersection_matrix(tree)


@st.composite
def skew_trees(draw, matched: bool, symmetric: bool = False):
    """Skew trees with random signs, framings and even Euler numbers, their
    vertices relabelled at random.  A ``matched`` tree has the perfect
    matching (2i, 2i + 1): each pair joins an earlier pair by one edge between
    random ends, so contracting the pairs leaves a random tree (every tree
    with a perfect matching arises so).  A ``symmetric`` tree is built on the
    same links with dimensions (4, 4), or (3, 5) and (5, 3) alternating
    across each edge, and Euler numbers of either parity."""
    if matched:
        n = 2 * draw(st.integers(1, 12))
        links = [(2 * i, 2 * i + 1) for i in range(n // 2)]
        links += [(2 * draw(st.integers(0, i - 1)) + draw(st.integers(0, 1)),
                   2 * i + draw(st.integers(0, 1))) for i in range(1, n // 2)]
    else:
        n = draw(st.integers(1, 24))
        links = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    label = draw(st.permutations(range(n)))
    if symmetric:
        p, q = draw(st.sampled_from(((4, 4), (3, 5))))
        side = {label[i]: s for i, s in _two_colouring(n, links).items()}
        verts = tuple(PlumbingVertex(*((q, p) if side[k] else (p, q)), draw(st.integers(-3, 3)))
                      for k in range(n))
    else:
        d = draw(st.sampled_from((3, 5, 7)))
        verts = tuple(PlumbingVertex(d, d, 2 * draw(st.integers(-3, 3)),
                                     framing_q=draw(st.integers(0, 1))) for _ in range(n))
    edges = tuple((label[i], label[j], draw(st.sampled_from((1, -1)))) for i, j in links)
    return PlumbingTree(vertices=verts, edges=edges)


def _two_colouring(n, links):
    """0/1 sides of the tree on range(n) with edges ``links``, adjacent
    vertices on opposite sides."""
    adj = {k: [] for k in range(n)}
    for i, j in links:
        adj[i].append(j)
        adj[j].append(i)
    side, order = {0: 0}, [0]
    for v in order:
        for w in adj[v]:
            if w not in side:
                side[w] = 1 - side[v]
                order.append(w)
    return side


class TestTreeDet:
    @pytest.mark.parametrize("symmetric", [False, True], ids=["skew", "symmetric"])
    @pytest.mark.parametrize("matched", [True, False], ids=["matched", "random"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_bareiss(self, matched, symmetric, data):
        # 600 trees in all: nonzero diagonals, odd and even m, random signs
        tree = data.draw(skew_trees(matched, symmetric))
        assert form_symmetry(tree) == ("symmetric" if symmetric else "skew")
        assert tree_det(tree) == bareiss_det(intersection_matrix(tree)[0])

    def test_long_chain(self):
        # 1e5 vertices: the walk is iterative, so no recursion limit is met
        for m in (100_000, 100_001):
            assert tree_det(tangent_chain(m, 3)) == 1 - m % 2

    def test_odd_total_dim_rejected(self):
        tree = PlumbingTree(vertices=(PlumbingVertex(3, 4, 0), PlumbingVertex(4, 3, 0)),
                            edges=((0, 1, 1),))
        with pytest.raises(TreeStructureError):
            tree_det(tree)


def _arf_outcome(route, tree):
    try:
        return route(tree)
    except NonUnimodularFormError as exc:
        return f"NonUnimodularFormError: {exc}"


class TestArf:
    def test_kervaire_two_chain(self):
        assert arf_invariant(tangent_chain(2, 3)) == 1

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_eight_l_chain_vanishes(self, l):
        assert arf_invariant(tangent_chain(8 * l, 3)) == 0

    def test_zero_refinement(self):
        verts = tuple(PlumbingVertex(3, 3, 0, framing_q=0) for _ in range(4))
        tree = PlumbingTree(vertices=verts, edges=tuple((i, i + 1, 1) for i in range(3)))
        assert arf_invariant(tree) == 0

    def test_degenerate_form_raises(self):
        with pytest.raises(NonUnimodularFormError,
                           match="mod-2 form is degenerate on the remaining space"):
            arf_invariant(tangent_chain(3, 3))

    def test_odd_euler_number_fails_closed(self):
        # B(e_0, e_0) = 1 mod 2, but q(2 e_0) = 0 needs B(e_0, e_0) = 0: no
        # refinement exists, although the leaf e_1 has a partner
        verts = (PlumbingVertex(3, 3, 1, framing_q=1), PlumbingVertex(3, 3, 0, framing_q=1))
        tree = PlumbingTree(vertices=verts, edges=((0, 1, 1),))
        with pytest.raises(NonUnimodularFormError,
                           match=r"not alternating \(odd Euler number at vertices \[0\]\)"):
            arf_invariant(tree)

    def test_symmetric_form_rejected(self):
        tree = PlumbingTree(vertices=(PlumbingVertex(4, 4, 2),), edges=())
        assert form_symmetry(tree) == "symmetric"
        with pytest.raises(TreeStructureError, match="middle-odd"):
            arf_invariant(tree)

    @pytest.mark.parametrize("matched", [True, False], ids=["perfect_matching", "random"])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_peeling_matches_gf2_reference(self, matched, data):
        # 600 trees in all, half with a perfect matching (so the form is
        # nondegenerate) and half plain random trees (mostly degenerate)
        tree = data.draw(skew_trees(matched))
        got, want = _arf_outcome(arf_invariant, tree), _arf_outcome(reference_arf, tree)
        assert got == want
        assert isinstance(got, int) or not matched

    def test_basis_independence(self):
        # change basis by random mod-2 symplectic transvections; the invariant
        # of the transported refinement must not move
        for m in (2, 4, 8, 16):
            tree = tangent_chain(m, 3)
            M, _ = intersection_matrix(tree)
            B = [[abs(x) % 2 for x in row] for row in M]
            q = [v.framing_q for v in tree.vertices]
            base = arf_of_refinement(B, q)
            n = len(B)

            def pair_vec(x, y):
                return sum(x[i] * B[i][j] * y[j] for i in range(n) for j in range(n)) % 2

            def q_vec(x):
                idx = [i for i in range(n) if x[i]]
                total = sum(q[i] for i in idx)
                total += sum(B[idx[a]][idx[b]] for a in range(len(idx))
                             for b in range(a + 1, len(idx)))
                return total % 2

            for _ in range(25):
                v = RNG.integers(0, 2, n)
                if not v.any():
                    continue
                basis = []
                for i in range(n):
                    e = np.zeros(n, dtype=int)
                    e[i] = 1
                    basis.append((e + pair_vec(e, v) * v) % 2)
                B2 = [[pair_vec(basis[i], basis[j]) for j in range(n)] for i in range(n)]
                q2 = [q_vec(basis[i]) for i in range(n)]
                assert arf_of_refinement(B2, q2) == base


class TestClutching:
    def test_single_trivial_reduces_to_cross_swap(self):
        v = PlumbingVertex(3, 3, 0, char_label="Phi_1", trivial=True)
        tree = PlumbingTree(vertices=(v,), edges=())
        assert clutching_word(tree) == ["I"]

    def test_two_chain(self):
        word = clutching_word(tangent_chain(2, 3))
        assert word == ["tau_2", "I", "tau_1"]

    def test_trivial_middles_drop(self):
        def v(i, triv):
            return PlumbingVertex(3, 3, 0, char_label=f"Phi_{i}", trivial=triv)

        tree = PlumbingTree(vertices=(v(1, False), v(2, True), v(3, True), v(4, False)),
                            edges=((0, 1, 1), (1, 2, 1), (2, 3, 1)))
        assert clutching_word(tree) == ["Phi_4", "I", "I", "I", "Phi_1"]
        assert render_word(clutching_word(tree)) == "Phi_4 . I . I . I . Phi_1"

    def test_non_path_rejected(self):
        verts = tuple(PlumbingVertex(3, 3, 0) for _ in range(4))
        star = PlumbingTree(vertices=verts, edges=((0, 1, 1), (0, 2, 1), (0, 3, 1)))
        with pytest.raises(TreeStructureError):
            clutching_word(star)


class TestEta:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_closed_forms(self, n):
        assert eta_local_contribution(n) == Fraction(1, 2 ** n)

    @pytest.mark.parametrize("call, match", [
        (lambda: fixed_point_count(8.0, "reported"),
         "the bundle count must be an integer >= 1, got 8.0"),
        (lambda: fixed_point_count(True, "chain"),
         "the bundle count must be an integer >= 1, got True"),
        (lambda: fixed_point_count(0, "chain"),
         "the bundle count must be an integer >= 1, got 0"),
        (lambda: eta_local_contribution(True), "n must be an integer >= 1, got True"),
        (lambda: eta_local_contribution(2.5), "n must be an integer >= 1, got 2.5"),
        (lambda: eta_local_contribution(0), "n must be an integer >= 1, got 0"),
    ], ids=["count_float", "count_bool", "count_zero", "eta_bool", "eta_float", "eta_zero"])
    def test_fixed_point_helpers_fail_closed_naming_the_value(self, call, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            call()

    def test_fixed_point_conventions(self):
        assert fixed_point_count(8, "reported") == 3
        assert [fixed_point_count(8 * l, "reported") for l in (1, 2, 3)] == [3, 5, 7]
        assert fixed_point_count(8, "chain") == 9
        chain_counts = [fixed_point_count(m, "chain") for m in range(1, 30)]
        assert all(c2 > c1 for c1, c2 in zip(chain_counts, chain_counts[1:]))

    def test_ledger_distinctness(self):
        lengths = tuple(range(1, 101))
        led = EtaLedger(k=1, lengths=lengths,
                        fixed_point_counts={l: 2 * l + 1 for l in lengths})
        res = eta_ledger(led)
        assert res.distinct
        assert res.etas[1] - res.etas[2] == Fraction(1, 2)
        assert res.cv_coefficient == -2

    def test_degenerate_ledger_detected(self):
        with pytest.raises(ValueError):
            EtaLedger(k=1, lengths=(1, 2), fixed_point_counts={1: 3, 2: 3})
        # distinctness of fewer than two end invariants certifies nothing
        for lengths in ((), (1,)):
            with pytest.raises(ValueError, match=f"got {len(lengths)}"):
                EtaLedger(k=1, lengths=lengths, fixed_point_counts={1: 3})

    @staticmethod
    def _pairwise_result(led):
        """The O(L^2) reference: compare every pair of lengths."""
        res = eta_ledger(led)
        ls, etas = led.lengths, res.etas
        pairs = tuple((a, b) for i, a in enumerate(ls) for b in ls[i + 1:]
                      if etas[a] == etas[b])
        return EtaLedgerResult(n=res.n, eta_pairs=res.eta_pairs, cv_coefficient=-2,
                               distinct=not pairs, collisions=pairs)

    @pytest.mark.parametrize("convention", ["reported", "chain"])
    @pytest.mark.parametrize("l_max", [2, 9, 800])
    def test_collisions_match_pairwise_reference(self, convention, l_max):
        lengths = tuple(range(1, l_max + 1))
        counts = {l: fixed_point_count(8 * l, convention) for l in lengths}
        led = EtaLedger(k=2, lengths=lengths, fixed_point_counts=counts)
        res = eta_ledger(led)
        ref = self._pairwise_result(led)
        assert res.collisions == ref.collisions == ()
        assert res.to_json() == ref.to_json()

    def test_collision_order_matches_pairwise_reference(self):
        # Colliding counts are rejected by EtaLedger's constructor; build the
        # ledger past it so the grouping's pair order is exercised.
        lengths = tuple(range(1, 41))
        led = object.__new__(EtaLedger)
        for name, value in (("k", 1), ("lengths", lengths),
                            ("fixed_point_counts", {l: (l * 7) % 5 for l in lengths})):
            object.__setattr__(led, name, value)
        res = eta_ledger(led)
        ref = self._pairwise_result(led)
        assert len(res.collisions) == 5 * 28 == len(ref.collisions)
        assert res.collisions == ref.collisions
        assert res.to_json() == ref.to_json() == reference_json(led)
        assert res.as_dict() == json.loads(res.to_json())

    # Counts of every kind the integer pairs must reduce: 0, negative, even,
    # odd, and powers of two past 2^n, whose eta is an integer.
    COUNTS = st.one_of(st.integers(-64, 64), st.integers(0, 130).map(lambda e: 1 << e),
                       st.integers(-2 ** 130, 2 ** 130))

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 40),
           counts=st.lists(COUNTS, min_size=2, max_size=40, unique=True).map(sorted))
    @example(k=1, counts=[-4, -3, 0, 2, 8, 16, 17])
    def test_integer_pairs_match_the_fraction_reference(self, k, counts):
        lengths = tuple(range(1, len(counts) + 1))
        led = EtaLedger(k=k, lengths=lengths, fixed_point_counts=dict(zip(lengths, counts)))
        res = eta_ledger(led)
        assert res.to_json() == reference_json(led)
        assert res.etas == reference_etas(led)
        assert all(type(v) is Fraction for v in res.etas.values())

    @pytest.mark.parametrize("fields, match", [
        ({"k": 1.5}, "k must be an integer >= 1, got 1.5"),
        ({"k": True}, "k must be an integer >= 1, got True"),
        ({"k": 0}, "k must be an integer >= 1, got 0"),
        ({"lengths": (1, 2.0)}, "each length must be an integer, got 2.0"),
        ({"fixed_point_counts": {1: 3}}, "no count for length 2"),
        ({"fixed_point_counts": {1: 3, 2: 5.0}},
         "the fixed-point count of length 2 must be an integer, got 5.0"),
        ({"fixed_point_counts": {1: False, 2: True}},
         "the fixed-point count of length 1 must be an integer, got False"),
    ], ids=["k_float", "k_bool", "k_zero", "length_float", "count_missing",
            "count_float", "count_bool"])
    def test_ledger_fails_closed_naming_the_value(self, fields, match):
        args = {"k": 1, "lengths": (1, 2), "fixed_point_counts": {1: 3, 2: 5}} | fields
        with pytest.raises(ValueError, match=re.escape(match)):
            EtaLedger(**args)

    @pytest.mark.parametrize("l_max", [2, 800])
    def test_dict_equals_the_json_round_trip(self, l_max):
        # topo_report embeds as_dict(); its digests were taken of the round trip
        lengths = tuple(range(1, l_max + 1))
        led = EtaLedger(k=2, lengths=lengths, fixed_point_counts={
            l: fixed_point_count(8 * l, "reported") for l in lengths})
        res = eta_ledger(led)
        assert res.as_dict() == json.loads(res.to_json())

    def test_result_serialization(self):
        led = EtaLedger(k=2, lengths=(1, 2), fixed_point_counts={1: 3, 2: 5})
        res = eta_ledger(led)
        doc = json.loads(res.to_json())
        assert doc["n"] == 5
        assert doc["etas"]["1"] == [-3, 16]
