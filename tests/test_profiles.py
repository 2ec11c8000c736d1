import json
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from csv_reference import first_difference, savetxt_csv
from ode_reference import reference_solution
from warp_reference import kummer_reference
from plumbric.pipeline import NiceCoordinateSpec, params_json, run_construction
from plumbric.plumbing import PlumbingTree, PlumbingVertex
from plumbric.profiles import (A3, CSV_BLOCK_ROWS, PROFILE_COLUMNS, SEARCH_T1,
                               BoundaryConditionError, EpsilonProfile, InfeasibleProfileError,
                               LeftParams, ProfileError, build_left_profile, check_bc,
                               csv_blocks, integrate_fC, search_parameters, solve_runout)

RNG = np.random.default_rng(7)


class TestOdes:
    # h0 does not depend on C; these read it off the joint solve at C = 0.5
    def test_h0_initial_data(self):
        for lam in (0.1, 0.2, 0.35):
            w = integrate_fC(0.5, lam).jets(A3)
            assert float(w.h0) == pytest.approx(math.sqrt(-2 * math.log(lam)), abs=1e-12)
            assert float(w.h0_d1) == pytest.approx(lam, abs=1e-10)
            assert float(w.h0_d2) == pytest.approx(
                -lam ** 2 * math.sqrt(-2 * math.log(lam)), rel=1e-8)

    def test_h0_value_example(self):
        ode = integrate_fC(0.5, 0.1)
        assert float(ode.jets(A3).h0) == pytest.approx(2.1459660262893476, abs=1e-10)
        ode2 = integrate_fC(0.5, 0.2)
        assert float(ode2.jets(A3).h0_d2) == pytest.approx(-0.0717649, abs=5e-7)

    def test_fc_initial_data(self):
        ode = integrate_fC(0.5, 0.1)
        assert float(ode.jets(A3).fc_d2) == pytest.approx(0.005, abs=1e-12)

    def test_monotonicity(self):
        ode = integrate_fC(0.4, 0.2)
        t = np.linspace(A3 + 1e-6, 60.0, 500)
        w = ode.jets(t)
        assert np.all(w.h0_d1 > 0)
        assert np.all(w.h0_d2 < 0)
        assert np.all(w.fc > 1e-12)
        assert np.all(w.fc_d1 > 1e-12)
        assert np.all(w.fc_d2 > 1e-12)

    def test_ratio_property(self):
        # fC'/(fC h0 h0') stays inside [0, 1] along the whole run
        for lam, C in ((0.1, 0.5), (0.3, 0.9), (0.45, 0.2)):
            ode = integrate_fC(C, lam)
            t = np.linspace(A3, A3 + 50.0, 2000)
            w = ode.jets(t)
            ratio = w.fc_d1 / (w.fc * w.h0 * w.h0_d1)
            assert ratio.min() >= -1e-9
            assert ratio.max() <= 1.0 + 1e-9

    def test_self_consistency_by_differencing(self):
        ode = integrate_fC(0.5, 0.1)
        t = np.linspace(1.0, 29.0, 200)
        d = 1e-5
        fd_h0 = (ode.jets(t + d).h0 - ode.jets(t - d).h0) / (2 * d)
        assert np.max(np.abs(fd_h0 - ode.jets(t).h0_d1)) < 1e-8
        fd_fc1 = (ode.jets(t + d).fc_d1 - ode.jets(t - d).fc_d1) / (2 * d)
        assert np.max(np.abs(fd_fc1 - ode.jets(t).fc_d2)) < 1e-8

    def test_growth_surrogate(self):
        # the fiber solution eventually grows without bound; visible within
        # 50 units once the collar dynamics are fast
        ode = integrate_fC(0.9, 0.45)
        assert float(ode.jets(A3 + 50.0).fc) > 10.0 * float(ode.jets(A3).fc)

    def test_decay_surrogate(self):
        # fc * h0' -> 0; the tenfold drop needs a slightly longer horizon
        # than the raw decrease (which criterion 3 checks at +50)
        ode = integrate_fC(0.5, 0.1)
        assert float(ode.jets(210.0).fc * ode.jets(210.0).h0_d1) < \
            0.1 * float(ode.jets(A3 + 1.0).fc * ode.jets(A3 + 1.0).h0_d1)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _close(got, want) -> bool:
    """Within 1e-13 relative; a value below the least normal float (fC' at a
    C near 5e-324) has no relative precision left to compare."""
    return math.isclose(float(got), want, rel_tol=1e-13, abs_tol=sys.float_info.min)


class TestWarpSeries:
    """The left piece's series against the closed form (``warp_reference``)
    and against the RK45 solve it replaced (``ode_reference``)."""

    @settings(max_examples=60, deadline=None)
    @given(C=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           log_lam=st.floats(-8.0, math.log10(0.5), exclude_max=True),
           log_t=st.floats(-3.0, math.log10(3.6e7)))
    def test_values_match_the_closed_form(self, C, log_lam, log_t):
        lam, t = 10.0 ** log_lam, 10.0 ** log_t
        assume(lam < 0.5)
        w = integrate_fC(C, lam).jets(t)
        h0, fc, fc1 = kummer_reference(C, lam, t)
        assert _close(w.h0, h0) and _close(w.fc, fc) and _close(w.fc_d1, fc1)

    @pytest.mark.parametrize("C,lam", [(0.5, 1e-8), (0.95, 0.1), (0.01, 0.4999)])
    def test_exact_initial_values(self, C, lam):
        w = integrate_fC(C, lam).jets(A3)
        assert float(w.h0) == math.sqrt(-2.0 * math.log(lam))
        assert float(w.fc) == 1.0 and float(w.fc_d1) == 0.0
        assert float(w.h0_d1) == lam

    @settings(max_examples=20, deadline=None)
    @given(C=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           lam=st.floats(0.05, 0.5, exclude_max=True),
           log_t=st.lists(st.floats(4.0, math.log10(3.6e7)), min_size=1, max_size=6))
    def test_values_match_the_rk45_reference_to_its_accuracy(self, C, lam, log_t):
        # RK45 ran at rtol 1e-10, atol 1e-13: its measured error here is at
        # most 4.1e-10 relative, or within atol where fC' is that small
        t = np.sort(10.0 ** np.array(log_t))
        ref = reference_solution(C, lam, t[-1]).sol(t)
        w = integrate_fC(C, lam).jets(t)
        for got, want in zip((w.h0, w.fc, w.fc_d1), ref):
            assert np.all(np.abs(got - want) <= 2e-9 * np.abs(want) + 1e-13)

    @settings(max_examples=20, deadline=None)
    @given(C=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           lam=st.floats(1e-8, 0.5, exclude_max=True),
           t=st.lists(st.floats(0.0, 3.6e7), min_size=2, max_size=20))
    def test_a_value_does_not_depend_on_the_other_points(self, C, lam, t):
        batch = integrate_fC(C, lam).jets(np.array(t))
        for k, x in enumerate(t):
            alone = integrate_fC(C, lam).jets(x)
            assert list(map(_bits, alone)) == [_bits(v[k]) for v in batch], x

    @pytest.mark.parametrize("t", [-1e-9, math.nan, math.inf])
    def test_points_off_the_left_piece_rejected(self, t):
        with pytest.raises(ProfileError, match="finite t >= 0"):
            integrate_fC(0.5, 0.1).jets(np.array([1.0, t]))

    def test_a_fresh_ode_rebuilds_the_accepted_left_piece(self):
        res = search_parameters(4, 4, math.pi / 4, 0.1, mc_margin_tol=1e-9, grid_n=2048)
        left, t1 = res.left, res.right.t1
        piece = build_left_profile(left)
        jets = res.measurement.jets
        on_left = jets.t < t1
        assert np.count_nonzero(on_left) >= 1
        # the check grid has few samples there, so compare on a dense grid too
        dense = np.linspace(A3, t1, 513)[:-1]
        on_grid, on_dense, pair_dense = piece(jets.t[on_left]), piece(dense), res.pair.jets(dense)
        for k, name in enumerate(("f", "f1", "f2", "h", "h1", "h2")):
            assert np.array_equal(on_grid[k], getattr(jets, name)[on_left]), name
            assert np.array_equal(on_dense[k], getattr(pair_dense, name)), name

    @pytest.mark.parametrize("lam", [1e-200, 1e-300, 5e-324])
    def test_underflowing_join_slope_is_a_named_rejection(self, lam):
        # fC'(t1) underflows to 0, so no fiber scale b = s0/fC'(t1) exists
        assert float(integrate_fC(0.95, lam).jets(SEARCH_T1[-1]).fc_d1) == 0.0
        with pytest.raises(InfeasibleProfileError) as err:
            search_parameters(3, 3, math.pi / 4, lam, mc_margin_tol=1e-9, grid_n=256)
        gates = {gate for *_, gate in err.value.diagnostics["rejected"]}
        assert gates == {"fiber_scale"}


class TestLeftPiece:
    def test_bc1_values(self):
        lam, a, r = 0.1, 1.0, 0.05
        params = LeftParams(lam=lam, a=a, C=0.5, r=r)
        assert params.alpha == pytest.approx(2.1459660262893476, rel=1e-12)
        f, f1, *_ = build_left_profile(params)(A3)
        assert float(f) == pytest.approx(params.alpha * r, abs=1e-12)
        assert float(f) == pytest.approx(0.10730, abs=5e-6)
        assert float(f1) == pytest.approx(0.0, abs=1e-12)

    def test_collar_slope_bound(self):
        h1 = build_left_profile(LeftParams(lam=0.1, a=0.5, C=0.5, r=0.05))(A3)[4]
        assert float(h1) == pytest.approx(0.05, abs=1e-10)

    def test_a_gate(self):
        with pytest.raises(BoundaryConditionError) as err:
            LeftParams(lam=0.1, a=1.5, C=0.5, r=0.05)
        assert err.value.clause == "h1_a3"


class TestRunout:
    def test_end_jets(self):
        # beta = 20, N = 1, R/N = pi/4: the far end carries the cap jets
        bN, X = 20.0, math.pi / 4
        run = solve_runout(v0=2.0, s0=0.8, bN=bN, X_R=X)
        assert run.f_end == pytest.approx(bN * math.sin(X))  # 14.1421...
        assert run.f_end == pytest.approx(14.142135623730951)
        assert float(run.sigma(run.f_end)) == pytest.approx(math.cos(X))
        assert float(run.f_of_u(0.0)[0]) == pytest.approx(run.f_end, abs=1e-9)
        assert float(run.f_of_u(run.length)[0]) == pytest.approx(2.0, abs=1e-7)

    def test_concavity_and_window(self):
        run = solve_runout(v0=1.0, s0=0.75, bN=50.0, X_R=math.pi / 4)
        f = np.linspace(1.0, run.f_end * (1 - 1e-12), 1000)
        sg = run.sigma(f)
        assert np.all(sg > math.cos(math.pi / 4) - 1e-12)
        assert np.all(sg <= 0.75 + 1e-12)
        assert np.all(np.diff(sg) < 0)        # slope decreases as f grows
        D = 1 - (f / 50.0) ** 2 - sg ** 2
        assert D.min() > -1e-12               # stays inside the phase disk

    def test_slope_window_empty(self):
        with pytest.raises(InfeasibleProfileError):
            solve_runout(v0=1.0, s0=0.5, bN=50.0, X_R=math.pi / 4)

    def test_jets_evaluate_the_runout_once(self, monkeypatch):
        import plumbric.profiles as profiles

        runs = []
        build = profiles.build_right_profile

        def build_kept(left_t1, params, run):
            runs.append(run)
            return build(left_t1, params, run)

        monkeypatch.setattr(profiles, "build_right_profile", build_kept)
        res = search_parameters(4, 4, math.pi / 4, 0.1, mc_margin_tol=1e-9, grid_n=256)
        run, pair = runs[-1], res.pair
        calls = []

        def counted(name):
            method = getattr(profiles.Runout, name)

            def wrapper(self, *args):
                calls.append(name)
                return method(self, *args)
            return wrapper

        for name in ("f_of_u", "sigma"):
            monkeypatch.setattr(profiles.Runout, name, counted(name))
        t = pair.grid(3001)
        jets = pair.jets(t)
        assert sorted(calls) == ["f_of_u", "sigma"]
        # the same bits as evaluating f, sigma(f) and sigma'(f) sigma(f) afresh
        right = t >= pair.t1
        f = run.f_of_u(np.clip(pair.b3 - t[right], 0.0, run.length))
        sig = run.sigma(f)
        f2 = -2.0 * run.kappa * run.sigma(f) * f / (run.E(f) * run.bN ** 2) * sig
        for got, want in ((jets.f, f), (jets.f1, sig), (jets.f2, f2)):
            assert _bits(got[right]) == _bits(want)


class TestEpsilonProfile:
    def test_shape(self):
        ep = EpsilonProfile(a2=-1.0, b2=0.0, eps_end=0.4)
        t = np.linspace(-1.0, 0.0, 501)
        e = ep.eps_jets(t)[0]
        assert np.all(np.diff(e) <= 1e-15)
        assert e[0] == pytest.approx(math.pi / 2)
        assert e[-1] == pytest.approx(0.4)
        # constant near both ends
        assert np.ptp(e[t < ep.tau1]) == 0.0
        assert np.ptp(e[t > ep.tau2]) == 0.0
        inside = (t > ep.tau1 + 0.05) & (t < ep.tau2 - 0.05)
        assert np.all(np.diff(e[inside]) < 0)

    def test_gates(self):
        with pytest.raises(ProfileError):
            EpsilonProfile(a2=0.0, b2=1.0, eps_end=2.0)


class TestSearch:
    def test_lambda_gate(self):
        with pytest.raises(ProfileError):
            search_parameters(4, 4, math.pi / 4, 0.6, mc_margin_tol=1e-9, grid_n=2048)

    def test_found_profile_has_all_properties(self):
        res = search_parameters(4, 4, math.pi / 4, 0.1, mc_margin_tol=1e-9, grid_n=2048)
        assert res.measurement.ricci_min > 0
        assert res.measurement.margin_min("reported") >= -1e-9
        assert res.bc.passed
        pair = res.pair
        t = pair.grid(512)
        assert np.all(pair.f(t) > 0)
        assert np.all(pair.h(t) > 0)
        # right piece concave, slope inside the admissible window
        tr = t[t > res.right.t1]
        assert np.all(pair.f2(tr) <= 1e-15)
        assert np.all(pair.f1(tr) > math.cos(math.pi / 4) - 1e-12)
        assert np.all(pair.f1(tr) < 1.0)

    def test_bc_fault_detection(self):
        res = search_parameters(4, 4, math.pi / 4, 0.1, mc_margin_tol=1e-9, grid_n=2048)
        report = check_bc(res.measurement.jets, res.left, res.right, res.pair.eps_b2)
        assert report.passed and not report.failures

    def test_serialization_roundtrip(self):
        res = search_parameters(4, 4, math.pi / 4, 0.1, mc_margin_tol=1e-9, grid_n=2048)
        csv = res.pair.to_csv(128)
        assert csv.splitlines()[0] == "t,f,f1,f2,h,h1,h2"
        doc = json.loads(params_json(res))
        assert doc["schema"] == "plumbric-profile-params/2"
        assert doc["right"]["beta"] == res.right.beta

    def test_two_piece_grid_jets_and_params(self, tmp_path):
        res = search_parameters(4, 4, math.pi / 4, 0.1, mc_margin_tol=1e-9, grid_n=2048)
        pair = res.pair
        t = pair.grid(1024)
        # verify aligns the profile CSV on exact a3 and b3 end samples
        assert np.array_equal(t, np.linspace(res.left.a3, res.right.b3, 1024))
        assert t[0] == res.left.a3 and t[-1] == res.right.b3
        jets = pair.jets(t)
        for name in ("f", "f1", "f2", "h", "h1", "h2"):
            assert np.array_equal(getattr(jets, name), getattr(pair, name)(t)), name
        tree = PlumbingTree(
            vertices=(PlumbingVertex(base_dim=4, rank=4, euler=2, char_label="v1"),),
            edges=())
        spec = NiceCoordinateSpec(p=4, q=4, R=math.pi / 4, N=1.0, kappa=0.5)
        assert run_construction(tree, spec, out_dir=tmp_path).passed
        doc = json.loads((tmp_path / "profiles" / "step_0.params.json").read_text())
        assert doc["schema"] == "plumbric-profile-params/2"
        assert sorted(doc["markers"]) == ["a3", "b3", "t1"]


def table_csv(columns: dict) -> str:
    return savetxt_csv(",".join(columns), list(columns.values()))


def csv_text(columns: dict) -> str:
    """One CSV table of all ``columns``, in their order."""
    return "".join(text for (text,) in csv_blocks(columns, tuple(columns)))


SPECIAL = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e308,
                    -1e308, 1.0, -3.0, 2.0 ** 53, 1e16, 0.1, 1 / 3])
ROW_COUNTS = [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
              2 * CSV_BLOCK_ROWS + 1]


def sample_columns(n: int, names) -> dict:
    """Columns that cycle through the special values, mixed with random
    magnitudes from 1e-300 to 1e300 of either sign."""
    rng = np.random.default_rng(n)
    out = {}
    for k, name in enumerate(names):
        col = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        col[k::3] = np.resize(np.roll(SPECIAL, k), col[k::3].size)
        out[name] = col
    return out


class TestCsvWriter:
    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_profile_csv_matches_savetxt(self, n):
        cols = sample_columns(n, PROFILE_COLUMNS)
        assert first_difference(csv_text(cols), table_csv(cols)) is None

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_shared_columns_stream_two_tables(self, n):
        cols = sample_columns(n, ("t", "f", "h", "m"))
        tables = (("t", "f", "h"), ("h", "t", "m"))
        blocks = list(csv_blocks(cols, *tables))
        assert len(blocks) == 1 + -(-n // CSV_BLOCK_ROWS)
        for k, table in enumerate(tables):
            text = "".join(b[k] for b in blocks)
            assert first_difference(text, table_csv({c: cols[c] for c in table})) is None

    def test_single_column_and_non_float_input(self):
        ints = np.arange(-3, 4)
        assert csv_text({"k": ints}) == table_csv({"k": ints.astype(float)})
        assert csv_text({"x": SPECIAL}) == table_csv({"x": SPECIAL})

    def test_unequal_or_2d_columns_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            csv_text({"a": np.zeros(3), "b": np.zeros(4)})
        with pytest.raises(ValueError, match="1-D"):
            csv_text({"a": np.zeros((3, 2))})

    def test_pair_to_csv_matches_savetxt(self):
        pair = search_parameters(4, 4, math.pi / 4, 0.1, mc_margin_tol=1e-9, grid_n=2048).pair
        t = pair.grid(300)
        ref = table_csv({"t": t, **{name: getattr(pair, name)(t)
                                    for name in ("f", "f1", "f2", "h", "h1", "h2")}})
        assert first_difference(pair.to_csv(300), ref) is None


JET_NAMES = ("f", "f1", "f2", "h", "h1", "h2")


@pytest.fixture(scope="module")
def sampled_pair():
    """The accepted pair of the (3, 3) certificate pin (R/N = pi/4, lambda = 0.1,
    grid 16384), whose check grid samples the left piece and the collar rise
    densely, and that grid."""
    res = search_parameters(3, 3, math.pi / 4, 0.1, mc_margin_tol=1e-9, grid_n=16384)
    return res.pair, res.pair.grid(16384)


def _jet_bits(jets) -> list:
    """The bytes of six jets, given as a WarpedJet or as a piece's tuple."""
    if not isinstance(jets, tuple):
        jets = tuple(getattr(jets, name) for name in JET_NAMES)
    return [_bits(j) for j in jets]


class TestPiecesArePointwise:
    """A piece keeps no state and each jet at a point depends on that point
    alone: what the profile's evaluation, and the bulk chart that reads a
    stencil's distinct t~ only, rely on."""

    def test_grid_covers_both_pieces_and_the_collar_rise(self, sampled_pair):
        pair, t = sampled_pair
        left, rise = np.count_nonzero(t < pair.t1), np.count_nonzero(
            (t >= pair.t1) & (pair.h1(t) > 0.0))
        assert pair.t1 == 1e7 and left >= 100 and rise >= 100

    def test_jets_do_not_depend_on_the_other_points(self, sampled_pair):
        pair, t = sampled_pair
        whole = _jet_bits(pair.jets(t))
        mid = t.size // 2 + 7
        halves = [pair.jets(t[:mid]), pair.jets(t[mid:])]
        joined = [np.concatenate([getattr(j, name) for j in halves]) for name in JET_NAMES]
        assert _jet_bits(tuple(joined)) == whole
        backward = pair.jets(t[::-1].copy())
        assert _jet_bits(tuple(getattr(backward, name)[::-1] for name in JET_NAMES)) == whole

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_a_piece_keeps_no_state(self, sampled_pair, side):
        # grids A, B, A of one size: a piece that kept a result, or keyed one
        # on anything but the points, would return it for the other grid
        pair, t = sampled_pair
        on_left = t < pair.t1
        if side == "left":
            piece, grid_a = pair.left_piece, t[on_left]
            grid_b = np.linspace(pair.a3, pair.t1, grid_a.size + 1)[1:] - 0.5
        else:
            piece, grid_a = pair.right_piece, t[~on_left]
            grid_b = np.linspace(pair.t1, pair.b3, grid_a.size)
        first = _jet_bits(piece(grid_a))
        assert _jet_bits(piece(grid_b))[0] != first[0]
        assert _jet_bits(piece(grid_a)) == first

    def test_bulk_chart_reads_the_collar_radius_row_by_row(self, sampled_pair):
        from plumbric.meancurv import bulk_patch

        pair, t = sampled_pair
        patch = bulk_patch(pair, 3, 3)
        # points on the collar rise, where the radius varies with t~, two per slice
        rise = t[(t > pair.t1) & (pair.jets(t).h1 > 0.0)][:4]
        assert rise.size == 4
        x = np.full((8, patch.dim), math.pi / 2 + 0.1)
        x[:, 0] = np.repeat(rise, 2)
        x[:, 1] = np.tile([0.3, 0.6], 4) * pair.right.bN
        jets = patch.g(x)
        assert (jets[1][:, 0, -1] != 0.0).all()  # d_t~ of the last collar entry
        rows = [patch.g(x[i:i + 1]) for i in range(len(x))]
        for k in range(3):
            assert _bits(jets[k]) == _bits(np.concatenate([row[k] for row in rows]))


def _fixture_inputs():
    import pathlib
    fix = json.loads((pathlib.Path(__file__).parent / "fixtures"
                      / "search_regression.json").read_text())
    return [(r["p"], r["q"], r["R_over_N"], r["lambda"]) for r in fix.values()]


class TestOneRunoutPerCandidate:
    # the last two inputs are ones where the left piece's f'(t1) and the
    # search's join slope differ by 1 ulp
    @pytest.mark.parametrize("p,q,rn,lam", _fixture_inputs() + [
        (5, 5, 1.1, 0.3), (4, 6, math.pi / 4, 0.35)])
    def test_runout_solved_once_per_gated_candidate(self, monkeypatch, p, q, rn, lam):
        import plumbric.profiles as profiles

        runs = []
        solve = profiles.solve_runout

        def counted(*args):
            runs.append(solve(*args))
            return runs[-1]

        built = []
        build = profiles.build_right_profile

        def build_counted(left_t1, params, run):
            built.append(run)
            return build(left_t1, params, run)

        monkeypatch.setattr(profiles, "solve_runout", counted)
        monkeypatch.setattr(profiles, "build_right_profile", build_counted)
        res = search_parameters(p, q, rn, lam, mc_margin_tol=1e-9, grid_n=256)
        diag = res.diagnostics
        # a candidate through the six cheap gates is either rejected by
        # ``runout`` or evaluated, and solves one run-out either way
        gated = diag["evaluations"] + sum(g == "runout" for *_, g in diag["rejected"])
        assert len(runs) == gated >= 1
        assert built and all(any(b is r for r in runs) for b in built)
        assert res.right.b3 == res.right.t1 + built[-1].length


class TestRegressionFixture:
    def test_search_reproduces_recorded_parameters(self):
        import pathlib
        fix = json.loads((pathlib.Path(__file__).parent / "fixtures"
                          / "search_regression.json").read_text())
        for key, rec in fix.items():
            res = search_parameters(rec["p"], rec["q"], rec["R_over_N"],
                                    rec["lambda"], mc_margin_tol=1e-9, grid_n=2048)
            # the first candidate that passes the gates is accepted
            assert res.diagnostics["evaluations"] == 1
            assert res.left.a == pytest.approx(rec["left"]["a"], rel=1e-12)
            assert res.left.C == pytest.approx(rec["left"]["C"], rel=1e-12)
            assert res.left.r == pytest.approx(rec["left"]["r"], rel=1e-9)
            assert res.right.t1 == pytest.approx(rec["right"]["t1"], rel=1e-12)
            assert res.right.b3 == pytest.approx(rec["right"]["b3"], rel=1e-9)
            assert res.right.beta == pytest.approx(rec["right"]["beta"], rel=1e-12)
            assert res.measurement.ricci_min == pytest.approx(rec["ricci_min"], rel=1e-3)
            assert res.measurement.margin_min("reported") == pytest.approx(
                rec["margin_min_reported"], rel=1e-3)
