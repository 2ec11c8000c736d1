import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csv_reference import first_difference, savetxt_csv
from ode_reference import reference_solution
from plumbric.pipeline import NiceCoordinateSpec, params_json, run_construction
from plumbric.plumbing import PlumbingTree, PlumbingVertex
from plumbric.profiles import (A3, CSV_BLOCK_ROWS, ODE_HORIZON, PROFILE_COLUMNS, SEARCH_T1,
                               BoundaryConditionError, EpsilonProfile, InfeasibleProfileError,
                               LeftParams, ProfileError, build_left_profile, check_bc,
                               csv_blocks, integrate_fC, search_parameters, solve_runout)

RNG = np.random.default_rng(7)


class TestOdes:
    # h0 does not depend on C; these read it off the joint solve at C = 0.5
    def test_h0_initial_data(self):
        for lam in (0.1, 0.2, 0.35):
            ode = integrate_fC(0.5, lam, 20.0)
            assert float(ode.h0(A3)) == pytest.approx(math.sqrt(-2 * math.log(lam)), abs=1e-12)
            assert float(ode.h0_d1(A3)) == pytest.approx(lam, abs=1e-10)
            assert float(ode.h0_d2(A3)) == pytest.approx(
                -lam ** 2 * math.sqrt(-2 * math.log(lam)), rel=1e-8)

    def test_h0_value_example(self):
        ode = integrate_fC(0.5, 0.1, 5.0)
        assert float(ode.h0(A3)) == pytest.approx(2.1459660262893476, abs=1e-10)
        ode2 = integrate_fC(0.5, 0.2, 5.0)
        assert float(ode2.h0_d2(A3)) == pytest.approx(-0.0717649, abs=5e-7)

    def test_fc_initial_data(self):
        ode = integrate_fC(0.5, 0.1, 5.0)
        assert float(ode.fc_d2(A3)) == pytest.approx(0.005, abs=1e-12)

    def test_monotonicity(self):
        ode = integrate_fC(0.4, 0.2, 60.0)
        t = np.linspace(A3 + 1e-6, 60.0, 500)
        assert np.all(ode.h0_d1(t) > 0)
        assert np.all(ode.h0_d2(t) < 0)
        assert np.all(ode.fc(t) > 1e-12)
        assert np.all(ode.fc_d1(t) > 1e-12)
        assert np.all(ode.fc_d2(t) > 1e-12)

    def test_ratio_property(self):
        # fC'/(fC h0 h0') stays inside [0, 1] along the whole run
        for lam, C in ((0.1, 0.5), (0.3, 0.9), (0.45, 0.2)):
            ode = integrate_fC(C, lam, A3 + 50.0)
            t = np.linspace(A3, A3 + 50.0, 2000)
            ratio = ode.fc_d1(t) / (ode.fc(t) * ode.h0(t) * ode.h0_d1(t))
            assert ratio.min() >= -1e-9
            assert ratio.max() <= 1.0 + 1e-9

    def test_self_consistency_by_differencing(self):
        ode = integrate_fC(0.5, 0.1, 30.0)
        t = np.linspace(1.0, 29.0, 200)
        d = 1e-5
        fd_h0 = (ode.h0(t + d) - ode.h0(t - d)) / (2 * d)
        assert np.max(np.abs(fd_h0 - ode.h0_d1(t))) < 1e-8
        fd_fc1 = (ode.fc_d1(t + d) - ode.fc_d1(t - d)) / (2 * d)
        assert np.max(np.abs(fd_fc1 - ode.fc_d2(t))) < 1e-8

    def test_growth_surrogate(self):
        # the fiber solution eventually grows without bound; visible within
        # 50 units once the collar dynamics are fast
        ode = integrate_fC(0.9, 0.45, 55.0)
        assert float(ode.fc(A3 + 50.0)) > 10.0 * float(ode.fc(A3))

    def test_decay_surrogate(self):
        # fc * h0' -> 0; the tenfold drop needs a slightly longer horizon
        # than the raw decrease (which criterion 3 checks at +50)
        ode = integrate_fC(0.5, 0.1, 250.0)
        assert float(ode.fc(210.0) * ode.h0_d1(210.0)) < \
            0.1 * float(ode.fc(A3 + 1.0) * ode.h0_d1(A3 + 1.0))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _reference_values(ref, t) -> tuple:
    """(h0, fC, fC') of the reference at t, evaluated as the solver evaluates."""
    y = ref.sol(np.atleast_1d(np.asarray(t, dtype=float)))
    return tuple(y[k].reshape(np.shape(t)) for k in range(3))


class TestOnDemandOde:
    """The warp ODE steps only as far as its evaluations read it, and every
    value equals the full ``solve_ivp`` solve's (``tests/ode_reference.py``)."""

    @settings(max_examples=30, deadline=None)
    @given(C=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           lam=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
           t_end=st.sampled_from((50.0, SEARCH_T1[0], 1.2 * SEARCH_T1[-1])),
           order=st.sampled_from(("ascending", "descending", "shuffled")),
           data=st.data())
    def test_values_equal_the_reference_bit_for_bit(self, C, lam, t_end, order, data):
        ref = reference_solution(C, lam, t_end)
        ode = integrate_fC(C, lam, t_end)
        # step points of the reference, points between them, and both ends
        picks = data.draw(st.lists(st.integers(0, len(ref.t) - 1), min_size=1, max_size=10))
        fracs = data.draw(st.lists(st.floats(0.0, 1.0), max_size=10))
        t = [*ref.t[picks], *(A3 + x * (t_end - A3) for x in fracs), A3, t_end]
        if order == "shuffled":
            t = data.draw(st.permutations(t))
        else:
            t = sorted(t, reverse=order == "descending")
        for x in t:
            got = (ode.h0(x), ode.fc(x), ode.fc_d1(x))
            assert list(map(_bits, got)) == list(map(_bits, _reference_values(ref, x))), x
        t = np.array(t)
        got = (ode.h0(t), ode.fc(t), ode.fc_d1(t))
        assert list(map(_bits, got)) == list(map(_bits, _reference_values(ref, t)))
        assert ode.t_covered in ref.t

    def test_search_at_the_first_join_stops_short(self):
        odes = {}
        res = search_parameters(4, 4, math.pi / 4, 0.1, mc_margin_tol=1e-9, grid_n=256,
                                odes=odes)
        assert res.right.t1 == SEARCH_T1[0]
        [(C, lam)] = odes
        ode = odes[(C, lam)]
        assert ode.t_end == 1.2 * SEARCH_T1[-1]
        assert SEARCH_T1[0] <= ode.t_covered < ode.t_end
        ref = reference_solution(C, lam, ode.t_end)
        steps = int(np.searchsorted(ref.t, ode.t_covered))
        assert ref.t[steps] == ode.t_covered
        assert steps < 0.8 * (len(ref.t) - 1)
        # a later reader continues the same solver up to where it reads
        assert _bits(ode.fc(SEARCH_T1[1])) == _bits(_reference_values(ref, SEARCH_T1[1])[1])
        assert ode.t_covered < ode.t_end

    def test_a_fresh_ode_rebuilds_the_accepted_left_piece(self):
        # a rebuild from the accepted parameters needs only the one horizon
        res = search_parameters(4, 4, math.pi / 4, 0.1, mc_margin_tol=1e-9, grid_n=2048)
        left, t1 = res.left, res.right.t1
        piece = build_left_profile(left, t1, integrate_fC(left.C, left.lam, ODE_HORIZON))
        jets = res.measurement.jets
        on_left = jets.t < t1
        assert np.count_nonzero(on_left) >= 1
        # the check grid has few samples there, so compare on a dense grid too
        dense = np.linspace(A3, t1, 513)[:-1]
        for name in ("f", "f1", "f2", "h", "h1", "h2"):
            assert np.array_equal(getattr(piece, name)(jets.t[on_left]),
                                  getattr(jets, name)[on_left]), name
            assert np.array_equal(getattr(piece, name)(dense),
                                  getattr(res.pair, name)(dense)), name


class TestLeftPiece:
    def test_bc1_values(self):
        lam, a, r = 0.1, 1.0, 0.05
        params = LeftParams(lam=lam, a=a, C=0.5, r=r)
        assert params.alpha == pytest.approx(2.1459660262893476, rel=1e-12)
        lp = build_left_profile(params, 5.0, integrate_fC(0.5, lam, 15.0))
        assert float(lp.f(A3)) == pytest.approx(params.alpha * r, abs=1e-12)
        assert float(lp.f(A3)) == pytest.approx(0.10730, abs=5e-6)
        assert float(lp.f1(A3)) == pytest.approx(0.0, abs=1e-12)

    def test_collar_slope_bound(self):
        lp = build_left_profile(LeftParams(lam=0.1, a=0.5, C=0.5, r=0.05), 5.0,
                                integrate_fC(0.5, 0.1, 15.0))
        assert float(lp.h1(A3)) == pytest.approx(0.05, abs=1e-10)

    def test_short_ode_rejected(self):
        params = LeftParams(lam=0.1, a=0.5, C=0.5, r=0.05)
        ode = integrate_fC(params.C, params.lam, t_end=4.0)
        with pytest.raises(ProfileError, match="before t1"):
            build_left_profile(params, 5.0, ode=ode)

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


class TestEpsilonProfile:
    def test_shape(self):
        ep = EpsilonProfile(a2=-1.0, b2=0.0, eps_end=0.4)
        t = np.linspace(-1.0, 0.0, 501)
        e = ep.eps(t)
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

        def build_counted(left, params, run):
            built.append(run)
            return build(left, params, run)

        monkeypatch.setattr(profiles, "solve_runout", counted)
        monkeypatch.setattr(profiles, "build_right_profile", build_counted)
        res = search_parameters(p, q, rn, lam, mc_margin_tol=1e-9, grid_n=256)
        diag = res.diagnostics
        # a candidate through the five cheap gates is either rejected by
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
