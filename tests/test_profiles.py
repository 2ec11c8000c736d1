import json
import math

import numpy as np
import pytest

from plumbric.profiles import (A3, BoundaryConditionError, EpsilonProfile,
                               InfeasibleProfileError, LeftParams, PartialProfile,
                               ProfilePair, RightParams, build_left_profile,
                               check_bc, integrate_fC, integrate_h0,
                               search_parameters, smooth_c1_join, solve_runout)

RNG = np.random.default_rng(7)


class TestOdes:
    def test_h0_initial_data(self):
        for lam in (0.1, 0.2, 0.35):
            ode = integrate_h0(lam, 20.0)
            assert float(ode.h0(A3)) == pytest.approx(math.sqrt(-2 * math.log(lam)), abs=1e-12)
            assert float(ode.h0_d1(A3)) == pytest.approx(lam, abs=1e-10)
            assert float(ode.h0_d2(A3)) == pytest.approx(
                -lam ** 2 * math.sqrt(-2 * math.log(lam)), rel=1e-8)

    def test_h0_value_example(self):
        ode = integrate_h0(0.1, 5.0)
        assert float(ode.h0(A3)) == pytest.approx(2.1459660262893476, abs=1e-10)
        ode2 = integrate_h0(0.2, 5.0)
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


class TestLeftPiece:
    def test_bc1_values(self):
        lam, a, r = 0.1, 1.0, 0.05
        params = LeftParams(lam=lam, a=a, C=0.5, r=r)
        assert params.alpha == pytest.approx(2.1459660262893476, rel=1e-12)
        lp = build_left_profile(params, 5.0)
        assert float(lp.f(A3)) == pytest.approx(params.alpha * r, abs=1e-12)
        assert float(lp.f(A3)) == pytest.approx(0.10730, abs=5e-6)
        assert float(lp.f1(A3)) == pytest.approx(0.0, abs=1e-12)

    def test_collar_slope_bound(self):
        lp = build_left_profile(LeftParams(lam=0.1, a=0.5, C=0.5, r=0.05), 5.0)
        assert float(lp.h1(A3)) == pytest.approx(0.05, abs=1e-10)

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


def toy_pair(kink=0.3):
    """Small synthetic C^1 profile with an f''-kink at t1 for smoothing tests."""
    t1, b3 = 1.0, 3.0

    def mk(fv, f1v, f2v, hv, h1v, h2v):
        return PartialProfile(t_lo=0.0, t_hi=b3,
                              f=fv, f1=f1v, f2=f2v, h=hv, h1=h1v, h2=h2v)

    # left: f = 1 + t + kink/2 (t-1)^2, right: f = 1 + t - kink/2 (t-1)^2
    left = mk(lambda t: 1 + np.asarray(t) + 0.5 * kink * (np.asarray(t) - t1) ** 2,
              lambda t: 1 + kink * (np.asarray(t) - t1),
              lambda t: np.full(np.shape(t), kink, dtype=float),
              lambda t: 2.0 + 0.1 * np.asarray(t),
              lambda t: np.full(np.shape(t), 0.1, dtype=float),
              lambda t: np.zeros(np.shape(t)))
    right = mk(lambda t: 1 + np.asarray(t) - 0.5 * kink * (np.asarray(t) - t1) ** 2,
               lambda t: 1 - kink * (np.asarray(t) - t1),
               lambda t: np.full(np.shape(t), -kink, dtype=float),
               lambda t: 2.0 + 0.1 * np.asarray(t),
               lambda t: np.full(np.shape(t), 0.1, dtype=float),
               lambda t: np.zeros(np.shape(t)))
    # scales consistent with the synthetic values h(0) = 2, f(0) = 1.15
    a_scale = 2.0 / math.sqrt(-2.0 * math.log(0.1))
    lp = LeftParams(lam=0.1, a=a_scale, C=0.5, r=(1 + 0.5 * kink) / 2.0)
    rp = RightParams(t1=t1, b3=b3, beta=10.0, rho=0.1, N=1.0, R=math.pi / 4)
    return ProfilePair(left=lp, right=rp, pieces=(left, right),
                       boundaries=(0.0, t1, b3), eps_b2=0.1)


class TestSmoothing:
    def test_identity_join(self):
        pair = toy_pair(kink=0.0)
        sm = smooth_c1_join(pair, "t1", window=0.2)
        t = np.linspace(0.0, 3.0, 301)
        assert np.allclose(sm.f(t), pair.f(t), atol=1e-14)
        assert np.allclose(sm.f1(t), pair.f1(t), atol=1e-13)

    def test_identical_outside_window(self):
        pair = toy_pair()
        sm = smooth_c1_join(pair, "t1", window=0.2)
        t_out = np.concatenate([np.linspace(0.0, 0.79, 80),
                                np.linspace(1.21, 3.0, 80)])
        assert np.array_equal(sm.f(t_out), pair.f(t_out))
        assert np.array_equal(sm.h(t_out), pair.h(t_out))

    def test_second_derivative_bounded_and_single_sign_change(self):
        pair = toy_pair(kink=0.3)
        sm = smooth_c1_join(pair, "t1", window=0.2)
        t = np.linspace(0.801, 1.199, 2001)
        f2 = sm.f2(t)
        # within piecewise extremes, with a small slack for the blend cross terms
        slack = 0.05 * 0.6
        assert f2.max() <= 0.3 + slack
        assert f2.min() >= -0.3 - slack
        signs = np.sign(f2[np.abs(f2) > 1e-9])
        assert np.count_nonzero(np.diff(signs) != 0) == 1

    def test_window_shrink_convergence(self):
        pair = toy_pair(kink=0.3)
        t = np.linspace(0.5, 1.5, 1001)
        sup1 = np.max(np.abs(smooth_c1_join(pair, "t1", window=0.2).f(t) - pair.f(t)))
        sup2 = np.max(np.abs(smooth_c1_join(pair, "t1", window=0.1).f(t) - pair.f(t)))
        assert sup2 < 0.6 * sup1

    def test_window_too_large(self):
        pair = toy_pair()
        with pytest.raises(Exception):
            smooth_c1_join(pair, "t1", window=5.0)

    def test_a3_marker_keeps_interface_values(self):
        pair = toy_pair()
        sm = smooth_c1_join(pair, "a3", window=0.04)
        lp = pair.left
        assert float(sm.h(0.0)) == pytest.approx(float(pair.h(0.0)), abs=1e-12)
        assert float(sm.f1(0.0)) <= 1e-10 + float(pair.f1(0.0))


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
        with pytest.raises(Exception):
            EpsilonProfile(a2=0.0, b2=1.0, eps_end=2.0)


class TestSearch:
    def test_lambda_gate(self):
        with pytest.raises(Exception):
            search_parameters(4, 4, math.pi / 4, 0.6)

    def test_found_profile_has_all_properties(self):
        res = search_parameters(4, 4, math.pi / 4, 0.1)
        assert res.ricci_min > 0
        assert res.margin_min_reported >= -1e-9
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
        res = search_parameters(4, 4, math.pi / 4, 0.1)
        report = check_bc(res.measurement.jets, res.left, res.right, res.pair.eps_b2)
        assert report.passed and not report.failures

    def test_serialization_roundtrip(self):
        res = search_parameters(4, 4, math.pi / 4, 0.1)
        csv = res.pair.to_csv(128)
        assert csv.splitlines()[0] == "t,f,f1,f2,h,h1,h2"
        doc = json.loads(res.pair.params_json())
        assert doc["schema"] == "plumbric-profile-params/1"
        assert doc["right"]["beta"] == res.right.beta


class TestRegressionFixture:
    def test_search_reproduces_recorded_parameters(self):
        import pathlib
        fix = json.loads((pathlib.Path(__file__).parent / "fixtures"
                          / "search_regression.json").read_text())
        for key, rec in fix.items():
            res = search_parameters(rec["p"], rec["q"], rec["R_over_N"],
                                    rec["lambda"])
            assert res.left.a == pytest.approx(rec["left"]["a"], rel=1e-12)
            assert res.left.C == pytest.approx(rec["left"]["C"], rel=1e-12)
            assert res.left.r == pytest.approx(rec["left"]["r"], rel=1e-9)
            assert res.right.t1 == pytest.approx(rec["right"]["t1"], rel=1e-12)
            assert res.right.b3 == pytest.approx(rec["right"]["b3"], rel=1e-9)
            assert res.right.beta == pytest.approx(rec["right"]["beta"], rel=1e-12)
            assert res.ricci_min == pytest.approx(rec["ricci_min"], rel=1e-3)
            assert res.margin_min_reported == pytest.approx(
                rec["margin_min_reported"], rel=1e-3)
