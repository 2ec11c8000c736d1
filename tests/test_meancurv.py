import math

import numpy as np
import pytest

from charts_reference import affine_warp, oracle_boundary_mean_curvature
from plumbric.caps import BlockDiagonalForm, perelman_form_check
from plumbric.meancurv import (MC_VARIANTS, CurveDomainError, ab_terms, build_curve,
                               interface_checks, interface_forms, neck_margins,
                               z2_mean_curvature, z3_mean_curvature)
from plumbric.profiles import EpsilonProfile, search_parameters
from plumbric.warped import WarpedJet


@pytest.fixture(scope="module")
def found44():
    return search_parameters(4, 4, math.pi / 4, 0.1, mc_margin_tol=1e-9, grid_n=2048)


class SyntheticPair:
    """Minimal profile interface for curve tests: smooth f, constant h."""

    def __init__(self, a3=0.0, b3=4.0):
        self.a3, self.b3 = a3, b3

    def grid(self, n=2048):
        return np.linspace(self.a3, self.b3, n)

    def jets(self, t):
        return WarpedJet(t, *(getattr(self, name)(t)
                              for name in ("f", "f1", "f2", "h", "h1", "h2")))

    def f(self, t):
        return 1.2 + 0.4 * np.sin(0.7 * np.asarray(t, dtype=float))

    def f1(self, t):
        return 0.28 * np.cos(0.7 * np.asarray(t, dtype=float))

    def f2(self, t):
        return -0.196 * np.sin(0.7 * np.asarray(t, dtype=float))

    def h(self, t):
        return np.full(np.shape(t), 2.0, dtype=float)

    def h1(self, t):
        return np.zeros(np.shape(t))

    def h2(self, t):
        return np.zeros(np.shape(t))


class ConstantFiberPair(SyntheticPair):
    def f(self, t):
        return np.full(np.shape(t), 1.2, dtype=float)

    def f1(self, t):
        return np.zeros(np.shape(t))

    def f2(self, t):
        return np.zeros(np.shape(t))


class ArcPair(SyntheticPair):
    """Exact ambient arc: the graph description is degenerate everywhere."""

    def __init__(self, bN, a3=0.0, b3=2.0):
        super().__init__(a3, b3)
        self.bN = bN

    def f(self, t):
        return self.bN * np.sin(np.asarray(t, dtype=float) / self.bN + 0.2)

    def f1(self, t):
        return np.cos(np.asarray(t, dtype=float) / self.bN + 0.2)

    def f2(self, t):
        return -np.sin(np.asarray(t, dtype=float) / self.bN + 0.2) / self.bN


class TestBuildCurve:
    def test_constant_fiber_is_horizontal(self):
        pair = ConstantFiberPair()
        curve = build_curve(pair, beta=3.0, N=1.0, grid_n=256)
        assert np.allclose(curve.F1[curve.mask], 0.0, atol=1e-14)
        # flat limit: arclength matches the coordinate up to the metric factor
        phi1 = np.sqrt(curve.D[curve.mask] / curve.E[curve.mask])
        assert np.allclose(phi1, phi1[0])

    def test_arclength_relation(self):
        pair = SyntheticPair()
        curve = build_curve(pair, beta=3.0, N=1.0, grid_n=512)
        lhs = np.sqrt(curve.D / curve.E) * np.sqrt(1.0 + curve.F1 ** 2)
        assert np.max(np.abs(lhs[curve.mask] - 1.0)) < 1e-8

    def test_f2_matches_differencing(self):
        pair = SyntheticPair()
        curve = build_curve(pair, beta=3.0, N=1.0, grid_n=4096)
        from scipy.interpolate import CubicSpline
        sp = CubicSpline(curve.t_tilde, curve.F)
        interior = slice(200, -200)
        fd = sp(curve.t_tilde[interior], 2)
        rel = np.abs(fd - curve.F2[interior]) / (1.0 + np.abs(fd))
        assert np.max(rel) < 1e-5

    def test_exact_arc_rejected(self):
        pair = ArcPair(bN=5.0)
        with pytest.raises(CurveDomainError):
            build_curve(pair, beta=5.0, N=1.0, grid_n=256)

    def test_fiber_radius_cap(self):
        pair = SyntheticPair()
        with pytest.raises(CurveDomainError):
            build_curve(pair, beta=1.0, N=1.0, grid_n=128)


class TestAbTerms:
    def test_cylinder_slice(self):
        # f' = 0, f'' = 0: destabilizing terms vanish, A > 0 below the equator
        jet = WarpedJet(t=0.0, f=1.0, f1=0.0, f2=0.0, h=1.0, h1=0.0, h2=0.0)
        for variant in ("reported", "curvature", "unit"):
            A, B = ab_terms(jet, beta=4.0, N=1.0, p=4, q=4)[variant]
            assert B == pytest.approx(0.0, abs=1e-15)
            assert A > 0

    def test_equator_limit(self):
        bN = 4.0
        jet = WarpedJet(t=0.0, f=bN * (1 - 1e-9), f1=0.0, f2=0.0,
                        h=1.0, h1=0.0, h2=0.0)
        A, B = ab_terms(jet, beta=4.0, N=1.0, p=4, q=4)["reported"]
        assert abs(A) < 1e-4 and abs(B) < 1e-15

    def test_large_scale_limit(self):
        # cot(F/(beta N))/(beta N) -> 1/F: the reported-normalization A approaches
        # (p-1)(1-f'^2)^2/F as beta grows with the jet fixed
        p = q = 4
        jet = WarpedJet(t=0.0, f=2.0, f1=0.4, f2=0.0, h=1.0, h1=0.0, h2=0.0)
        expected = (p - 1) * (1 - 0.4 ** 2) ** 2 / 2.0
        prev_err = None
        for beta in (1e2, 1e4, 1e6):
            A, _ = ab_terms(jet, beta=beta, N=1.0, p=p, q=q)["reported"]
            err = abs(A - expected) / expected
            if prev_err is not None:
                assert err < prev_err
            prev_err = err
        assert prev_err < 1e-10

    def test_left_piece_destabilizer_decays(self):
        # B on the collar piece shrinks with the fiber scale b and a^2
        from plumbric.profiles import LeftParams, build_left_profile
        t = np.linspace(0.0, 50.0, 400)
        maxB = {}
        for scale in (1.0, 0.5, 0.25):
            lp = build_left_profile(
                LeftParams(lam=0.1, a=0.2 * scale, C=0.5, r=0.05 * scale))
            jets = WarpedJet(t, *lp(t))
            _A, B = ab_terms(jets, beta=1e3, N=1.0, p=4, q=4)["reported"]
            maxB[scale] = float(np.max(np.abs(B)))
        assert maxB[0.5] < maxB[1.0]
        assert maxB[0.25] < maxB[0.5]

    def test_domain_violation(self):
        jet = WarpedJet(t=0.0, f=5.0, f1=0.0, f2=0.0, h=1.0, h1=0.0, h2=0.0)
        with pytest.raises(CurveDomainError):
            ab_terms(jet, beta=4.0, N=1.0, p=4, q=4)["reported"]

    def test_margin_grows_with_end_scale(self):
        # on a fixed collar piece the margin becomes positive for large beta
        from plumbric.profiles import LeftParams, build_left_profile
        lp = build_left_profile(LeftParams(lam=0.1, a=0.2, C=0.5, r=0.05))
        t = np.linspace(0.0, 50.0, 400)
        jets = WarpedJet(t, *lp(t))
        mins = []
        for beta in (10.0, 100.0, 1000.0):
            A, B = ab_terms(jets, beta=beta, N=1.0, p=4, q=4)["reported"]
            mins.append(float(np.min(A - B)))
        assert mins[1] > mins[0]
        assert mins[2] > mins[1]
        assert mins[2] > 0


class TestZ3:
    def test_accepted_profile_margins(self, found44):
        for variant in MC_VARIANTS:
            assert found44.measurement.margin_min(variant) >= -1e-9

    def test_curve_term_sign_on_concave_piece(self, found44):
        pair = found44.pair
        curve = build_curve(pair, pair.right.beta, pair.right.N, grid_n=2048)
        curve_pc = z3_mean_curvature(curve, pair, 4, 4)[0]
        right = curve.t > pair.t1
        # concave fiber profile: curve principal curvature nonnegative wherever
        # the curve bracket is nonpositive
        f = pair.f(curve.t[right])
        f1 = pair.f1(curve.t[right])
        f2 = pair.f2(curve.t[right])
        bN = pair.right.bN
        bracket = f2 * (1 - (f / bN) ** 2) + f1 ** 2 * f / bN ** 2
        cpc = curve_pc[right]
        neg_bracket = bracket <= 0
        assert np.all(cpc[neg_bracket] >= -1e-15)

    def test_sign_consistency(self, found44):
        # the unit-normalized margin is (mean curvature) E sqrt(D): the two
        # agree in sign on every sample with a graph description
        pair = found44.pair
        curve = build_curve(pair, pair.right.beta, pair.right.N, grid_n=2048)
        *_pcs, mc, degenerate = z3_mean_curvature(curve, pair, 4, 4)
        mg = neck_margins(pair.jets(curve.t), pair.right.beta, pair.right.N, 4, 4)["unit"]
        atol = 1e-7
        ok = ~((mc > atol) & (mg < -atol)) & ~((mc < -atol) & (mg > atol))
        assert np.all(ok | degenerate)

    def test_oracle_cross_check(self, found44):
        # both routes are exact: the worst of 40 samples read 1.6e-15 relative
        ts, mco, mcc = oracle_boundary_mean_curvature(found44.pair, 4, 4, n_points=4)
        assert len(ts) == 4
        assert np.all(np.sign(mco) == np.sign(mcc))
        assert np.max(np.abs(mco - mcc) / np.abs(mcc)) < 1e-12


class TestZ2:
    def test_taper_regions(self):
        ep = EpsilonProfile(a2=-1.0, b2=0.0, eps_end=0.4)
        rep = z2_mean_curvature(ep, affine_warp(0.1), r=0.1, p=4, q=4)
        flat = rep.t <= ep.tau1
        assert np.all(np.abs(rep.mean_curvature[flat]) < 1e-6)
        tapered = rep.t >= ep.tau2
        assert np.all(rep.mean_curvature[tapered] > 0)
        assert np.min(rep.mean_curvature) >= -1e-9

    def test_smaller_fiber_scale_raises_curvature(self):
        ep = EpsilonProfile(a2=-1.0, b2=0.0, eps_end=0.4)
        mins = []
        for r in (0.2, 0.1, 0.05):
            rep = z2_mean_curvature(ep, affine_warp(0.1), r=r, p=4, q=4)
            mid = (rep.t > ep.tau1) & (rep.t < ep.tau2)
            mins.append(float(np.min(rep.mean_curvature[mid])))
        assert mins[1] > mins[0]
        assert mins[2] > mins[1]

    def test_fiber_dominates_for_small_r(self):
        ep = EpsilonProfile(a2=-1.0, b2=0.0, eps_end=0.4)
        rep = z2_mean_curvature(ep, affine_warp(0.1), r=0.05, p=4, q=4)
        mid = (rep.t > ep.tau1) & (rep.t < ep.tau2)
        assert np.all(rep.fiber_pc_min[mid] > rep.other_pc_max_abs[mid])


class TestInterfaces:
    def test_accepted_profile_interfaces(self, found44):
        assert interface_checks(found44.measurement.jets, found44.left, found44.right, 4, 4)
        II_a3, II_b3 = interface_forms(found44.measurement.jets, 4, 4)
        left, right = found44.left, found44.right
        # collar block of the left form is -a*lambda/alpha, fiber block 0
        assert II_a3.blocks[0][0] == pytest.approx(-left.a * left.lam / left.alpha,
                                                   rel=1e-9)
        assert II_a3.blocks[1][0] == pytest.approx(0.0, abs=1e-9)
        # right form: collar block 0, fiber block cot at the cap angle
        X = right.angle
        assert II_b3.blocks[0][0] == pytest.approx(0.0, abs=1e-12)
        assert II_b3.blocks[1][0] == pytest.approx(
            math.cos(X) / (right.bN * math.sin(X)), rel=1e-9)

    def test_perturbed_collar_slope_fails(self, found44):
        left = found44.left
        q = p = 4
        bad = BlockDiagonalForm(((-2 * left.lam / left.alpha, q - 1), (0.0, p - 1)))
        taper_side = BlockDiagonalForm(((left.lam / left.alpha, q - 1), (0.0, p - 1)))
        assert not perelman_form_check(bad, taper_side)
