"""Each record at its threshold, and the witnesses that a changed comparison,
factor or connective in the check layer cannot pass unnoticed.

The threshold tests judge measurements built as data through the real
``profiles.sample_verdict``, ``certify._step_record`` and
``certify._collar_ball_record``: each record is judged once with its value
exactly at its threshold, so a strict comparison turned weak (or the
reverse) fails a test.  The witnesses re-judge a genuine accepted profile:
the collar-ball bound just inside its 0.99 factor, the b3 gluing form
failing on its own, and the beta N scale split as (beta N / 2) * 2.
"""

import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from plumbric import certify, meancurv, profiles
from plumbric.caps import COEFF_TOL, BlockDiagonalForm, perelman_form_check
from plumbric.meancurv import MC_VARIANTS
from plumbric.plumbing import PlumbingTree, PlumbingVertex
from plumbric.profiles import BC_TOL, LeftParams, ProfileMeasurement, RightParams
from plumbric.warped import WarpedJet

TOL = 1e-9  # the margin tolerance the data measurements are judged with
P = Q = 3


def _data_measurement(left=LeftParams(lam=0.1, a=0.2, C=0.5, r=1.0, a3=-1.0), h1_a3=None,
                      h1_b3=0.0, ricci_min=1.0, margin_min=1.0):
    """A two-sample measurement, a3 and b3, with h(b3) = beta rho = 1.0 and
    h'(a3) = a lambda unless given, on which every two-sided clause but
    h1_b3 holds with residual 0."""
    right = RightParams(t1=10.0, b3=20.0, beta=4.0, rho=0.25, N=1.0, R=math.pi / 4)
    bN, angle = right.bN, right.angle
    jets = WarpedJet(t=np.array([left.a3, right.b3]),
                     f=np.array([left.alpha * left.r, bN * math.sin(angle)]),
                     f1=np.array([0.0, math.cos(angle)]), f2=np.zeros(2),
                     h=np.array([left.alpha, right.beta * right.rho]),
                     h1=np.array([left.a * left.lam if h1_a3 is None else h1_a3, h1_b3]),
                     h2=np.zeros(2))
    return ProfileMeasurement(
        jets=jets, left=left, right=right, eps_b2=math.asin(left.alpha * left.r / bN),
        p=P, q=Q, ricci_min=ricci_min,
        margins={v: np.array([margin_min, 1.0]) for v in MC_VARIANTS})


def _verdict(m):
    """{record id: record} of ``sample_verdict`` at the tolerance TOL."""
    return {c["id"]: c for c in profiles.sample_verdict(m, TOL)[1]}


def _failed(records):
    return sorted(k for k, c in records.items() if not c["passed"])


class TestThresholds:
    def test_data_measurement_passes(self):
        records = _verdict(_data_measurement())
        assert _failed(records) == [] and records["bc_nine_clauses"]["value"] == 0.0

    def test_ricci_min_of_zero_fails(self):
        rec = _verdict(_data_measurement(ricci_min=0.0))["boundary_ricci_positive"]
        assert not rec["passed"] and rec["value"] == 0.0 and rec["tolerance"] == 0.0

    def test_margin_at_minus_the_tolerance_passes(self):
        rec = _verdict(_data_measurement(margin_min=-TOL))["neck_mc_margin"]
        assert rec["passed"] and rec["value"] == rec["tolerance"] == -TOL

    def test_clause_residual_of_bc_tol_passes(self):
        # h'(b3) = BC_TOL against its target 0; the b3 gluing sum BC_TOL / h(b3)
        # is positive
        m = _data_measurement(h1_b3=BC_TOL)
        bc, checks = profiles.sample_verdict(m, TOL)
        assert bc.clauses["h1_b3"]["residual"] == BC_TOL and bc.clauses["h1_b3"]["passed"]
        records = {c["id"]: c for c in checks}
        assert _failed(records) == [] and records["bc_nine_clauses"]["value"] == BC_TOL

    def test_one_sided_clause_residual_of_bc_tol_passes(self):
        # h'(a3) = BC_TOL at lambda = 2^-100: the residual BC_TOL - lambda
        # rounds to BC_TOL, and the a3 collar sum (lambda - BC_TOL)/alpha stays
        # above -COEFF_TOL as alpha = sqrt(200 ln 2) > 10
        left = LeftParams(lam=2.0 ** -100, a=1.0, C=0.5, r=0.1, a3=-1.0)
        bc, checks = profiles.sample_verdict(_data_measurement(left, h1_a3=BC_TOL), TOL)
        assert bc.clauses["h1_a3"]["residual"] == BC_TOL and bc.clauses["h1_a3"]["passed"]
        assert _failed({c["id"]: c for c in checks}) == []

    def test_b3_collar_gluing_sum_of_minus_coeff_tol_passes(self):
        # h(b3) = beta rho = 1.0 and h'(b3) = -1e-9: the b3 collar sum h'/h
        # against the cap side's 0 is exactly -COEFF_TOL
        m = _data_measurement(h1_b3=-1e-9)
        assert float(m.jets.h1[-1] / m.jets.h[-1]) == -COEFF_TOL
        records = _verdict(m)
        assert _failed(records) == [] and records["glue_interfaces"]["passed"]

    def _step_checks(self, monkeypatch, bulk, taper):
        """``certify._step_record``'s records of the data measurement, with
        the bulk oracle's sample values ``bulk`` and the taper value ``taper``."""
        m = _data_measurement()
        monkeypatch.setattr(profiles, "bulk_scalar_samples", lambda pair, p, q: list(bulk))
        result = SimpleNamespace(left=m.left, right=m.right, measurement=m,
                                 pair=SimpleNamespace(eps_b2=m.eps_b2),
                                 checks=profiles.sample_verdict(m, TOL)[1])
        spec = certify.NiceCoordinateSpec(p=P, q=Q, R=math.pi / 4, N=1.0, kappa=1.0)
        return {c["id"]: c for c in certify._step_record(0, spec, result, TOL, taper)["checks"]}

    def test_bulk_min_of_zero_fails(self, monkeypatch):
        records = self._step_checks(monkeypatch, bulk=[2.0, 0.0, 1.0, 3.0], taper=1.0)
        rec = records["bulk_scalar_positive"]
        assert not rec["passed"] and rec["value"] == 0.0 and rec["tolerance"] == 0.0
        assert _failed(records) == ["bulk_scalar_positive", "collar_attachment_hypothesis"]

    def test_taper_at_minus_the_tolerance_passes(self, monkeypatch):
        records = self._step_checks(monkeypatch, bulk=[2.0, 1.0, 1.0, 3.0], taper=-TOL)
        rec = records["taper_mc_nonnegative"]
        assert rec["passed"] and rec["value"] == rec["tolerance"] == -TOL
        assert _failed(records) == []

    def test_rho_at_the_collar_ball_bound_fails(self):
        rec = certify._collar_ball_record(0.99, 1.0)
        assert not rec["passed"] and rec["value"] == rec["tolerance"] == 0.99
        assert certify._collar_ball_record(0.9899, 1.0)["passed"]


@pytest.fixture(scope="module")
def accepted():
    """The accepted 3x3 search at R/N = pi/4, lambda = 0.1 on a 256-point grid."""
    return profiles.search_parameters(P, Q, math.pi / 4, 0.1, mc_margin_tol=TOL, grid_n=256)


class TestWitnesses:
    def test_collar_ball_bound_just_inside_its_factor(self):
        # rho does not depend on kappa: at kappa = rho / 0.995 the collar end
        # sits between 0.99 kappa and kappa, and only the bound fails
        tree = PlumbingTree(
            vertices=(PlumbingVertex(base_dim=Q, rank=P, euler=2, char_label="v"),), edges=())
        config = {"grid": 256}
        first = certify.run_construction(
            tree, certify.NiceCoordinateSpec(p=P, q=Q, R=math.pi / 4, N=1.0, kappa=0.5),
            config)
        assert first.passed
        rho = first.steps[0]["right"]["rho"]
        kappa = rho / 0.995
        cert = certify.run_construction(
            tree, certify.NiceCoordinateSpec(p=P, q=Q, R=math.pi / 4, N=1.0, kappa=kappa),
            config)
        step = cert.steps[0]
        assert not cert.passed and step["right"]["rho"] == rho
        assert [c["id"] for c in step["checks"] if not c["passed"]] == ["collar_ball_bound"]
        assert json.dumps(step["checks"][:-1]) == json.dumps(first.steps[0]["checks"][:-1])

    def test_glue_interfaces_fails_at_b3_alone(self, accepted):
        # h'(b3) = -5e-9 h(b3): the b3 collar sum is -5e-9, below -COEFF_TOL,
        # while the h1_b3 residual stays within BC_TOL as h(b3) <= 2
        m = accepted.measurement
        h_b3 = float(m.jets.h[-1])
        assert h_b3 <= 2.0
        h1 = np.array(m.jets.h1, copy=True)
        h1[-1] = -5e-9 * h_b3
        bent = replace(m, jets=replace(m.jets, h1=h1))
        bc, checks = profiles.sample_verdict(bent, TOL)
        records = {c["id"]: c for c in checks}
        assert bc.passed and records["bc_nine_clauses"]["passed"]
        assert _failed(records) == ["glue_interfaces"]
        II_a3, _II_b3 = meancurv.interface_forms(bent.jets, P, Q)
        taper_side = BlockDiagonalForm(
            ((m.left.lam / m.left.alpha, Q - 1), (0.0, P - 1)))
        assert perelman_form_check(II_a3, taper_side)

    def test_beta_n_split_as_a_power_of_two(self, accepted):
        # (beta, rho, N, R) = (beta N / 2, 2 rho, 2, 2 R/N) has the search's
        # beta N, beta rho and R/N exactly, so every record and margin is the
        # N = 1 one bit for bit
        m, right = accepted.measurement, accepted.right
        assert right.N == 1.0
        split = RightParams(t1=right.t1, b3=right.b3, beta=right.bN / 2, rho=2 * right.rho,
                            N=2.0, R=2 * right.angle)
        again = profiles.measure_profile(m.jets, m.left, split, m.eps_b2, P, Q)
        assert json.dumps(profiles.sample_verdict(again, TOL)[1]) == json.dumps(accepted.checks)
        assert json.dumps(again.summary()) == json.dumps(m.summary())
        for variant in MC_VARIANTS:
            assert np.array_equal(again.margins[variant], m.margins[variant])
