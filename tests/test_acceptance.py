"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, not configured elsewhere.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from charts_reference import doubly_warped_patch, euclidean_patch, sphere_stereographic
from plumbric.caps import BlockDiagonalForm, perelman_form_check
from plumbric.meancurv import interface_checks
from plumbric.oracle import numeric_curvature
from plumbric.pipeline import verify_samples
from plumbric.plumbing import (EtaLedger, arf_invariant, boundary_sphere_test,
                               eta_ledger, eta_local_contribution, tangent_chain)
from plumbric.profiles import integrate_fC, search_parameters
from plumbric.warped import WarpedJet, doubly_warped_ricci

from test_oracle import random_warping
from test_pipeline import load_fixture


def announce(num, label):
    print(f"\nACCEPTANCE {num}: PASS -- {label}")


class TestCriterion1:
    def test_oracle_correctness(self):
        t0 = time.monotonic()
        for n in (3, 5, 7):
            for r in (0.5, 1.0, 2.0):
                patch = sphere_stereographic(n, r)
                point = 0.05 * np.arange(1, n + 1)
                rep = numeric_curvature(patch, point)
                expected = n * (n - 1) / r ** 2
                assert abs(rep.scalar - expected) <= 1e-6 * expected
        flat = numeric_curvature(euclidean_patch(4), [0.1, -0.3, 0.2, 0.0])
        assert np.abs(flat.ricci).max() <= 1e-8
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0
        announce(1, f"oracle scalar on round spheres within 1e-6, flat Ricci "
                    f"<= 1e-8 ({elapsed:.1f}s)")


class TestCriterion2:
    def test_closed_form_vs_oracle(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(2024)
        p = q = 3
        for _ in range(100):
            f, f1, f2 = random_warping(rng)
            h, h1, h2 = random_warping(rng)
            t_at = rng.uniform(0.8, 1.2)
            patch = doubly_warped_patch(f, h, p, q, (t_at - 0.5, t_at + 0.5))
            point = np.concatenate([[t_at], rng.uniform(1.0, 2.0, p + q - 2)])
            rep = numeric_curvature(patch, point)
            jet = WarpedJet(t=t_at, f=float(f(t_at)), f1=float(f1(t_at)),
                            f2=float(f2(t_at)), h=float(h(t_at)),
                            h1=float(h1(t_at)), h2=float(h2(t_at)))
            rt, rh, rf = doubly_warped_ricci(jet, p, q)
            g0 = patch.g(point[np.newaxis])[0]
            pairs = ((rt, rep.ricci[0, 0] / g0[0]),
                     (rh, rep.ricci[1, 1] / g0[1]),
                     (rf, rep.ricci[q, q] / g0[q]))
            for closed, oracle in pairs:
                assert abs(closed - oracle) <= 1e-5 * (1.0 + abs(closed))
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0
        announce(2, f"100 random warped jets agree with the oracle "
                    f"componentwise within 1e-5 ({elapsed:.1f}s)")


class TestCriterion3:
    def test_ode_properties(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            lam = rng.uniform(0.05, 0.45)
            C = rng.uniform(0.05, 0.95)
            ode = integrate_fC(C, lam)
            assert abs(float(ode.jets(0.0).h0_d1) - lam) <= 1e-8
            assert abs(float(ode.jets(0.0).fc_d2) - C * lam * lam) <= 1e-8
            t = np.linspace(0.0, 50.0, 1001)
            w = ode.jets(t)
            ratio = w.fc_d1 / (w.fc * w.h0 * w.h0_d1)
            assert ratio.min() >= -1e-9
            assert ratio.max() <= 1.0 + 1e-9
            assert float(ode.jets(50.0).fc * ode.jets(50.0).h0_d1) < \
                float(ode.jets(1.0).fc * ode.jets(1.0).h0_d1)
        announce(3, "profile ODE initial data exact to 1e-8, slope ratio in "
                    "[0, 1], end product decreasing (20 random parameter pairs)")


class TestCriterion4:
    @pytest.mark.parametrize("pq", [(3, 3), (4, 4)])
    def test_end_to_end_construction(self, pq):
        p, q = pq
        t0 = time.monotonic()
        res = search_parameters(p, q, math.pi / 4, 0.1, mc_margin_tol=1e-9, grid_n=2048)
        ricci_min = res.measurement.ricci_min
        margin_min = res.measurement.margin_min("reported")
        assert ricci_min > 0.0
        assert margin_min >= -1e-9
        assert res.bc.passed
        for clause in res.bc.clauses.values():
            if clause["one_sided"]:
                assert clause["residual"] <= 1e-8
            else:
                assert abs(clause["residual"]) <= 1e-8
        assert interface_checks(res.measurement.jets, res.left, res.right, p, q)
        elapsed = time.monotonic() - t0
        assert elapsed < 300.0
        announce(4, f"(p,q)=({p},{q}): Ricci min {ricci_min:.2e} > 0, "
                    f"margin {margin_min:.2e} >= -1e-9, nine clauses "
                    f"within 1e-8, both gluing checks ({elapsed:.1f}s)")


class TestCriterion5:
    def test_cap_gluing_arithmetic(self):
        rng = np.random.default_rng(55)
        agree = 0
        for _ in range(1000):
            eps1, eps2 = rng.uniform(0.05, math.pi - 0.05, 2)
            rho = rng.uniform(0.2, 3.0)
            # a cap of angular radius eps bounded by S^3(rho) has the boundary
            # form (cos(eps)/rho) I
            c1 = BlockDiagonalForm(((math.cos(eps1) / rho, 3),))
            c2 = BlockDiagonalForm(((math.cos(eps2) / rho, 3),))
            blocks = perelman_form_check(c1, c2)
            cosine = math.cos(eps1) + math.cos(eps2) >= 0.0
            assert blocks == cosine
            agree += 1
        announce(5, f"cosine criterion equals the block form check on {agree} "
                    "random cap pairs")


class TestCriterion6:
    def test_determinant_and_arf_ledger(self):
        t0 = time.monotonic()
        for m in range(2, 21):
            sphere, det = boundary_sphere_test(tangent_chain(m, 3))
            if m % 2 == 0:
                assert abs(det) == 1
            else:
                assert det == 0
        assert arf_invariant(tangent_chain(2, 3)) == 1
        for l in (1, 2, 3, 4):
            assert arf_invariant(tangent_chain(8 * l, 3)) == 0
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0
        announce(6, f"chain determinants 0/±1 to length 20, Arf ledger exact "
                    f"({elapsed * 1e3:.0f}ms)")


class TestCriterion7:
    def test_eta_ledger(self):
        t0 = time.monotonic()
        for n in range(2, 11):
            assert eta_local_contribution(n) == Fraction(1, 2 ** n)
        lengths = tuple(range(1, 101))
        for counts in ({l: 2 * l + 1 for l in lengths},
                       {l: 8 * l + 1 for l in lengths}):
            res = eta_ledger(EtaLedger(k=1, lengths=lengths,
                                       fixed_point_counts=counts))
            assert res.distinct
            vals = list(res.etas.values())
            assert len(set(vals)) == len(vals)
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0
        announce(7, f"fixed-point contributions 2^-n exact, 100 end invariants "
                    f"pairwise distinct under both counting conventions "
                    f"({elapsed * 1e3:.0f}ms)")


class TestCriterion9:
    def test_determinism_and_fault_injection(self, tmp_path):
        from plumbric.pipeline import (NiceCoordinateSpec, certificate_json,
                                       run_construction, verify)
        from plumbric.plumbing import PlumbingTree, PlumbingVertex

        tree = PlumbingTree(
            vertices=(PlumbingVertex(base_dim=4, rank=4, euler=2, char_label="v1"),),
            edges=())
        spec = NiceCoordinateSpec(p=4, q=4, R=math.pi / 4, N=1.0, kappa=0.5)
        out = tmp_path / "fixture"
        cert = run_construction(tree, spec, out_dir=out)
        assert cert.passed
        prof = out / "profiles" / "step_0.csv"
        par = out / "profiles" / "step_0.params.json"
        v1 = verify(prof, par)
        v2 = verify(prof, par)
        assert v1.passed
        assert certificate_json(v1) == certificate_json(v2)

        cols, params = load_fixture(out)
        faults = {
            "eps_b2": ("param", "eps_b2", 1e-3),
            "h_a3": ("col", "h", 0, 1e-3),
            "h1_a3": ("col", "h1", 0, params["left"]["lambda"]),
            "f_a3": ("col", "f", 0, 1e-3),
            "f1_a3": ("col", "f1", 0, 1e-3),
            "h_b3": ("col", "h", -1, 1e-3),
            "h1_b3": ("col", "h1", -1, 1e-3),
            "f_b3": ("col", "f", -1, 1e-3),
            "f1_b3": ("col", "f1", -1, -1e-3),
        }
        assert len(faults) == 9
        for clause, fault in faults.items():
            cols2 = {k: v.copy() for k, v in cols.items()}
            params2 = json.loads(json.dumps(params))
            if fault[0] == "param":
                params2[fault[1]] += fault[2]
            else:
                cols2[fault[1]][fault[2]] += fault[3]
            bad = verify_samples(cols2, params2, 4, 4)
            assert not bad.passed
            failing = [k for k, v in bad.steps[0]["bc_clauses"].items()
                       if not v["passed"]]
            assert failing == [clause]
        announce(9, "re-verification byte-identical; each of 9 single-clause "
                    "faults fails naming exactly the perturbed clause")
