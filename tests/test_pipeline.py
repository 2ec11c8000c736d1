import hashlib
import io
import json
import math
import os
import pathlib
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import certificate_pins
from csv_reference import first_difference, savetxt_csv
from plumbric import meancurv, pipeline, plumbing, profiles
from plumbric.cli import main as cli_main
from plumbric.pipeline import (DEFAULT_CONFIG, EPSILON_I, NiceCoordinateSpec, SpecError,
                               certificate_json, run_construction, topo_report,
                               verify, verify_samples)
from plumbric.plumbing import (EtaLedger, PlumbingTree, PlumbingVertex, bareiss_det, eta_ledger,
                               intersection_matrix, tangent_chain)
from plumbric.profiles import (CSV_BLOCK_ROWS, MC_VARIANT, BoundaryConditionError,
                               ProfileError)


@pytest.fixture(scope="module")
def single_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run44")
    tree = PlumbingTree(
        vertices=(PlumbingVertex(base_dim=4, rank=4, euler=2, char_label="v1"),),
        edges=())
    spec = NiceCoordinateSpec(p=4, q=4, R=math.pi / 4, N=1.0, kappa=0.5)
    cert = run_construction(tree, spec, out_dir=out)
    return out, cert


def load_fixture(out):
    prof = (out / "profiles" / "step_0.csv").read_text()
    params = json.loads((out / "profiles" / "step_0.params.json").read_text())
    rows = prof.strip().splitlines()
    data = np.loadtxt(io.StringIO("\n".join(rows[1:])), delimiter=",")
    cols = {name: data[:, k] for k, name in enumerate(rows[0].split(","))}
    return cols, params


class TestConstruction:
    def test_single_vertex_passes(self, single_run):
        _out, cert = single_run
        assert cert.passed
        ids = [c["id"] for c in cert.steps[0]["checks"]]
        assert ids == ["bc_nine_clauses", "boundary_ricci_positive", "neck_mc_margin",
                       "glue_interfaces", "bulk_scalar_positive",
                       "taper_mc_nonnegative", "collar_attachment_hypothesis",
                       "collar_ball_bound"]
        assert all(c["passed"] for c in cert.steps[0]["checks"])

    def test_artifacts_written(self, single_run):
        out, _ = single_run
        assert (out / "certificate.json").exists()
        assert (out / "profiles" / "step_0.csv").exists()
        assert (out / "profiles" / "step_0.params.json").exists()
        assert (out / "plots-data" / "step_0_margins.csv").exists()

    def test_two_vertex_chain_consumes_derived_spec(self):
        tree = tangent_chain(2, 3)
        spec = NiceCoordinateSpec(p=3, q=3, R=math.pi / 4, N=1.0, kappa=0.5)
        cert = run_construction(tree, spec)
        assert cert.passed
        assert len(cert.steps) == 2
        assert cert.steps[0]["spec"]["provenance"] == "initial"
        assert cert.steps[1]["spec"]["provenance"] == "derived"
        step0 = cert.steps[0]
        # derived scales come from the first step's accepted parameters only
        alpha = step0["left"]["alpha"]
        assert cert.steps[1]["spec"]["N"] == pytest.approx(alpha)
        assert cert.steps[1]["spec"]["R"] == pytest.approx(
            alpha * EPSILON_I)
        assert cert.steps[1]["spec"]["kappa"] == pytest.approx(
            alpha * step0["left"]["r"])

    def test_angle_gate(self):
        with pytest.raises(SpecError):
            NiceCoordinateSpec(p=4, q=4, R=1.6, N=1.0, kappa=0.5)


class TestVerify:
    def test_pass_and_determinism(self, single_run):
        out, _ = single_run
        prof = out / "profiles" / "step_0.csv"
        par = out / "profiles" / "step_0.params.json"
        c1 = verify(prof, par)
        c2 = verify(prof, par)
        assert c1.passed
        assert certificate_json(c1) == certificate_json(c2)
        assert c1.wall_time_s is None

    def test_fault_injection_per_clause(self, single_run):
        out, _ = single_run
        cols, params = load_fixture(out)
        p = q = 4
        faults = {
            "eps_b2": ("param", "eps_b2", 1e-3),
            "h_a3": ("col", "h", 0, 1e-3),
            # the collar-slope clause is one-sided: push it past lambda
            "h1_a3": ("col", "h1", 0, params["left"]["lambda"]),
            "f_a3": ("col", "f", 0, 1e-3),
            "f1_a3": ("col", "f1", 0, 1e-3),
            "h_b3": ("col", "h", -1, 1e-3),
            "h1_b3": ("col", "h1", -1, 1e-3),
            "f_b3": ("col", "f", -1, 1e-3),
            "f1_b3": ("col", "f1", -1, -1e-3),
        }
        for clause, fault in faults.items():
            cols2 = {k: v.copy() for k, v in cols.items()}
            params2 = json.loads(json.dumps(params))
            if fault[0] == "param":
                params2[fault[1]] += fault[2]
            else:
                cols2[fault[1]][fault[2]] += fault[3]
            cert = verify_samples(cols2, params2, p, q)
            assert not cert.passed, clause
            bc = cert.steps[0]["bc_clauses"]
            failing = [k for k, v in bc.items() if not v["passed"]]
            assert failing == [clause]

    def test_config_records_only_the_tolerance_read(self, single_run):
        # a full config is accepted and validated, but verify reads only the
        # margin tolerance, so that is all its certificate records
        out, _ = single_run
        prof = out / "profiles" / "step_0.csv"
        par = out / "profiles" / "step_0.params.json"
        full = {"lambda": 0.3, "grid": 256, "tolerances": {"mc_margin": 1e-10}}
        assert verify(prof, par, config=full).config == {"tolerances": {"mc_margin": 1e-10}}
        assert verify(prof, par).config == {"tolerances": DEFAULT_CONFIG["tolerances"]}
        with pytest.raises(SpecError, match="unknown config keys: lamda"):
            verify(prof, par, config={"lamda": 0.3})

    def test_idempotent_on_clean_fixture(self, single_run):
        out, _ = single_run
        cols, params = load_fixture(out)
        cert = verify_samples(cols, params, 4, 4)
        assert cert.passed
        bc = cert.steps[0]["bc_clauses"]
        assert all(v["passed"] for v in bc.values())


class TestVerifyFailsClosed:
    @staticmethod
    def _params(out):
        return json.loads((out / "profiles" / "step_0.params.json").read_text())

    def test_schema_1_params_rejected(self, single_run, tmp_path):
        out, _ = single_run
        params = self._params(out)
        params["schema"] = "plumbric-profile-params/1"
        params["markers"]["windows"] = []
        par = tmp_path / "params.json"
        par.write_text(json.dumps(params))
        with pytest.raises(SpecError, match="'plumbric-profile-params/1' is not "
                                            "'plumbric-profile-params/2'"):
            verify(out / "profiles" / "step_0.csv", par)

    @pytest.mark.parametrize("key", ["p", "q"])
    def test_missing_dimension_rejected(self, single_run, tmp_path, key):
        out, _ = single_run
        params = self._params(out)
        del params[key]
        par = tmp_path / "params.json"
        par.write_text(json.dumps(params))
        with pytest.raises(SpecError, match=f"'{key}'"):
            verify(out / "profiles" / "step_0.csv", par)

    @pytest.mark.parametrize("side, key, value, error, match", [
        ("left", "lambda", 0.7, BoundaryConditionError, "lambda"),
        ("right", "b3", 0.0, ProfileError, "b3 > t1"),
    ])
    def test_out_of_range_params_rejected(self, single_run, tmp_path, side, key,
                                          value, error, match):
        out, _ = single_run
        params = self._params(out)
        params[side][key] = value
        par = tmp_path / "params.json"
        par.write_text(json.dumps(params))
        with pytest.raises(error, match=match):
            verify(out / "profiles" / "step_0.csv", par)

    @pytest.mark.parametrize("drop", ["first", "last"])
    def test_misaligned_grid_rejected(self, single_run, tmp_path, drop):
        out, _ = single_run
        header, *rows = (out / "profiles" / "step_0.csv").read_text().splitlines()
        rows = rows[1:] if drop == "first" else rows[:-1]
        prof = tmp_path / "step_0.csv"
        prof.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(SpecError, match="a3 .* b3"):
            verify(prof, out / "profiles" / "step_0.params.json")

    @pytest.mark.parametrize("body, match", [
        ("", "no rows"),
        ("0,1,2,3,4,5,6\n0,1,2,3,4,5\n", "row 2 has 6 fields, not 7"),
        ("0,1,2,3,4,5,6\n0,1,2,x,4,5,6\n", "row 2 is not numeric"),
        ("0,1,2,3,4,5\n0,1,2,3,4,5\n", "row 1 has 6 fields, not 7"),
        ("\n  \n\t\n", "no rows"),
        ("\n\n", "no rows"),
    ], ids=["header_only", "ragged_row", "non_numeric", "six_columns", "whitespace_body",
            "blank_lines"])
    def test_malformed_profile_body_rejected(self, single_run, tmp_path, body, match):
        out, _ = single_run
        prof = tmp_path / "step_0.csv"
        prof.write_text("t,f,f1,f2,h,h1,h2\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpecError, match=match) as info:
                verify(prof, out / "profiles" / "step_0.params.json")
        assert type(info.value) is SpecError

    def test_parse_holds_no_copy_of_the_text(self, tmp_path):
        # a genuine 32 768-row profile (3.4 MB of text, 1.8 MB of columns):
        # the parse's traced peak stays under twice its arrays
        tree = PlumbingTree(
            vertices=(PlumbingVertex(base_dim=3, rank=3, euler=2, char_label="v"),),
            edges=())
        spec = NiceCoordinateSpec(p=3, q=3, R=math.pi / 4, N=1.0, kappa=0.5)
        assert run_construction(tree, spec, config={"grid": 32768}, out_dir=tmp_path).passed
        path = tmp_path / "profiles" / "step_0.csv"
        tracemalloc.start()
        try:
            samples = profiles.parse_profile_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert samples["t"].size == 32768
        assert path.stat().st_size > 3_000_000
        nbytes = sum(col.nbytes for col in samples.values())
        assert peak < 2 * nbytes, (peak, nbytes)


class TestStreamedArtifacts:
    def test_block_plus_one_rows(self, tmp_path, monkeypatch):
        written = []
        write = pipeline._write_step_artifacts

        def capture(out, idx, result):
            written.append(result)
            write(out, idx, result)

        monkeypatch.setattr(pipeline, "_write_step_artifacts", capture)
        tree = PlumbingTree(
            vertices=(PlumbingVertex(base_dim=3, rank=3, euler=2, char_label="v"),),
            edges=())
        spec = NiceCoordinateSpec(p=3, q=3, R=math.pi / 4, N=1.0, kappa=0.5)
        cert = run_construction(tree, spec, config={"grid": CSV_BLOCK_ROWS + 1},
                                out_dir=tmp_path)
        assert cert.passed and len(written) == 1
        m = written[0].measurement
        jets = m.jets
        assert jets.t.size == CSV_BLOCK_ROWS + 1
        prof = (tmp_path / "profiles" / "step_0.csv").read_text()
        margins = (tmp_path / "plots-data" / "step_0_margins.csv").read_text()
        assert first_difference(prof, savetxt_csv("t,f,f1,f2,h,h1,h2", [
            jets.t, jets.f, jets.f1, jets.f2, jets.h, jets.h1, jets.h2])) is None
        assert first_difference(margins, savetxt_csv("t,f,h,mc_margin", [
            jets.t, jets.f, jets.h, m.margins[MC_VARIANT]])) is None
        prof_tfh = "\n".join(",".join(row.split(",")[i] for i in (0, 1, 4))
                             for row in prof.splitlines())
        margins_tfh = "\n".join(row.rsplit(",", 1)[0] for row in margins.splitlines())
        assert first_difference(prof_tfh, margins_tfh) is None
        assert verify(tmp_path / "profiles" / "step_0.csv",
                      tmp_path / "profiles" / "step_0.params.json").passed


class TestVerifyReproducesConstruct:
    def test_chain_records_equal(self, tmp_path):
        spec = NiceCoordinateSpec(p=3, q=3, R=math.pi / 4, N=1.0, kappa=0.5)
        cert = run_construction(tangent_chain(2, 3), spec, out_dir=tmp_path)
        assert cert.passed and len(cert.steps) == 2
        for k, step in enumerate(cert.steps):
            v = verify(tmp_path / "profiles" / f"step_{k}.csv",
                       tmp_path / "profiles" / f"step_{k}.params.json")
            assert json.dumps(v.steps[0]["checks"]) == json.dumps(step["checks"][:4])
            for key in ("ricci_min", "mc_margin_reported", "mc_margin_curvature",
                        "mc_margin_unit"):
                assert v.steps[0]["margins"][key] == step["margins"][key]


def _counting(monkeypatch, module, name):
    """Record the positional arguments of every call to ``module.name``."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _counting_search(monkeypatch):
    """Count the calls of the search that run_construction makes."""
    return _counting(monkeypatch, profiles, "search_parameters")


def _counting_tapers(monkeypatch):
    """Count the taper oracle runs."""
    return _counting(monkeypatch, profiles, "z2_mean_curvature")


class TestRepeatedVertexInputs:
    """On this tangent chain every vertex after the second has the second's
    (p, q, R/N): its step is searched and checked once per run."""

    # R/N != epsilon_i, so the root's step differs from the repeated one.
    SPEC = NiceCoordinateSpec(p=3, q=3, R=1.1, N=1.0, kappa=0.5)
    CONFIG = {"lambda": 0.3}
    ARTIFACTS = ("profiles/step_{}.csv", "profiles/step_{}.params.json",
                 "plots-data/step_{}_margins.csv")

    @pytest.fixture(scope="class")
    def chain8(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("chain8")
        with pytest.MonkeyPatch.context() as mp:
            calls = _counting_search(mp)
            stages = _counting_tapers(mp)
            cert = run_construction(tangent_chain(8, 3), self.SPEC, self.CONFIG,
                                    out_dir=out)
        return out, cert, calls, stages

    def test_two_searches_for_eight_vertices(self, chain8):
        _out, cert, calls, _stages = chain8
        assert cert.passed and len(cert.steps) == 8
        assert all(c["passed"] for step in cert.steps for c in step["checks"])
        assert len(calls) == 2

    def test_two_searches_share_one_ode_and_one_taper_run(self, chain8):
        # both searches accept the same (C, t1, s0), so the same warp series
        # (C, lambda) and the same taper inputs (p, q, lambda, r, eps_b2)
        _out, cert, _calls, tapers = chain8
        assert len(tapers) == 1
        assert ([cert.steps[0]["left"][k] for k in ("C", "lambda")]
                == [cert.steps[1]["left"][k] for k in ("C", "lambda")])
        assert cert.steps[0]["right"]["R"] != cert.steps[1]["right"]["R"]
        assert cert.steps[0]["eps_b2"] == cert.steps[1]["eps_b2"]

    def test_repeated_records_equal_fresh_runs(self, chain8):
        _out, cert, _calls, _stages = chain8
        assert [s["vertex"] for s in cert.steps] == list(range(8))
        for k, step in enumerate(cert.steps[2:], start=2):
            assert step["spec"]["provenance"] == "derived"
            one = PlumbingTree(vertices=(tangent_chain(8, 3).vertices[k],), edges=())
            fresh = run_construction(one, NiceCoordinateSpec(**step["spec"]),
                                     self.CONFIG).steps[0]
            assert fresh["vertex"] == 0
            fresh["vertex"] = step["vertex"]
            assert json.dumps(fresh) == json.dumps(step), k

    def test_repeated_artifacts_are_copies_that_verify(self, chain8):
        out, _cert, _calls, _stages = chain8
        assert ((out / "profiles/step_0.csv").read_bytes()
                != (out / "profiles/step_1.csv").read_bytes())
        for k in range(2, 8):
            for name in self.ARTIFACTS:
                assert ((out / name.format(k)).read_bytes()
                        == (out / name.format(1)).read_bytes()), (k, name)
            v = verify(out / "profiles" / f"step_{k}.csv",
                       out / "profiles" / f"step_{k}.params.json")
            assert v.passed, k

    def test_reuse_keys_on_the_ratio_and_keeps_each_spec(self, chain8, monkeypatch):
        # A root with step 1's R/N and kappa but twice its R and N needs no
        # search of its own after the first, and each step keeps its spec.
        _out, cert, _calls, _stages = chain8
        s1 = NiceCoordinateSpec(**cert.steps[1]["spec"])
        root = NiceCoordinateSpec(p=3, q=3, R=2 * s1.R, N=2 * s1.N, kappa=s1.kappa)
        calls = _counting_search(monkeypatch)
        cert3 = run_construction(tangent_chain(3, 3), root, self.CONFIG)
        assert cert3.passed and len(calls) == 1
        assert cert3.steps[0]["spec"] == root.as_dict()
        assert [s["spec"] for s in cert3.steps[1:]] == [cert.steps[1]["spec"]] * 2
        for step in cert3.steps:
            assert json.dumps(step["checks"]) == json.dumps(cert.steps[1]["checks"])

    def test_sixty_four_chain(self, monkeypatch):
        # The 8l family at l = 8.
        calls = _counting_search(monkeypatch)
        cert = run_construction(tangent_chain(64, 3), self.SPEC, self.CONFIG)
        assert cert.passed and len(cert.steps) == 64
        assert all(c["passed"] for step in cert.steps for c in step["checks"])
        assert len(calls) == 2

    def test_derived_angle_is_exactly_epsilon_i(self, monkeypatch):
        # At lambda = 0.2, (alpha pi/4)/alpha is one ulp below pi/4; a derived
        # vertex is still searched and keyed on EPSILON_I itself, so a chain
        # rooted at pi/4 runs one search.
        calls = _counting_search(monkeypatch)
        root = NiceCoordinateSpec(p=3, q=3, R=math.pi / 4, N=1.0, kappa=0.5)
        cert = run_construction(tangent_chain(3, 3), root, {"lambda": 0.2, "grid": 256})
        assert cert.passed and len(calls) == 1 and calls[0][2] == EPSILON_I
        derived = cert.steps[1]["spec"]
        assert derived["R"] / derived["N"] != EPSILON_I
        assert derived["R"] == derived["N"] * EPSILON_I
        assert [s["right"]["R"] for s in cert.steps] == [EPSILON_I] * 3

    def test_kappa_is_checked_not_searched(self, monkeypatch):
        # Every vertex has R/N = pi/4; the root's kappa differs from its
        # children's, yet one search serves all three.
        calls = _counting_search(monkeypatch)
        root = NiceCoordinateSpec(p=3, q=3, R=math.pi / 4, N=1.0, kappa=0.5)
        cert = run_construction(tangent_chain(3, 3), root, self.CONFIG)
        assert cert.passed and len(calls) == 1
        kappas = [s["spec"]["kappa"] for s in cert.steps]
        assert kappas[0] == 0.5 and kappas[1] == kappas[2] != 0.5
        for step, kappa in zip(cert.steps, kappas):
            bound = step["checks"][-1]
            assert bound["id"] == "collar_ball_bound" and bound["passed"]
            assert bound["value"] == step["right"]["rho"]
            assert bound["tolerance"] == 0.99 * kappa
            assert json.dumps(step["checks"][:-1]) == json.dumps(cert.steps[0]["checks"][:-1])


class TestConstructionMemo:
    """A construction runs its taper oracle once per (p, q, lambda, r,
    eps_b2); nothing outlives the call."""

    # At lambda 0.3 a fresh root on the derived spec has R/N exactly pi/4
    # (at 0.2 it misses by an ulp), so it runs the derived step's search.
    CONFIG = {"lambda": 0.3, "grid": 256}

    @staticmethod
    def _spec(d):
        return NiceCoordinateSpec(p=d, q=d, R=1.0, N=1.0, kappa=0.5)

    @pytest.mark.parametrize("d", [3, 9])
    def test_tangent_two_chain_runs_each_stage_once(self, d, monkeypatch):
        tapers = _counting_tapers(monkeypatch)
        cert = run_construction(tangent_chain(2, d), self._spec(d), self.CONFIG)
        assert cert.passed and len(cert.steps) == 2
        assert len(tapers) == 1

    @pytest.mark.parametrize("d", [3, 9])
    def test_shared_stages_leave_the_step_as_a_fresh_run(self, d):
        cert = run_construction(tangent_chain(2, d), self._spec(d), self.CONFIG)
        one = PlumbingTree(vertices=(tangent_chain(2, d).vertices[1],), edges=())
        fresh = run_construction(one, NiceCoordinateSpec(**cert.steps[1]["spec"]),
                                 self.CONFIG).steps[0]
        fresh["vertex"] = cert.steps[1]["vertex"]
        assert json.dumps(fresh) == json.dumps(cert.steps[1])

    def test_memo_does_not_outlive_its_call(self, monkeypatch):
        tapers = _counting_tapers(monkeypatch)
        for n in (1, 2):
            assert run_construction(tangent_chain(2, 3), self._spec(3), self.CONFIG).passed
            assert len(tapers) == n


class TestTaperCheck:
    SINGLE = PlumbingTree(
        vertices=(PlumbingVertex(base_dim=3, rank=3, euler=2, char_label="v1"),), edges=())
    SPEC = NiceCoordinateSpec(p=3, q=3, R=math.pi / 4, N=1.0, kappa=0.5)

    def _taper_record(self, config):
        cert = run_construction(self.SINGLE, self.SPEC, config={"grid": 256, **config})
        (rec,) = [c for c in cert.steps[0]["checks"] if c["id"] == "taper_mc_nonnegative"]
        return cert, rec

    def test_end_angle_outside_the_chart_fails_closed(self):
        err = profiles.taper_check(3, 3, 0.1, 1.0, math.pi / 2)
        assert isinstance(err, ProfileError)
        assert "eps_b2 = 1.5707963267948966" in str(err)

    def test_unmeasured_taper_fails_the_step(self, monkeypatch):
        monkeypatch.setattr(profiles, "taper_check",
                            lambda *key: ProfileError("eps_b2 = 2.0 lies outside (0, pi/2)"))
        cert, rec = self._taper_record({})
        assert not cert.passed and not rec["passed"] and math.isnan(rec["value"])
        assert rec["detail"] == "ProfileError: eps_b2 = 2.0 lies outside (0, pi/2)"

    @pytest.mark.parametrize("tol,passed", [(1e-8, True), (1e-9, False)])
    def test_decided_by_the_recorded_tolerance(self, tol, passed, monkeypatch):
        stub = SimpleNamespace(mean_curvature=np.array([0.0, -5e-9, 3.0]))
        monkeypatch.setattr(profiles, "z2_mean_curvature", lambda *a, **k: stub)
        cert, rec = self._taper_record({"tolerances": {"mc_margin": tol}})
        assert rec["value"] == -5e-9 and rec["tolerance"] == -tol
        assert rec["passed"] is passed and cert.passed is passed


class TestOracleFailures:
    def test_unexpected_bulk_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("oracle broke")

        monkeypatch.setattr(profiles, "numeric_curvature", broken)
        tree = PlumbingTree(
            vertices=(PlumbingVertex(base_dim=3, rank=3, euler=2, char_label="v1"),),
            edges=())
        spec = NiceCoordinateSpec(p=3, q=3, R=math.pi / 4, N=1.0, kappa=0.5)
        with pytest.raises(RuntimeError, match="oracle broke"):
            run_construction(tree, spec)


class TestTopo:
    def test_eight_chain_equivariant(self):
        rep = topo_report(tangent_chain(8, 3, equivariant=True), l_max=10)
        assert abs(rep["det"]) == 1
        assert rep["arf"] == 0
        assert rep["boundary_homotopy_sphere"]
        assert rep["eta"]["distinct"]

    def test_two_chain_kervaire(self):
        rep = topo_report(tangent_chain(2, 3), l_max=20)
        assert rep["arf"] == 1
        assert rep["boundary_homotopy_sphere"]

    def test_odd_euler_number_records_no_arf(self):
        verts = (PlumbingVertex(3, 3, 1, framing_q=1), PlumbingVertex(3, 3, 0, framing_q=1))
        rep = topo_report(PlumbingTree(vertices=verts, edges=((0, 1, 1),)), l_max=20)
        assert rep["symmetry"] == "skew" and rep["arf"] is None
        assert rep["arf_note"] == ("mod-2 form is not alternating (odd Euler number at "
                                   "vertices [0]): no quadratic refinement exists")

    @pytest.mark.parametrize("tree", [tangent_chain(8, 3, equivariant=True),
                                      tangent_chain(7, 5),
                                      PlumbingTree(vertices=(PlumbingVertex(3, 5, 2),
                                                             PlumbingVertex(5, 3, -2)),
                                                   edges=((0, 1, -1),))],
                             ids=["skew_8", "skew_7", "symmetric_2"])
    def test_report_builds_no_matrix(self, tree, monkeypatch):
        # count calls through the plumbing module and any name pipeline binds
        calls = []
        for name in ("intersection_matrix", "bareiss_det"):
            for module in (plumbing, pipeline):
                monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name),
                                    raising=False)
        rep = topo_report(tree, l_max=20)
        assert calls == []
        assert rep["det"] == bareiss_det(intersection_matrix(tree)[0])

    GOLDEN = json.loads((pathlib.Path(__file__).parent / "fixtures"
                         / "topo_golden.json").read_text())

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_ledger(self, name):
        # Pinned before the Arf route changed: the report's bytes must not move,
        # apart from the clutching note added after the pin.
        gold = self.GOLDEN[name]
        rep = topo_report(PlumbingTree.from_json(gold["tree"]), l_max=20)
        assert (rep["det"], rep.get("arf"), rep.get("arf_note")) == (
            gold["det"], gold["arf"], gold["arf_note"])
        note = rep.pop("clutching_note", None)
        if name.startswith("chain"):
            assert note is None and "clutching_word" in rep
        else:
            assert note == "plumbing graph is not a path"
            assert "clutching_word" not in rep
        digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
        assert digest == gold["sha256"]

    LARGE_L = json.loads((pathlib.Path(__file__).parent / "fixtures"
                          / "ledger_large_l.json").read_text())

    @pytest.mark.parametrize("name", sorted(LARGE_L["topo"]))
    def test_large_l_report_bytes(self, name):
        # an eta block of 800 lengths, pinned while it was computed in Fractions
        d, m = map(int, name[1:].split("_m"))
        rep = topo_report(tangent_chain(m, d, equivariant=True), 800)
        text = json.dumps(rep, sort_keys=True, indent=1)
        assert hashlib.sha256(text.encode()).hexdigest() == self.LARGE_L["topo"][name]


def _one_error_line(capsys, command, match):
    """Whether stderr holds exactly one ``plumbric <command>: error:`` line
    containing ``match``, and stdout nothing."""
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    return (captured.out == "" and len(lines) == 1
            and lines[0].startswith(f"plumbric {command}: error: ") and match in lines[0])


def _report_text(doc) -> str:
    """What ``plumbric report`` prints for a certificate of the right shape."""
    lines = [f"certificate: {doc['schema']}  passed: {doc['passed']}"]
    for i, step in enumerate(doc["steps"]):
        if "infeasible" in step:
            lines.append(f"  step {i} (vertex {step['vertex']}): INFEASIBLE -- "
                         f"{step['infeasible']}")
            continue
        lines.append(f"  step {i} (vertex {step['vertex']}):")
        for c in step["checks"]:
            val = f"{c['value']:.3e}" if isinstance(c["value"], float) else c["value"]
            lines.append(f"    [{'pass' if c['passed'] else 'FAIL'}] {c['id']}: {val} "
                         f"(tol {c['tolerance']}) {c['detail']}")
    return "\n".join(lines) + "\n"


class TestCli:
    def test_full_cycle(self, tmp_path, capsys):
        tree_file = tmp_path / "tree.json"
        tree = PlumbingTree(
            vertices=(PlumbingVertex(base_dim=4, rank=4, euler=2, char_label="v1"),),
            edges=())
        tree_file.write_text(tree.to_json())
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"v_spec": {"R": math.pi / 4, "N": 1.0, "kappa": 0.5}}))
        out = tmp_path / "out"
        rc = cli_main(["construct", "--tree", str(tree_file),
                       "--config", str(cfg_file), "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        rc = cli_main(["verify", "--config", str(cfg_file),
                       "--profiles", str(out / "profiles" / "step_0.csv"),
                       "--params", str(out / "profiles" / "step_0.params.json")])
        assert rc == 0
        capsys.readouterr()
        rc = cli_main(["report", "--certificate", str(out / "certificate.json")])
        assert rc == 0
        text = capsys.readouterr().out
        assert "passed: True" in text

    def test_topo_and_eta(self, tmp_path, capsys):
        tree_file = tmp_path / "t8.json"
        tree_file.write_text(tangent_chain(8, 3, equivariant=True).to_json())
        assert cli_main(["topo", "--tree", str(tree_file), "--lmax", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["arf"] == 0
        assert cli_main(["eta", "--k", "1", "--lmax", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["distinct"]

    @pytest.mark.parametrize("name", sorted(TestTopo.LARGE_L["eta"]))
    def test_large_l_eta_bytes(self, name, capsys):
        k, convention = name[1:].split("_")
        assert cli_main(["eta", "--k", k, "--lmax", "800", "--convention", convention]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == TestTopo.LARGE_L["eta"][name]

    @pytest.mark.parametrize("name", sorted(TestTopo.GOLDEN))
    def test_topo_prints_the_report_as_json(self, name, tmp_path, capsys):
        # every value of the report is JSON-native: no default= conversion
        text = TestTopo.GOLDEN[name]["tree"]
        tree_file = tmp_path / "tree.json"
        tree_file.write_text(text)
        assert cli_main(["topo", "--tree", str(tree_file), "--lmax", "20"]) == 0
        rep = topo_report(PlumbingTree.from_json(text), 20)
        assert capsys.readouterr().out == json.dumps(rep, sort_keys=True, indent=1) + "\n"

    def test_report_prints_construct_verify_and_infeasible_certificates(
            self, single_run, tmp_path, capsys):
        out, _ = single_run
        assert cli_main(["verify", "--profiles", str(out / "profiles" / "step_0.csv"),
                         "--params", str(out / "profiles" / "step_0.params.json"),
                         "--out", str(tmp_path / "verify")]) == 0
        tree_file = tmp_path / "tree.json"
        tree_file.write_text(tangent_chain(1, 3).to_json())
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"lambda": 1e-300, "grid": 64}))
        assert cli_main(["construct", "--tree", str(tree_file), "--config", str(cfg_file),
                         "--out", str(tmp_path / "infeasible")]) == 1
        capsys.readouterr()
        for cert, rc in ((out, 0), (tmp_path / "verify", 0), (tmp_path / "infeasible", 1)):
            path = cert / "certificate.json"
            assert cli_main(["report", "--certificate", str(path)]) == rc
            assert capsys.readouterr().out == _report_text(json.loads(path.read_text()))

    @pytest.mark.parametrize("doc, match", [
        ([1, 2], "must hold a JSON object, not a list"),
        ({"schema": "plumbric-certificate/3", "passed": True, "steps": [
            {"vertex": 0, "checks": [{"id": "glue_interfaces", "value": True,
                                      "tolerance": True, "detail": ""}]}]},
         "certificate step 0 check 0 lacks ['passed']"),
    ], ids=["list", "check_without_passed"])
    def test_report_of_the_wrong_shape_exits_2(self, tmp_path, capsys, doc, match):
        cert = tmp_path / "certificate.json"
        cert.write_text(json.dumps(doc))
        assert cli_main(["report", "--certificate", str(cert)]) == 2
        assert _one_error_line(capsys, "report", match)

    def test_ledger_of_fewer_than_two_lengths_fails(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="at least two lengths"):
            eta_ledger(EtaLedger(k=1, lengths=(1,), fixed_point_counts={1: 8}))
        for lmax in ("-3", "0", "1"):
            assert cli_main(["eta", "--k", "1", "--lmax", lmax]) == 2
            assert _one_error_line(capsys, "eta", "at least two lengths")
        # total dimension 6, so topo builds an eta ledger of lengths 1..lmax
        tree_file = tmp_path / "t8.json"
        tree_file.write_text(tangent_chain(8, 3, equivariant=True).to_json())
        assert cli_main(["topo", "--tree", str(tree_file), "--lmax", "1"]) == 2
        assert _one_error_line(capsys, "topo", "got 1")

    def test_rejected_profile_exits_2(self, single_run, tmp_path, capsys):
        out, _ = single_run
        prof = tmp_path / "step_0.csv"
        prof.write_text("t,f,h\n0,1,2\n")
        assert cli_main(["verify", "--profiles", str(prof),
                         "--params", str(out / "profiles" / "step_0.params.json")]) == 2
        assert _one_error_line(capsys, "verify", "profile CSV columns must be")
        assert cli_main(["verify", "--profiles", str(tmp_path / "missing.csv"),
                         "--params", str(out / "profiles" / "step_0.params.json")]) == 2
        assert _one_error_line(capsys, "verify", "No such file")

    def test_params_file_of_the_wrong_shape_exits_2(self, single_run, tmp_path, capsys):
        out, _ = single_run
        profile = str(out / "profiles" / "step_0.csv")
        params = json.loads((out / "profiles" / "step_0.params.json").read_text())
        del params["left"]
        no_left = tmp_path / "no_left.json"
        no_left.write_text(json.dumps(params))
        as_list = tmp_path / "list.json"
        as_list.write_text("[1, 2]")
        assert cli_main(["verify", "--profiles", profile, "--params", str(no_left)]) == 2
        assert _one_error_line(capsys, "verify", "parameter file lacks 'left'")
        assert cli_main(["verify", "--profiles", profile, "--params", str(as_list)]) == 2
        assert _one_error_line(capsys, "verify", "must hold a JSON object, not a list")
        params = json.loads((out / "profiles" / "step_0.params.json").read_text())
        params["right"] = [1, 2]
        no_right = tmp_path / "no_right.json"
        no_right.write_text(json.dumps(params))
        with pytest.raises(SpecError, match="'right' must be an object"):
            verify(profile, no_right)

    def test_tree_of_the_wrong_shape_exits_2(self, tmp_path, capsys):
        tree_file = tmp_path / "tree.json"
        tree_file.write_text('{"vertices": 3}')
        assert cli_main(["topo", "--tree", str(tree_file)]) == 2
        assert _one_error_line(capsys, "topo", "lists 'vertices' and 'edges'")
        good = json.loads(tangent_chain(2, 3).to_json())
        for doc, match in (({**good, "vertices": [1, 2]}, "vertex 0 must be an object"),
                           ({**good, "edges": [[0, 1]]}, "edge 0 must be a list")):
            with pytest.raises(plumbing.TreeStructureError, match=match):
                PlumbingTree.from_json(json.dumps(doc))

    @pytest.mark.parametrize("key, value, match", [
        ("rank", "x", "vertex 0's 'rank' must be an integer, got 'x'"),
        ("euler", 0.5, "vertex 0's 'euler' must be an integer, got 0.5"),
        ("euler", True, "vertex 0's 'euler' must be an integer, got True"),
        ("framing_q", 1.0, "vertex 0's 'framing_q' must be an integer, got 1.0"),
        ("trivial", "no", "vertex 0's 'trivial' must be true or false, got 'no'"),
        ("char_label", 3, "vertex 0's 'char_label' must be a string, got 3"),
    ], ids=["rank_str", "euler_float", "euler_bool", "framing_float", "trivial_str",
            "label_int"])
    def test_tree_value_of_the_wrong_type_exits_2(self, tmp_path, capsys, key, value, match):
        doc = json.loads(tangent_chain(2, 3, equivariant=True).to_json())
        doc["vertices"][0][key] = value
        tree_file = tmp_path / "tree.json"
        tree_file.write_text(json.dumps(doc))
        assert cli_main(["topo", "--tree", str(tree_file), "--lmax", "3"]) == 2
        assert _one_error_line(capsys, "topo", match)

    @pytest.mark.parametrize("doc_edit, match", [
        (lambda doc: doc.update(edges=[[0, 1.7, 1]]),
         "edge 0 must be a list [i, j, sign] of integers, got [0, 1.7, 1]"),
        (lambda doc: doc.update(edges=[[0, 1, True]]),
         "edge 0 must be a list [i, j, sign] of integers, got [0, 1, True]"),
        (lambda doc: doc.update(equivariant="yes"), "'equivariant' must be true or false"),
    ], ids=["edge_float", "edge_bool", "equivariant_str"])
    def test_tree_edge_or_flag_of_the_wrong_type_exits_2(self, tmp_path, capsys, doc_edit,
                                                         match):
        doc = json.loads(tangent_chain(2, 3).to_json())
        doc_edit(doc)
        tree_file = tmp_path / "tree.json"
        tree_file.write_text(json.dumps(doc))
        assert cli_main(["topo", "--tree", str(tree_file), "--lmax", "3"]) == 2
        assert _one_error_line(capsys, "topo", match)

    @pytest.mark.parametrize("config, match", [
        ({"root": 0.7}, "'root' must be an integer in [0, 2), got 0.7"),
        ({"root": 5}, "'root' must be an integer in [0, 2), got 5"),
        ({"root": -1}, "'root' must be an integer in [0, 2), got -1"),
        ({"root": 0, "v_spec": {"p": 3.9}}, "v_spec.p must be an integer, got 3.9"),
        ({"v_spec": {"R": "0.8"}}, "v_spec.R must be a finite number, got '0.8'"),
        ({"v_spec": {"kappa": True}}, "v_spec.kappa must be a finite number, got True"),
    ], ids=["root_float", "root_past_n", "root_negative", "p_float", "R_str", "kappa_bool"])
    def test_construct_spec_of_the_wrong_type_exits_2(self, tmp_path, capsys, config, match):
        tree_file = tmp_path / "tree.json"
        tree_file.write_text(tangent_chain(2, 3).to_json())
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(config))
        assert cli_main(["construct", "--tree", str(tree_file), "--config", str(cfg_file),
                         "--out", str(tmp_path / "out")]) == 2
        assert _one_error_line(capsys, "construct", match)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["construct", "verify"])
    @pytest.mark.parametrize("config, kind", [([1, 2], "list"), (3, "int")],
                             ids=["list", "int"])
    def test_config_that_is_not_an_object_exits_2(self, single_run, tmp_path, capsys,
                                                  command, config, kind):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(config))
        tree_file = tmp_path / "tree.json"
        tree_file.write_text(tangent_chain(2, 3).to_json())
        out, _ = single_run
        args = {"construct": ["--tree", str(tree_file), "--out", str(tmp_path / "out")],
                "verify": ["--profiles", str(out / "profiles" / "step_0.csv"),
                           "--params", str(out / "profiles" / "step_0.params.json")]}[command]
        assert cli_main([command, "--config", str(cfg_file), *args]) == 2
        assert _one_error_line(
            capsys, command, f"config file {cfg_file} must hold a JSON object, not a {kind}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("root", [2, -1, True])
    def test_construction_rejects_a_root_outside_the_tree(self, root):
        with pytest.raises(SpecError, match=r"'root' must be an integer in \[0, 2\)"):
            run_construction(tangent_chain(2, 3), NiceCoordinateSpec(3, 3, 0.8, 1.0, 0.5),
                             {"grid": 64}, root=root)

    @pytest.mark.parametrize("lam", [1e-300, 5e-324])
    def test_underflowing_lambda_reads_infeasible(self, tmp_path, capsys, lam):
        # fC'(t1) underflows to 0: every candidate is a named rejection
        tree_file = tmp_path / "tree.json"
        tree_file.write_text(tangent_chain(1, 3).to_json())
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"lambda": lam, "grid": 64}))
        assert cli_main(["construct", "--tree", str(tree_file), "--config", str(cfg_file),
                         "--out", str(tmp_path / "out")]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is False
        assert doc["steps"][0]["infeasible"].endswith("by gate: fiber_scale 32")

    def test_tree_without_optional_keys_takes_the_vertex_defaults(self):
        doc = json.loads(tangent_chain(2, 3).to_json())
        for v in doc["vertices"]:
            del v["framing_q"], v["char_label"], v["trivial"]
        del doc["equivariant"]
        tree = PlumbingTree.from_json(json.dumps(doc))
        assert tree.vertices == (PlumbingVertex(3, 3, 0),) * 2
        assert tree.edges == ((0, 1, 1),) and tree.equivariant is False

    @pytest.mark.parametrize("path, value, match", [
        (("right", "t1"), "x", "right.t1 must be a number, got 'x'"),
        (("p",), 4.0, "p must be an integer, got 4.0"),
        (("q",), True, "q must be an integer, got True"),
        (("left", "a"), True, "left.a must be a number, got True"),
        (("markers", "b3"), None, "markers.b3 must be a number, got None"),
        (("eps_b2",), "0.1", "eps_b2 must be a number, got '0.1'"),
    ], ids=["right_t1_str", "p_float", "q_bool", "left_a_bool", "b3_null", "eps_str"])
    def test_params_value_of_the_wrong_type_exits_2(self, single_run, tmp_path, capsys,
                                                    path, value, match):
        out, _ = single_run
        params = json.loads((out / "profiles" / "step_0.params.json").read_text())
        *parents, key = path
        target = params
        for name in parents:
            target = target[name]
        target[key] = value
        par = tmp_path / "params.json"
        par.write_text(json.dumps(params))
        assert cli_main(["verify", "--profiles", str(out / "profiles" / "step_0.csv"),
                         "--params", str(par)]) == 2
        assert _one_error_line(capsys, "verify", "parameter file's " + match)

    @pytest.mark.parametrize("side, key, value, source", [
        ("left", "alpha", 999.0, "lambda and a"),
        ("left", "b", 999.0, "lambda, a and r"),
        ("left", "a3", 5.0, "markers.a3"),
        ("markers", "t1", 123.0, "right.t1"),
        ("markers", "b3", 1e9, "right.b3"),
    ])
    def test_params_whose_derived_fields_disagree_exit_2(self, single_run, tmp_path, capsys,
                                                         side, key, value, source):
        out, _ = single_run
        prof = out / "profiles" / "step_0.csv"
        params = json.loads((out / "profiles" / "step_0.params.json").read_text())
        params[side][key] = value
        par = tmp_path / "params.json"
        par.write_text(json.dumps(params))
        with pytest.raises(SpecError, match=rf"parameter file's {side}\.{key} = {value!r} "
                                            rf"is not .* \(from {source}\)"):
            verify(prof, par)
        assert cli_main(["verify", "--profiles", str(prof), "--params", str(par)]) == 2
        assert _one_error_line(capsys, "verify", f"{side}.{key} = {value!r} is not")

    def test_rerun_writes_new_files(self, tmp_path, capsys):
        """A second run into the same outputs writes each file anew (a new
        inode, the old one kept alive by a hard link) with the same bytes."""
        tree_file = tmp_path / "tree.json"
        tree_file.write_text(tangent_chain(3, 5).to_json())
        out, keep = tmp_path / "out", tmp_path / "keep"
        commands = [["construct", "--tree", str(tree_file), "--grid", "256", "--out", str(out)],
                    ["verify", "--profiles", str(out / "profiles" / "step_0.csv"),
                     "--params", str(out / "profiles" / "step_0.params.json"),
                     "--out", str(tmp_path / "verified")],
                    ["topo", "--tree", str(tree_file), "--lmax", "3",
                     "--out", str(tmp_path / "topo.json")],
                    ["eta", "--k", "1", "--lmax", "5", "--out", str(tmp_path / "eta.json")]]
        for command in commands:
            assert cli_main(command) == 0
        files = sorted(p for p in tmp_path.rglob("*") if p.is_file() and p != tree_file)
        assert (out / "profiles" / "step_2.csv") in files  # a copied step
        keep.mkdir()
        for k, path in enumerate(files):
            os.link(path, keep / str(k))
        for command in commands:
            assert cli_main(command) == 0
        capsys.readouterr()
        for k, path in enumerate(files):
            old = keep / str(k)
            assert path.stat().st_ino != old.stat().st_ino, path
            if path.name != "certificate.json" or path.parent != out:
                assert path.read_bytes() == old.read_bytes(), path

    def test_failed_certificate_exits_1(self, tmp_path, capsys):
        # at R/N = pi/4, lambda = 0.1 every (5, 3) candidate fails a gate
        tree_file = tmp_path / "tree.json"
        tree_file.write_text(PlumbingTree(
            vertices=(PlumbingVertex(base_dim=3, rank=5, euler=0, char_label="v1"),),
            edges=()).to_json())
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"lambda": 0.1}))
        assert cli_main(["construct", "--tree", str(tree_file), "--config", str(cfg_file),
                         "--grid", "64", "--out", str(tmp_path / "out")]) == 1
        assert json.loads(capsys.readouterr().out)["passed"] is False


class TestCertificateInvariants:
    def test_construction_deterministic_up_to_timing(self):
        tree = PlumbingTree(
            vertices=(PlumbingVertex(base_dim=4, rank=4, euler=2, char_label="v1"),),
            edges=())
        spec = NiceCoordinateSpec(p=4, q=4, R=math.pi / 4, N=1.0, kappa=0.5)
        d1 = run_construction(tree, spec).as_dict()
        d2 = run_construction(tree, spec).as_dict()
        d1["wall_time_s"] = d2["wall_time_s"] = None
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    def test_infeasible_step_fails_cleanly(self):
        # at R/N = pi/4, lambda = 0.1 every (5, 3) candidate fails a gate
        tree = PlumbingTree(
            vertices=(PlumbingVertex(base_dim=3, rank=5, euler=0, char_label="v1"),),
            edges=())
        spec = NiceCoordinateSpec(p=5, q=3, R=math.pi / 4, N=1.0, kappa=0.5)
        cert = run_construction(tree, spec, config={"lambda": 0.1})
        assert not cert.passed
        text = cert.steps[0]["infeasible"]
        assert "32 candidates rejected (0 evaluated)" in text
        assert "by gate: fiber_ricci 32" in text
        assert "best margin" not in text

    @pytest.mark.parametrize("search,named", [({"theta_rise_grid": [0.1]}, "theta_rise_grid"),
                                              ({"t1_grid": [50.0]}, "t1_grid"),
                                              (None, "None")])
    def test_search_options_rejected(self, search, named):
        tree = PlumbingTree(
            vertices=(PlumbingVertex(base_dim=4, rank=4, euler=2, char_label="v1"),),
            edges=())
        spec = NiceCoordinateSpec(p=4, q=4, R=math.pi / 4, N=1.0, kappa=0.5)
        with pytest.raises(SpecError, match=f"unknown config keys: search=.*{named}"):
            run_construction(tree, spec, config={"search": search})

    def test_collar_ball_bound_fails_closed(self):
        # rho ~ 1e-9 is far above 0.99 kappa: the profile is built and its
        # other checks pass, and the certificate fails on the bound
        tree = PlumbingTree(
            vertices=(PlumbingVertex(base_dim=4, rank=4, euler=2, char_label="v1"),),
            edges=())
        spec = NiceCoordinateSpec(p=4, q=4, R=math.pi / 4, N=1.0, kappa=1e-12)
        cert = run_construction(tree, spec)
        assert not cert.passed
        failed = [c["id"] for c in cert.steps[0]["checks"] if not c["passed"]]
        assert failed == ["collar_ball_bound"]


class TestOracleValues:
    """The oracle-derived values the certificate records, pinned to 1e-12.

    The pass/fail ids alone would not show a refactor of the finite-difference
    oracle, the bulk chart or the margin algebra that moves these numbers.
    """

    EXPECTED = {
        3: {"bulk_scalar_min": 1.3182325123041014, "taper_mc_min": 0.0,
            "mc_margin_reported": -2.7926587773457555e-10,
            "mc_margin_curvature": -2.7926587773457555e-10,
            "mc_margin_unit": -2.7926587773457555e-10},
        4: {"bulk_scalar_min": 5.395231027009412, "taper_mc_min": 0.0,
            "mc_margin_reported": -2.1122102751087605e-10,
            "mc_margin_curvature": -2.1122102751087605e-10,
            "mc_margin_unit": -2.1122102751087605e-10},
    }

    @pytest.mark.parametrize("p", [3, 4])
    def test_recorded_values(self, p):
        tree = PlumbingTree(
            vertices=(PlumbingVertex(base_dim=p, rank=p, euler=2, char_label="v1"),),
            edges=())
        spec = NiceCoordinateSpec(p=p, q=p, R=math.pi / 4, N=1.0, kappa=0.5)
        cert = run_construction(tree, spec, config={"lambda": 0.1, "grid": 256})
        assert cert.passed
        margins = cert.steps[0]["margins"]
        for key, value in self.EXPECTED[p].items():
            assert margins[key] == pytest.approx(value, rel=1e-12), key


class TestDiagonalCharts:
    """Every metric the certificate's oracle reads is diagonal, to the bit.

    The charts return the metric's diagonal, so every off-diagonal entry the
    oracle stands in for is an exact zero.  The oracle forms each contraction
    with one nonzero summand as that product, which gives the doubles of any
    summation order only because each such sum has one nonzero term.
    """

    @staticmethod
    def _recording(build, seen):
        # the same builder, with a patch whose g keeps every stack it returns
        def wrapped(*args, **kwargs):
            out = build(*args, **kwargs)
            patch = out[0] if isinstance(out, tuple) else out

            def g(x):
                seen.append(patch.g(x))
                return seen[-1]

            recorded = replace(patch, g=g)
            return (recorded,) + out[1:] if isinstance(out, tuple) else recorded
        return wrapped

    @pytest.mark.parametrize("p", [3, 9])
    def test_oracle_metrics_have_zero_off_diagonal(self, p, monkeypatch):
        bulk, taper = [], []
        monkeypatch.setattr(profiles, "bulk_patch", self._recording(meancurv.bulk_patch, bulk))
        monkeypatch.setattr(meancurv, "z2_patch", self._recording(meancurv.z2_patch, taper))
        tree = PlumbingTree(
            vertices=(PlumbingVertex(base_dim=p, rank=p, euler=2, char_label="v1"),),
            edges=())
        spec = NiceCoordinateSpec(p=p, q=p, R=math.pi / 4 + 0.1, N=1.0, kappa=0.5)
        assert run_construction(tree, spec, config={"lambda": 0.2}).passed
        d = 2 * p
        # Ricci's stack holds the corner stencils of steps h and h/2, the
        # second fundamental form's one stencil without corners
        for name, seen, rows in (("bulk", bulk, 2 * (1 + 2 * d + 2 * d * (d - 1))),
                                 ("taper", taper, 1 + 2 * d)):
            assert any(D.shape == (rows, d) for D in seen), name
            assert all(D.shape[-1] == d and D.ndim == 2 for D in seen), (
                f"the {name} chart returned something other than metric diagonals")


class TestCertificatePins:
    """Certificate bytes, apart from ``wall_time_s``, against sha256 pins
    taken at the parent of a change (``tests/certificate_pins.py``)."""

    PINS = json.loads((pathlib.Path(__file__).parent / "fixtures"
                       / "certificate_digests.json").read_text())["pins"]

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_certificate_bytes(self, name):
        assert certificate_pins.case_digests(name) == self.PINS[name]


class TestConfig:
    SINGLE = PlumbingTree(
        vertices=(PlumbingVertex(base_dim=4, rank=4, euler=2, char_label="v1"),), edges=())
    SPEC = NiceCoordinateSpec(p=4, q=4, R=math.pi / 4, N=1.0, kappa=0.5)

    @pytest.mark.parametrize("config,named", [
        ({"seed": 0}, "seed"), ({"mc_variant": "unit"}, "mc_variant"),
        ({"lamda": 0.2}, "lamda"), ({"tolerances": {"bc": 1e-8}}, "tolerances.bc"),
        ({"epsilon_i": 0.5, "oracle_points": 8}, "epsilon_i=0.5, oracle_points"),
    ], ids=["seed", "mc_variant", "lamda", "tolerances.bc", "two_keys"])
    def test_unknown_keys_rejected(self, config, named):
        with pytest.raises(SpecError, match=f"unknown config keys: {named}"):
            run_construction(self.SINGLE, self.SPEC, config=config)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9, 1e-14, "1e-9",
                                     True])
    def test_unusable_margin_tolerance_rejected(self, tol):
        with pytest.raises(SpecError, match="tolerances.mc_margin .* >= 1e-12"):
            run_construction(self.SINGLE, self.SPEC, config={"tolerances": {"mc_margin": tol}})

    @pytest.mark.parametrize("lam", ["0.2", True, 0.5, float("nan")])
    def test_unusable_lambda_rejected(self, lam):
        with pytest.raises(SpecError, match=f"config 'lambda' must be a finite number in "
                                            rf"\(0, 1/2\), got {lam!r}"):
            run_construction(self.SINGLE, self.SPEC, config={"lambda": lam})

    @pytest.mark.parametrize("grid", [2.7, -5, 1, True, "2048", None])
    def test_unusable_grid_rejected(self, grid):
        with pytest.raises(SpecError, match=f"config 'grid' must be an integer >= 2, "
                                            f"got {grid!r}"):
            run_construction(self.SINGLE, self.SPEC, config={"grid": grid})

    # One changed value per setting; the keys must be exactly the config's settings.
    CHANGED = {"lambda": {"lambda": 0.2}, "grid": {"grid": 257},
               "tolerances.mc_margin": {"tolerances": {"mc_margin": 1e-10}}}

    def test_changed_values_cover_the_config(self):
        settings = set()
        for k, v in DEFAULT_CONFIG.items():
            settings |= {f"{k}.{sub}" for sub in v} if isinstance(v, dict) else {k}
        assert settings == set(self.CHANGED)

    @pytest.mark.parametrize("setting", list(CHANGED))
    def test_every_setting_moves_the_steps(self, setting):
        # a setting that nothing reads leaves every step record as it was
        base = {"grid": 256}
        steps = [json.dumps(run_construction(self.SINGLE, self.SPEC, config=c).steps)
                 for c in (base, {**base, **self.CHANGED[setting]})]
        assert steps[0] != steps[1]
