import io
import json
import math

import numpy as np
import pytest

from plumbric.cli import main as cli_main
from plumbric.pipeline import (DEFAULT_CONFIG, NiceCoordinateSpec, SpecError,
                               certificate_json, run_construction, topo_report,
                               verify, verify_samples)
from plumbric.plumbing import PlumbingTree, PlumbingVertex, tangent_chain
from plumbric.profiles import BoundaryConditionError, ProfileError


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
                       "taper_mc_nonnegative", "collar_attachment_hypothesis"]
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
            alpha * DEFAULT_CONFIG["epsilon_i"])
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


class TestOracleFailures:
    def test_unexpected_bulk_error_propagates(self, monkeypatch):
        import plumbric.pipeline as pipeline

        def broken(*args, **kwargs):
            raise RuntimeError("oracle broke")

        monkeypatch.setattr(pipeline, "numeric_curvature", broken)
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
        rep = topo_report(tangent_chain(2, 3))
        assert rep["arf"] == 1
        assert rep["boundary_homotopy_sphere"]


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
        rc = cli_main(["verify",
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
        tree = PlumbingTree(
            vertices=(PlumbingVertex(base_dim=4, rank=4, euler=2, char_label="v1"),),
            edges=())
        spec = NiceCoordinateSpec(p=4, q=4, R=math.pi / 4, N=1.0, kappa=0.5)
        cert = run_construction(tree, spec,
                                config={"search": {"t1_grid": [50.0]}})
        assert not cert.passed
        assert "infeasible" in cert.steps[0]
