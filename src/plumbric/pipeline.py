"""End-to-end construction runs, certificates, and artifact re-verification.

``run_construction`` walks a plumbing tree root-to-leaf, builds one neck
profile per vertex with :func:`plumbric.profiles.search_parameters`, derives
the next vertex's embedding data from the accepted scales, and aggregates
every check into a machine-readable certificate.

The four sample-determined checks come from one kernel in
:mod:`plumbric.profiles`: :func:`measure_profile` on the check-grid samples,
then :func:`sample_verdict` with the config tolerances.  Construction judges
the search's accepted measurement, adds the oracle-only checks (bulk scalar,
taper, collar attachment) and writes its artifacts from the same samples.
``verify`` parses stored artifacts and runs the same kernel, so its check
records equal the constructing step's; its output is deterministic.
"""

from __future__ import annotations

import io
import json
import math
import pathlib
import time
from dataclasses import dataclass

import numpy as np

from .meancurv import bulk_patch, z2_mean_curvature
from .oracle import NonSPDMetricError, OracleDomainError, numeric_curvature
from .plumbing import (EtaLedger, PlumbingTree, arf_invariant, boundary_sphere_test,
                       clutching_word, eta_ledger, fixed_point_count,
                       intersection_matrix, render_word)
from .profiles import (EpsilonProfile, InfeasibleProfileError, LeftParams,
                       RightParams, check_record, jets_csv, measure_profile,
                       sample_verdict, search_parameters)
from .warped import WarpedJet

__all__ = [
    "NiceCoordinateSpec",
    "ConstructionCertificate",
    "DEFAULT_CONFIG",
    "run_construction",
    "verify",
    "verify_samples",
    "topo_report",
    "certificate_json",
]

SCHEMA = "plumbric-certificate/1"

DEFAULT_CONFIG = {
    "lambda": 0.1,
    "grid": 2048,
    "seed": 0,
    "epsilon_i": math.pi / 4,
    "tolerances": {
        "mc_margin": 1e-9,
        "bc": 1e-8,
        "ricci_min": 0.0,
        "glue": 1e-9,
    },
    "mc_variant": "reported",
    "oracle_points": 4,
    "search": {},
}


class SpecError(ValueError):
    pass


@dataclass(frozen=True)
class NiceCoordinateSpec:
    """Embedding data a vertex consumes: cap radius R in the scale-N sphere
    and the admissible collar-ball bound kappa."""

    p: int
    q: int
    R: float
    N: float
    kappa: float
    provenance: str = "initial"

    def __post_init__(self):
        if not (0.0 < self.R / self.N < math.pi / 2):
            raise SpecError(f"need 0 < R/N < pi/2, got {self.R / self.N}")
        if self.kappa <= 0:
            raise SpecError("kappa must be positive")
        if self.p < 3 or self.q < 3:
            raise SpecError("need p, q >= 3")

    def as_dict(self):
        return {"p": self.p, "q": self.q, "R": self.R, "N": self.N,
                "kappa": self.kappa, "provenance": self.provenance}


@dataclass
class ConstructionCertificate:
    passed: bool
    steps: list
    config: dict
    seed: int
    wall_time_s: float | None = None

    def as_dict(self):
        return {"schema": SCHEMA, "passed": self.passed, "seed": self.seed,
                "wall_time_s": self.wall_time_s, "config": self.config,
                "steps": self.steps}


def certificate_json(cert: ConstructionCertificate) -> str:
    return json.dumps(cert.as_dict(), sort_keys=True, indent=1)


def _merge_config(config: dict | None) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    for k, v in (config or {}).items():
        if isinstance(v, dict) and isinstance(cfg.get(k), dict):
            cfg[k].update(v)
        else:
            cfg[k] = v
    return cfg


def _bulk_scalar_samples(pair, p: int, q: int, n_points: int) -> list:
    """Oracle scalar curvature at interior points of the neck bulk.

    Samples the chart cannot difference are skipped and not counted.
    """
    patch, curve, keep = bulk_patch(pair, p, q, d_min=1e-4)
    tts, F = curve.t_tilde[keep], curve.F[keep]
    bN = pair.right.bN
    step = np.concatenate([[1e-4 * bN, 1e-4 * bN], np.full(patch.dim - 2, 1e-3)])
    idx = np.unique(np.linspace(2, tts.size - 3, n_points).astype(int))
    out = []
    for i in idx:
        tt0 = float(tts[i])
        s0 = max(0.5 * float(F[i]), 3e-4 * bN)
        point = np.concatenate([[tt0, s0], np.full(patch.dim - 2, math.pi / 2 + 0.1)])
        try:
            rep = numeric_curvature(patch, point, step=step)
        except (OracleDomainError, NonSPDMetricError):
            continue
        out.append(float(rep.scalar))
    return out


def run_construction(tree: PlumbingTree, v_spec: NiceCoordinateSpec,
                     config: dict | None = None, root: int = 0,
                     out_dir=None) -> ConstructionCertificate:
    """Build one neck profile per vertex, root-to-leaf, and certify every check.

    The embedding data consumed by each child vertex is derived from its parent's
    accepted scales: cap radius alpha*eps_i in the sphere of scale alpha and
    collar bound alpha*r (the taper-side embeddings the construction leaves
    behind).  Infeasibility of any step marks the certificate failed and
    stops the traversal.
    """
    t_start = time.perf_counter()
    cfg = _merge_config(config)
    tol = cfg["tolerances"]
    eps_i = float(cfg["epsilon_i"])
    steps = []
    passed = True

    stack = [(root, v_spec)]
    visited = {root}
    adj = tree._adj
    while stack:
        vi, spec = stack.pop()
        vert = tree.vertices[vi]
        p_step = vert.rank
        q_step = vert.base_dim
        if (p_step, q_step) != (spec.p, spec.q):
            raise SpecError(
                f"vertex {vi} has (rank, base) = ({p_step}, {q_step}) but the "
                f"supplied embedding data is for (p, q) = ({spec.p}, {spec.q})")
        try:
            result = search_parameters(
                p_step, q_step, spec.R / spec.N, float(cfg["lambda"]),
                kappa=spec.kappa, mc_margin_tol=float(tol["mc_margin"]),
                mc_variant=cfg["mc_variant"], grid_n=int(cfg["grid"]),
                config=cfg.get("search") or None)
        except InfeasibleProfileError as exc:
            passed = False
            steps.append({"vertex": vi, "spec": spec.as_dict(),
                          "infeasible": str(exc), "checks": [], "margins": {}})
            break
        rec = _step_record(vi, spec, result, cfg)
        steps.append(rec)
        if not all(c["passed"] for c in rec["checks"]):
            passed = False
            break
        if out_dir is not None:
            _write_step_artifacts(out_dir, len(steps) - 1, result, cfg)
        derived = NiceCoordinateSpec(
            p=q_step, q=p_step, R=result.left.alpha * eps_i,
            N=result.left.alpha, kappa=result.left.alpha * result.left.r,
            provenance="derived")
        for w in adj[vi]:
            if w not in visited:
                visited.add(w)
                stack.append((w, derived))

    cert = ConstructionCertificate(
        passed=passed and len(steps) == tree.n,
        steps=steps, config=cfg, seed=int(cfg["seed"]),
        wall_time_s=round(time.perf_counter() - t_start, 3))
    if out_dir is not None:
        out = pathlib.Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "certificate.json").write_text(certificate_json(cert))
    return cert


def _step_record(vertex_idx: int, spec: NiceCoordinateSpec, result, cfg: dict) -> dict:
    """Certificate record of an accepted step: parameters, checks, margins.

    The four sample-determined records judge the search's own measurement
    with the config tolerances, exactly as ``verify`` judges the stored
    samples; the oracle-only checks follow.
    """
    tol = cfg["tolerances"]
    p, q = spec.p, spec.q
    left, right, pair, m = result.left, result.right, result.pair, result.measurement
    _bc, checks = sample_verdict(m, tol, cfg["mc_variant"])
    bulk = _bulk_scalar_samples(pair, p, q, int(cfg["oracle_points"]))
    bulk_min = min(bulk) if bulk else float("nan")

    # Taper-region boundary via the generic oracle at the accepted scales.
    eps_end = pair.eps_b2
    taper_ok = True
    taper_min = float("nan")
    if 0.0 < eps_end < math.pi / 2:
        try:
            ep = EpsilonProfile(a2=-1.0, b2=0.0, eps_end=eps_end)
            zrep = z2_mean_curvature(ep, lambda tt: 1.0 + left.lam * np.asarray(tt),
                                     r=left.r, p=p, q=q, n_samples=5)
            taper_ok = zrep.passed
            taper_min = float(np.min(zrep.mean_curvature))
        except (OracleDomainError, NonSPDMetricError):
            taper_ok = False
            taper_min = float("nan")

    checks += [
        check_record("bulk_scalar_positive", bool(bulk) and bulk_min > 0.0, bulk_min, 0.0,
               f"{len(bulk)} oracle samples"),
        check_record("taper_mc_nonnegative", taper_ok, taper_min,
               -float(tol["mc_margin"])),
    ]
    checks.append(check_record(
        "collar_attachment_hypothesis",
        all(c["passed"] for c in checks[1:]), None, None,
        "boundary Ricci, neck and taper mean curvature, bulk scalar"))
    margins = m.summary()
    margins.update(bulk_scalar_min=bulk_min, taper_mc_min=taper_min)
    return {
        "vertex": vertex_idx,
        "spec": spec.as_dict(),
        "left": {"lambda": left.lam, "a": left.a, "C": left.C, "r": left.r,
                 "alpha": left.alpha, "b": left.b},
        "right": {"t1": right.t1, "b3": right.b3, "beta": right.beta,
                  "rho": right.rho, "N": right.N, "R": right.R},
        "eps_b2": pair.eps_b2,
        "checks": checks,
        "margins": margins,
    }


def _write_step_artifacts(out_dir, idx: int, result, cfg: dict):
    """Profile CSV, params file and margin CSV, all from the measured samples."""
    out = pathlib.Path(out_dir)
    (out / "profiles").mkdir(parents=True, exist_ok=True)
    (out / "plots-data").mkdir(parents=True, exist_ok=True)
    m = result.measurement
    (out / "profiles" / f"step_{idx}.csv").write_text(jets_csv(m.jets))
    params = json.loads(result.pair.params_json())
    params["p"] = m.p
    params["q"] = m.q
    (out / "profiles" / f"step_{idx}.params.json").write_text(
        json.dumps(params, sort_keys=True, indent=1))
    cols = [m.jets.t, m.jets.f, m.jets.h, m.margins[cfg["mc_variant"]]]
    buf = io.StringIO()
    buf.write("t,f,h,mc_margin\n")
    np.savetxt(buf, np.column_stack(cols), delimiter=",", fmt="%.17g")
    (out / "plots-data" / f"step_{idx}_margins.csv").write_text(buf.getvalue())


# ---------------------------------------------------------------------------
# Re-verification of stored artifacts
# ---------------------------------------------------------------------------


def _parse_profile_csv(text: str):
    header, _, body = text.lstrip().partition("\n")
    header = header.strip().split(",")
    expected = ["t", "f", "f1", "f2", "h", "h1", "h2"]
    if header != expected:
        raise SpecError(f"profile CSV columns must be {expected}, got {header}")
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    return {name: data[:, k] for k, name in enumerate(expected)}


def verify_samples(samples: dict, params: dict, p: int, q: int,
                   config: dict | None = None) -> ConstructionCertificate:
    """Re-run the sample-determined checks on stored profile data.

    Builds the typed parameters from ``params`` (out-of-range values raise
    their named errors), requires the samples to run exactly from a3 to b3,
    then runs the measurement and verdict that ``run_construction`` runs.
    The check records equal the constructing step's; deterministic, no
    reconstruction, no timing data.
    """
    cfg = _merge_config(config)
    left, right = params["left"], params["right"]
    lp = LeftParams(lam=left["lambda"], a=left["a"], C=left["C"], r=left["r"],
                    a3=left["a3"])
    rp = RightParams(**right)
    t = samples["t"]
    a3 = params["markers"]["a3"]
    if t[0] != a3 or t[-1] != rp.b3:
        raise SpecError(f"profile samples run from t = {t[0]!r} to {t[-1]!r}, "
                        f"not from a3 = {a3!r} to b3 = {rp.b3!r}")
    m = measure_profile(WarpedJet(**samples), lp, rp, params["eps_b2"], p, q)
    bc, checks = sample_verdict(m, cfg["tolerances"], cfg["mc_variant"])
    step = {"vertex": 0, "left": left, "right": right, "eps_b2": params["eps_b2"],
            "bc_clauses": bc.clauses, "checks": checks, "margins": m.summary()}
    return ConstructionCertificate(
        passed=all(c["passed"] for c in checks), steps=[step], config=cfg,
        seed=int(cfg["seed"]), wall_time_s=None)


def verify(profile_path, params_path, config: dict | None = None) -> ConstructionCertificate:
    """Load stored profile artifacts and re-run the sample-determined checks.

    The dimensions p and q come from the parameter file; a file without them
    is rejected.
    """
    samples = _parse_profile_csv(pathlib.Path(profile_path).read_text())
    params = json.loads(pathlib.Path(params_path).read_text())
    if params.get("schema") != "plumbric-profile-params/1":
        raise SpecError("unrecognized parameter file schema")
    for key in ("p", "q"):
        if key not in params:
            raise SpecError(f"parameter file lacks {key!r}")
    return verify_samples(samples, params, int(params["p"]), int(params["q"]),
                          config=config)


# ---------------------------------------------------------------------------
# Topological reports
# ---------------------------------------------------------------------------


def topo_report(tree: PlumbingTree, l_max: int = 20) -> dict:
    """Exact invariants of a plumbing tree as a JSON-ready dictionary."""
    M, sym = intersection_matrix(tree)
    sphere, det = boundary_sphere_test(tree)
    out = {
        "vertices": tree.n,
        "total_dim": tree.total_dim,
        "symmetry": sym,
        "det": det,
        "boundary_homotopy_sphere": sphere,
    }
    if sym == "skew":
        try:
            out["arf"] = arf_invariant(tree)
        except ValueError as exc:
            out["arf"] = None
            out["arf_note"] = str(exc)
    try:
        out["clutching_word"] = clutching_word(tree)
        out["clutching_rendered"] = render_word(out["clutching_word"])
    except ValueError:
        pass
    if tree.equivariant:
        m = tree.n
        counts = {"chain": fixed_point_count(m, "chain")}
        if m % 8 == 0:
            import warnings
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                counts["reported"] = fixed_point_count(m, "reported")
        out["fixed_point_counts"] = counts
        if tree.total_dim % 4 == 2:
            k = (tree.total_dim - 2) // 4
            lengths = tuple(range(1, l_max + 1))
            led = EtaLedger(k=k, lengths=lengths,
                            fixed_point_counts={l: 2 * l + 1 for l in lengths})
            res = eta_ledger(led)
            out["eta"] = json.loads(res.to_json())
    return out
