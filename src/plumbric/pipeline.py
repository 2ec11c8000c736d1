"""End-to-end construction runs, certificates, and artifact re-verification.

``run_construction`` walks a plumbing tree root-to-leaf, builds one neck
profile per vertex with :func:`plumbric.profiles.search_parameters`, derives
the next vertex's embedding data from the accepted scales, and aggregates
every check into a machine-readable certificate.

The four sample-determined checks come from one kernel in
:mod:`plumbric.profiles`: :func:`measure_profile` on the check-grid samples,
then :func:`sample_verdict` with the margin tolerance.  Construction judges
the search's accepted measurement, adds the oracle-only checks (bulk scalar
and taper, also from :mod:`plumbric.profiles`, then collar attachment) and
last the vertex's collar-ball bound, and writes its artifacts from the same
samples.  ``verify`` parses stored artifacts and runs the same kernel, so its
check records equal the constructing step's; its output is deterministic.

The config has three settings: ``lambda``, ``grid`` and
``tolerances.mc_margin``; an unknown key is rejected.

One construction computes each of the following once, keyed on the exact
inputs it reads:

* a step, on (p, q, angle): a step's profile depends only on (p, q) and the
  angle R/N of its vertex (exactly EPSILON_I for a derived vertex), and kappa
  enters only its last record, ``collar_ball_bound``.  A repeated vertex
  copies the first occurrence's records and artifacts and recomputes only
  its own ``collar_ball_bound``;
* the taper oracle, on (p, q, lambda, r, eps_b2).

These memos belong to the call: they are made when ``run_construction``
starts and dropped when it returns, so nothing is cached across calls.
"""

from __future__ import annotations

import copy
import json
import math
import pathlib
import shutil
import time
from dataclasses import dataclass

# The geometry modules are bound as modules and read at call time, so that a
# process that only computes ledgers never executes them (see the package
# docstring).
from . import profiles, warped
from .plumbing import (EtaLedger, PlumbingTree, PlumbingVertex, TreeStructureError,
                       arf_invariant, boundary_sphere_test, clutching_word, eta_ledger,
                       fixed_point_count, form_symmetry, render_word)

__all__ = [
    "NiceCoordinateSpec",
    "ConstructionCertificate",
    "DEFAULT_CONFIG",
    "run_construction",
    "verify",
    "verify_samples",
    "params_json",
    "topo_report",
    "certificate_json",
    "new_file",
]

SCHEMA = "plumbric-certificate/4"
PARAMS_SCHEMA = "plumbric-profile-params/2"

MARGIN_COLUMNS = ("t", "f", "h", "mc_margin")  # plots-data/step_k_margins.csv

EPSILON_I = math.pi / 4  # a child's cap radius is alpha*EPSILON_I in the sphere of scale alpha

DEFAULT_CONFIG = {
    "lambda": 0.1,
    "grid": 2048,
    "tolerances": {"mc_margin": 1e-9},
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
        for name in ("p", "q", "R", "N", "kappa"):
            value, integer = getattr(self, name), name in ("p", "q")
            if (isinstance(value, bool) or not isinstance(value, int if integer else (int, float))
                    or not math.isfinite(value)):
                raise SpecError(f"v_spec.{name} must be "
                                f"{'an integer' if integer else 'a finite number'}, got {value!r}")
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
    wall_time_s: float | None = None

    def as_dict(self):
        return {"schema": SCHEMA, "passed": self.passed,
                "wall_time_s": self.wall_time_s, "config": self.config,
                "steps": self.steps}


def certificate_json(cert: ConstructionCertificate) -> str:
    return json.dumps(cert.as_dict(), sort_keys=True, indent=1)


def _merge_config(config: dict | None) -> dict:
    """DEFAULT_CONFIG overridden by ``config``; unknown keys, at the top level
    or under ``tolerances``, a lambda that is not a finite number in (0, 1/2),
    a grid that is not an integer >= 2 and an unusable margin tolerance raise
    a ``SpecError`` that names them."""
    config = dict(config or {})
    tols = config.pop("tolerances", {})
    if not isinstance(tols, dict):
        raise SpecError(f"config 'tolerances' must be an object, got {tols!r}")
    unknown = {k: v for k, v in config.items() if k not in DEFAULT_CONFIG}
    unknown.update((f"tolerances.{k}", v) for k, v in tols.items()
                   if k not in DEFAULT_CONFIG["tolerances"])
    if unknown:
        raise SpecError("unknown config keys: "
                        + ", ".join(f"{k}={v!r}" for k, v in sorted(unknown.items()))
                        + " (the config takes lambda, grid and tolerances.mc_margin)")
    cfg = {**DEFAULT_CONFIG, **config,
           "tolerances": {**DEFAULT_CONFIG["tolerances"], **tols}}
    lam = cfg["lambda"]
    if not (isinstance(lam, (int, float)) and not isinstance(lam, bool)
            and math.isfinite(lam) and 0 < lam < 0.5):
        raise SpecError(f"config 'lambda' must be a finite number in (0, 1/2), got {lam!r}")
    grid = cfg["grid"]
    if not (isinstance(grid, int) and not isinstance(grid, bool) and grid >= 2):
        raise SpecError(f"config 'grid' must be an integer >= 2, got {grid!r}")
    tol = cfg["tolerances"]["mc_margin"]
    if not (isinstance(tol, (int, float)) and not isinstance(tol, bool)
            and math.isfinite(tol) and tol >= profiles.MC_TOL_FLOOR):
        raise SpecError(f"tolerances.mc_margin must be a finite number >= "
                        f"{profiles.MC_TOL_FLOOR:g}, the floor of the beta N sizing, "
                        f"got {tol!r}")
    return cfg


def root_vertex(tree: PlumbingTree, root) -> PlumbingVertex:
    """The vertex a construction starts at; a ``root`` that is not an integer
    in [0, n) raises a ``SpecError`` that names it."""
    if type(root) is not int or not 0 <= root < tree.n:
        raise SpecError(f"'root' must be an integer in [0, {tree.n}), got {root!r}")
    return tree.vertices[root]


def run_construction(tree: PlumbingTree, v_spec: NiceCoordinateSpec,
                     config: dict | None = None, root: int = 0,
                     out_dir=None) -> ConstructionCertificate:
    """Build one neck profile per vertex, root-to-leaf, and certify every check.

    The embedding data consumed by each child vertex is derived from its parent's
    accepted scales: cap radius alpha*EPSILON_I in the sphere of scale alpha and
    collar bound alpha*r (the taper-side embeddings the construction leaves
    behind).  Infeasibility or a failed check of any step marks the
    certificate failed and stops the traversal.

    A vertex's angle is R/N for the root and exactly EPSILON_I for a derived
    vertex, whose spec records R = alpha*EPSILON_I and N = alpha (the float
    quotient of those can miss EPSILON_I by an ulp).  Each distinct
    (p, q, angle) is searched and checked once per call: a vertex whose
    (p, q, angle) repeats an earlier vertex's gets a copy of that step's
    record with its own ``vertex``, ``spec`` and ``collar_ball_bound``, and
    copies of its artifact files.  On 64 tangent 8-chains (dimensions 3-9,
    four values each of R/N and lambda) this runs 112 searches, one or two
    per chain.  Each step's taper oracle runs once per (p, q, lambda, r,
    eps_b2); on a tangent chain the root and a derived vertex mostly accept
    the same (C, t1, s0), and then it runs once per chain.  The memos live
    for this call only.
    """
    t_start = time.perf_counter()
    cfg = _merge_config(config)
    root_vertex(tree, root)
    mc_tol = float(cfg["tolerances"]["mc_margin"])
    steps = []
    passed = True

    # This call's memo, dropped when it returns: (p, q, angle) -> (index of
    # its accepted step, derived child spec); the taper oracle's value on
    # (p, q, lambda, r, eps_b2).
    done, tapers = {}, {}
    stack = [(root, v_spec, v_spec.R / v_spec.N)]
    visited = {root}
    adj = tree._adj
    while stack:
        vi, spec, angle = stack.pop()
        vert = tree.vertices[vi]
        p_step = vert.rank
        q_step = vert.base_dim
        if (p_step, q_step) != (spec.p, spec.q):
            raise SpecError(
                f"vertex {vi} has (rank, base) = ({p_step}, {q_step}) but the "
                f"supplied embedding data is for (p, q) = ({spec.p}, {spec.q})")
        key = (p_step, q_step, angle)
        if key in done:
            first, derived = done[key]
            rec = copy.deepcopy(steps[first])
            rec["vertex"] = vi
            rec["spec"] = spec.as_dict()
            rec["checks"][-1] = _collar_ball_record(rec["right"]["rho"], spec.kappa)
        else:
            try:
                result = profiles.search_parameters(p_step, q_step, angle,
                                                    float(cfg["lambda"]), mc_margin_tol=mc_tol,
                                                    grid_n=cfg["grid"])
            except profiles.InfeasibleProfileError as exc:
                passed = False
                steps.append({"vertex": vi, "spec": spec.as_dict(),
                              "infeasible": str(exc), "checks": [], "margins": {}})
                break
            taper_key = (p_step, q_step, result.left.lam, result.left.r,
                         result.pair.eps_b2)
            if taper_key not in tapers:
                tapers[taper_key] = profiles.taper_check(*taper_key)
            rec = _step_record(vi, spec, result, mc_tol, tapers[taper_key])
            first = len(steps)
            derived = NiceCoordinateSpec(
                p=q_step, q=p_step, R=result.left.alpha * EPSILON_I,
                N=result.left.alpha, kappa=result.left.alpha * result.left.r,
                provenance="derived")
        steps.append(rec)
        if not all(c["passed"] for c in rec["checks"]):
            passed = False
            break
        if out_dir is not None and key in done:
            _copy_step_artifacts(out_dir, first, len(steps) - 1)
        elif out_dir is not None:
            _write_step_artifacts(out_dir, first, result)
        done[key] = (first, derived)
        for w in adj[vi]:
            if w not in visited:
                visited.add(w)
                stack.append((w, derived, EPSILON_I))

    cert = ConstructionCertificate(
        passed=passed and len(steps) == tree.n, steps=steps, config=cfg,
        wall_time_s=round(time.perf_counter() - t_start, 3))
    if out_dir is not None:
        out = pathlib.Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        new_file(out / "certificate.json").write_text(certificate_json(cert))
    return cert


def _collar_ball_record(rho: float, kappa: float) -> dict:
    """The vertex's collar-ball bound: the collar end rho below 0.99 kappa."""
    return profiles.check_record("collar_ball_bound", rho < 0.99 * kappa, rho, 0.99 * kappa,
                                 f"rho < 0.99 kappa, kappa = {kappa!r}")


def _step_record(vertex_idx: int, spec: NiceCoordinateSpec, result, mc_tol: float,
                 taper: float | ValueError) -> dict:
    """Certificate record of an accepted step: parameters, checks, margins.

    The four sample-determined records are the search's verdict on its own
    measurement, judged with the margin tolerance ``mc_tol`` exactly as
    ``verify`` judges the stored samples; the oracle-only checks follow, and
    the vertex's collar-ball bound comes last.  ``taper`` is the step's
    :func:`plumbric.profiles.taper_check` value: a minimum passes at
    >= -mc_tol, as the neck margin does, and an error fails with its name as
    the detail.
    """
    p, q = spec.p, spec.q
    left, right, pair, m = result.left, result.right, result.pair, result.measurement
    checks = list(result.checks)
    bulk = profiles.bulk_scalar_samples(pair, p, q)
    errors = [x for x in bulk if isinstance(x, ValueError)]
    if errors:
        bulk_min, bulk_ok = float("nan"), False
        bulk_detail = f"{len(errors)} of {len(bulk)} oracle samples failed; first: " \
                      f"{type(errors[0]).__name__}: {errors[0]}"
    else:
        bulk_min = min(bulk)
        bulk_ok, bulk_detail = bulk_min > 0.0, f"{len(bulk)} oracle samples"
    if isinstance(taper, ValueError):
        taper_min, taper_ok = float("nan"), False
        taper_detail = f"{type(taper).__name__}: {taper}"
    else:
        taper_min, taper_ok, taper_detail = taper, taper >= -mc_tol, ""

    checks += [
        profiles.check_record("bulk_scalar_positive", bulk_ok, bulk_min, 0.0, bulk_detail),
        profiles.check_record("taper_mc_nonnegative", taper_ok, taper_min, -mc_tol,
                              taper_detail),
    ]
    checks.append(profiles.check_record(
        "collar_attachment_hypothesis",
        all(c["passed"] for c in checks[1:]), None, None,
        "boundary Ricci, neck and taper mean curvature, bulk scalar"))
    checks.append(_collar_ball_record(right.rho, spec.kappa))
    margins = m.summary()
    margins.update(bulk_scalar_min=bulk_min, taper_mc_min=taper_min)
    left_obj, right_obj = _param_objects(left, right)
    return {
        "vertex": vertex_idx,
        "spec": spec.as_dict(),
        "left": left_obj,
        "right": right_obj,
        "eps_b2": pair.eps_b2,
        "checks": checks,
        "margins": margins,
    }


def _param_objects(left: profiles.LeftParams, right: profiles.RightParams) -> tuple:
    """The ``left`` and ``right`` objects of a step record; the params file's
    ``left`` adds a3."""
    return ({"lambda": left.lam, "a": left.a, "C": left.C, "r": left.r,
             "alpha": left.alpha, "b": left.b},
            {"t1": right.t1, "b3": right.b3, "beta": right.beta,
             "rho": right.rho, "N": right.N, "R": right.R})


def params_json(result) -> str:
    """The params file of a search result, which ``verify`` reads back."""
    left, right, m = result.left, result.right, result.measurement
    left_obj, right_obj = _param_objects(left, right)
    return json.dumps({"schema": PARAMS_SCHEMA, "p": m.p, "q": m.q,
                       "left": {**left_obj, "a3": left.a3}, "right": right_obj,
                       "markers": {"a3": left.a3, "t1": right.t1, "b3": right.b3},
                       "eps_b2": result.pair.eps_b2}, sort_keys=True, indent=1)


def new_file(path) -> pathlib.Path:
    """``path``, with any file there unlinked, so that the write that follows
    makes a new file instead of truncating the old one.

    Replacing a file by truncation makes ext4 flush the old file's dirty
    blocks first: on an ext4 root, rewriting a 3.4 MB profile CSV in place
    took 0.17 s, and 0.5 ms after an unlink.
    """
    path = pathlib.Path(path)
    path.unlink(missing_ok=True)
    return path


def _write_step_artifacts(out_dir, idx: int, result):
    """Profile CSV, params file and margin CSV, all from the measured samples.

    The two CSVs are written together, block by block, so the columns they
    share (t, f, h) are formatted once.
    """
    out = pathlib.Path(out_dir)
    (out / "profiles").mkdir(parents=True, exist_ok=True)
    (out / "plots-data").mkdir(parents=True, exist_ok=True)
    m = result.measurement
    cols = {name: getattr(m.jets, name) for name in profiles.PROFILE_COLUMNS}
    cols["mc_margin"] = m.margins[profiles.MC_VARIANT]
    with open(new_file(out / "profiles" / f"step_{idx}.csv"), "w") as prof, \
            open(new_file(out / "plots-data" / f"step_{idx}_margins.csv"), "w") as marg:
        for prof_text, marg_text in profiles.csv_blocks(cols, profiles.PROFILE_COLUMNS,
                                                        MARGIN_COLUMNS):
            prof.write(prof_text)
            marg.write(marg_text)
    new_file(out / "profiles" / f"step_{idx}.params.json").write_text(params_json(result))


def _copy_step_artifacts(out_dir, src: int, dst: int):
    """Write step dst's three artifacts as copies of step src's."""
    out = pathlib.Path(out_dir)
    for name in ("profiles/step_{}.csv", "profiles/step_{}.params.json",
                 "plots-data/step_{}_margins.csv"):
        shutil.copyfile(out / name.format(src), new_file(out / name.format(dst)))


# ---------------------------------------------------------------------------
# Re-verification of stored artifacts
# ---------------------------------------------------------------------------


# The keys verify reads from a parameter file, and the keys of its objects.
# Each value read is a number (an int or a float, never a bool); p and q are
# integers.
_PARAMS_SHAPE = {
    "p": None, "q": None, "eps_b2": None,
    "left": {"lambda", "a", "C", "r", "a3", "alpha", "b"},
    "right": {"t1", "b3", "beta", "rho", "N", "R"},
    "markers": {"a3", "t1", "b3"},
}


def verify_samples(samples: dict, params: dict, p: int, q: int,
                   config: dict | None = None) -> ConstructionCertificate:
    """Re-run the sample-determined checks on stored profile data.

    Builds the typed parameters from ``params`` (out-of-range values raise
    their named errors), requires the fields the params file derives from
    others (left.alpha, left.b, left.a3 and the markers t1 and b3) to equal
    the derived values, and the samples to run exactly from a3 to b3, then
    runs the measurement and verdict that ``run_construction`` runs.  The
    check records equal the constructing step's; deterministic, no
    reconstruction, no timing data.  ``config`` is validated like a
    construction config, but the certificate records only the one setting
    read here, ``tolerances.mc_margin``.
    """
    cfg = _merge_config(config)
    left, right, markers = params["left"], params["right"], params["markers"]
    lp = profiles.LeftParams(lam=left["lambda"], a=left["a"], C=left["C"], r=left["r"],
                             a3=left["a3"])
    rp = profiles.RightParams(**{name: right[name] for name in _PARAMS_SHAPE["right"]})
    for name, stored, derived, source in (
            ("left.alpha", left["alpha"], lp.alpha, "lambda and a"),
            ("left.b", left["b"], lp.b, "lambda, a and r"),
            ("left.a3", lp.a3, markers["a3"], "markers.a3"),
            ("markers.t1", markers["t1"], rp.t1, "right.t1"),
            ("markers.b3", markers["b3"], rp.b3, "right.b3")):
        if stored != derived:
            raise SpecError(f"parameter file's {name} = {stored!r} is not {derived!r} "
                            f"(from {source})")
    t = samples["t"]
    if t[0] != lp.a3 or t[-1] != rp.b3:
        raise SpecError(f"profile samples run from t = {t[0]!r} to {t[-1]!r}, "
                        f"not from a3 = {lp.a3!r} to b3 = {rp.b3!r}")
    m = profiles.measure_profile(warped.WarpedJet(**samples), lp, rp, params["eps_b2"], p, q)
    bc, checks = profiles.sample_verdict(m, float(cfg["tolerances"]["mc_margin"]))
    step = {"vertex": 0, "left": left, "right": right, "eps_b2": params["eps_b2"],
            "bc_clauses": bc.clauses, "checks": checks, "margins": m.summary()}
    return ConstructionCertificate(
        passed=all(c["passed"] for c in checks), steps=[step],
        config={"tolerances": cfg["tolerances"]}, wall_time_s=None)


def verify(profile_path, params_path, config: dict | None = None) -> ConstructionCertificate:
    """Load stored profile artifacts and re-run the sample-determined checks.

    The dimensions p and q come from the parameter file; a file without them,
    of another schema than ``PARAMS_SCHEMA``, of another shape than a
    parameter file's, or with a value of another type than
    :data:`_PARAMS_SHAPE` asks, is rejected with a ``SpecError``.
    """
    samples = profiles.parse_profile_csv(profile_path)
    params = json.loads(pathlib.Path(params_path).read_text())
    if not isinstance(params, dict):
        raise SpecError(f"parameter file must hold a JSON object, not a "
                        f"{type(params).__name__}")
    if params.get("schema") != PARAMS_SCHEMA:
        raise SpecError(f"parameter file schema {params.get('schema')!r} is not "
                        f"{PARAMS_SCHEMA!r}")
    for key, fields in _PARAMS_SHAPE.items():
        if key not in params:
            raise SpecError(f"parameter file lacks {key!r}")
        if fields is None:
            values = {key: params[key]}
        elif isinstance(params[key], dict) and fields <= params[key].keys():
            values = {f"{key}.{name}": params[key][name] for name in sorted(fields)}
        else:
            raise SpecError(f"parameter file's {key!r} must be an object with "
                            f"keys {sorted(fields)}")
        integer = key in ("p", "q")
        for name, value in values.items():
            if type(value) not in ((int,) if integer else (int, float)):
                raise SpecError(f"parameter file's {name} must be "
                                f"{'an integer' if integer else 'a number'}, got {value!r}")
    return verify_samples(samples, params, params["p"], params["q"], config=config)


# ---------------------------------------------------------------------------
# Topological reports
# ---------------------------------------------------------------------------


def topo_report(tree: PlumbingTree, l_max: int) -> dict:
    """Exact invariants of a plumbing tree as a JSON-ready dictionary.

    No matrix is built: the determinant is one O(m) integer recursion over
    the tree (``plumbing.tree_det``), and the Arf invariant and the symmetry
    type read the tree too.  A ledger the tree has no value for is replaced
    by a note with the reason: ``arf_note`` for the Arf invariant,
    ``clutching_note`` for the clutching word of a tree that is not a path;
    an eta ledger runs over the lengths 1..l_max."""
    sphere, det = boundary_sphere_test(tree)
    sym = form_symmetry(tree)
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
    except TreeStructureError as exc:
        out["clutching_note"] = str(exc)
    if tree.equivariant:
        m = tree.n
        counts = {"chain": fixed_point_count(m, "chain")}
        if m % 8 == 0:
            counts["reported"] = fixed_point_count(m, "reported")
        out["fixed_point_counts"] = counts
        if tree.total_dim % 4 == 2:
            k = (tree.total_dim - 2) // 4
            lengths = tuple(range(1, l_max + 1))
            led = EtaLedger(k=k, lengths=lengths, fixed_point_counts={
                l: fixed_point_count(8 * l, "reported") for l in lengths})
            res = eta_ledger(led)
            out["eta"] = res.as_dict()
    return out
