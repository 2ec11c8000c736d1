"""Command-line interface: construct, verify, topo, eta, report."""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

from .pipeline import (SCHEMA, NiceCoordinateSpec, SpecError, certificate_json, new_file,
                       root_vertex, run_construction, topo_report, verify)
from .plumbing import EtaLedger, PlumbingTree, eta_ledger, fixed_point_count


def _load_config(path, grid=None, tol=None) -> tuple:
    """The run config of a config file with the flag overrides, and the
    file's construct-only keys ``v_spec`` and ``root``.  A file that does not
    hold a JSON object raises a ``SpecError`` naming it."""
    cfg = {}
    if path:
        cfg = json.loads(pathlib.Path(path).read_text())
        if not isinstance(cfg, dict):
            raise SpecError(f"config file {path} must hold a JSON object, not a "
                            f"{type(cfg).__name__}")
    cli_keys = {k: cfg.pop(k) for k in ("v_spec", "root") if k in cfg}
    if grid is not None:
        cfg["grid"] = grid
    if tol is not None:
        cfg.setdefault("tolerances", {})["mc_margin"] = tol
    return cfg, cli_keys


def _cmd_construct(args) -> int:
    tree = PlumbingTree.from_json(pathlib.Path(args.tree).read_text())
    cfg, cli_keys = _load_config(args.config, args.grid, args.tol)
    root = cli_keys.get("root", 0)
    vert = root_vertex(tree, root)
    vs = cli_keys.get("v_spec", {})
    if not (isinstance(vs, dict) and vs.keys() <= {"p", "q", "R", "N", "kappa"}):
        raise SpecError(f"config 'v_spec' must be an object with keys among p, q, R, N "
                        f"and kappa, got {vs!r}")
    spec = NiceCoordinateSpec(**{"p": vert.rank, "q": vert.base_dim, "R": math.pi / 4,
                                 "N": 1.0, "kappa": 0.5, **vs})
    out = args.out or "plumbric-out"
    cert = run_construction(tree, spec, config=cfg, root=root, out_dir=out)
    print(certificate_json(cert))
    print(f"certificate written to {out}/certificate.json", file=sys.stderr)
    return 0 if cert.passed else 1


def _cmd_verify(args) -> int:
    cfg, _cli_keys = _load_config(args.config, tol=args.tol)
    cert = verify(args.profiles, args.params, config=cfg)
    text = certificate_json(cert)
    if args.out:
        outdir = pathlib.Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        new_file(outdir / "certificate.json").write_text(text)
    print(text)
    return 0 if cert.passed else 1


def _cmd_topo(args) -> int:
    tree = PlumbingTree.from_json(pathlib.Path(args.tree).read_text())
    rep = topo_report(tree, l_max=args.lmax)
    text = json.dumps(rep, sort_keys=True, indent=1)
    if args.out:
        new_file(args.out).write_text(text)
    print(text)
    return 0


def _cmd_eta(args) -> int:
    lengths = tuple(range(1, args.lmax + 1))
    counts = {l: fixed_point_count(8 * l, args.convention) for l in lengths}
    led = EtaLedger(k=args.k, lengths=lengths, fixed_point_counts=counts)
    res = eta_ledger(led)
    text = res.to_json()
    if args.out:
        new_file(args.out).write_text(text)
    print(text)
    return 0 if res.distinct else 1


_CHECK_KEYS = ("id", "passed", "value", "tolerance", "detail")  # a check record's keys


def _report_steps(doc, path) -> list:
    """The steps of a certificate document.  A document that is not an
    object, one of another schema than ``SCHEMA``, a step that is not an
    object with a ``vertex``, and a check that is not an object with every
    key of ``_CHECK_KEYS`` raise a ``SpecError`` naming the first one."""
    if not isinstance(doc, dict):
        raise SpecError(f"certificate {path} must hold a JSON object, not a "
                        f"{type(doc).__name__}")
    if doc.get("schema") != SCHEMA:
        raise SpecError(f"certificate schema {doc.get('schema')!r} is not {SCHEMA!r}")
    steps = doc.get("steps", [])
    if not isinstance(steps, list):
        raise SpecError(f"certificate 'steps' must be a list, not a {type(steps).__name__}")
    for i, step in enumerate(steps):
        if not (isinstance(step, dict) and "vertex" in step
                and isinstance(step.get("checks", []), list)):
            raise SpecError(f"certificate step {i} must be an object with a 'vertex' "
                            f"and a list of 'checks'")
        for j, check in enumerate(step.get("checks", [])):
            if not isinstance(check, dict):
                raise SpecError(f"certificate step {i} check {j} must be an object, not a "
                                f"{type(check).__name__}")
            missing = [key for key in _CHECK_KEYS if key not in check]
            if missing:
                raise SpecError(f"certificate step {i} check {j} lacks {missing}")
    return steps


def _cmd_report(args) -> int:
    doc = json.loads(pathlib.Path(args.certificate).read_text())
    steps = _report_steps(doc, args.certificate)
    print(f"certificate: {doc.get('schema')}  passed: {doc.get('passed')}")
    for i, step in enumerate(steps):
        if "infeasible" in step:
            print(f"  step {i} (vertex {step['vertex']}): INFEASIBLE -- {step['infeasible']}")
            continue
        print(f"  step {i} (vertex {step['vertex']}):")
        for check in step.get("checks", []):
            mark = "pass" if check["passed"] else "FAIL"
            val = check["value"]
            val = f"{val:.3e}" if isinstance(val, float) else val
            print(f"    [{mark}] {check['id']}: {val} (tol {check['tolerance']}) {check['detail']}")
    return 0 if doc.get("passed") else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plumbric",
        description="Construct and verify positive-curvature neck profiles on "
                    "plumbed disk bundles, and compute their exact topological ledgers.")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("construct", help="run the full construction over a plumbing tree")
    pc.add_argument("--tree", required=True, help="plumbing tree JSON file")
    pc.add_argument("--config", help="configuration JSON file")
    pc.add_argument("--out", help="output directory (default plumbric-out)")
    pc.add_argument("--grid", type=int, help="check-grid points per vertex")
    pc.add_argument("--tol", type=float, help="mean-curvature margin tolerance")
    pc.set_defaults(func=_cmd_construct)

    pv = sub.add_parser("verify", help="re-check stored profile artifacts")
    pv.add_argument("--profiles", required=True, help="profile CSV file")
    pv.add_argument("--params", required=True, help="parameter JSON file")
    pv.add_argument("--config", help="configuration JSON file")
    pv.add_argument("--out", help="directory for the verification certificate")
    pv.add_argument("--tol", type=float, help="mean-curvature margin tolerance")
    pv.set_defaults(func=_cmd_verify)

    pt = sub.add_parser("topo", help="exact invariants of a plumbing tree")
    pt.add_argument("--tree", required=True)
    pt.add_argument("--out")
    pt.add_argument("--lmax", type=int, default=20)
    pt.set_defaults(func=_cmd_topo)

    pe = sub.add_parser("eta", help="fixed-point end-invariant ledger")
    pe.add_argument("--k", type=int, required=True, help="boundary dimension 4k+1")
    pe.add_argument("--lmax", type=int, default=100)
    pe.add_argument("--convention", choices=("reported", "chain"), default="reported")
    pe.add_argument("--out")
    pe.set_defaults(func=_cmd_eta)

    pr = sub.add_parser("report", help="summarize a certificate")
    pr.add_argument("--certificate", required=True)
    pr.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    """Run one command.  Exit code 0: the command passed; 1: it ran and its
    certificate, report or ledger failed; 2: the input was rejected (a bad
    flag, an unreadable file, or a named error of the package, all of which
    are ``ValueError``s)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"plumbric {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
