#!/usr/bin/env python3
"""plumbric benchmark: seeded workloads through the library API, end to end
or traced per layer, with every output checked.

    python3 bench/run_bench.py --workload chains --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src/``. One
process, one closed-loop caller: each op starts when the previous one has
returned. ``--workload all`` runs the three workloads one after another.

With ``--trace 0`` the run times whole blocks of ops until ``--seconds`` is
spent and reports the end-to-end metrics. With ``--trace 1`` it runs the first
``TRACE_BLOCKS`` blocks, each op once untraced and then once traced, and
reports the per-layer metrics from the spans and the tracing overhead.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 1 when any op
failed a check, 2 when the package cannot be imported from ``src/``.
Results, spans and per-op digests go to ``.bench_out/`` at the root.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# Neither module imports numpy, so importing them here keeps the thread caps
# of pin_threads ahead of numpy.
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, run_op

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
TRACE_BLOCKS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = [("setup_s", "s"), ("op_s.p50", "s"), ("op_s.p75", "s"),
              ("vertices_per_s", "1/s"), ("peak_rss_mb", "MB")]
clock = time.perf_counter


def pin_threads(nproc: int):
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 1 <= int(cur) <= nproc):
            os.environ[var] = str(nproc)


def import_plumbric():
    """Import the package afresh from src/, dropping any earlier import."""
    for name in [k for k in sys.modules if k == "plumbric" or k.startswith("plumbric.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    pb = importlib.import_module("plumbric")
    if Path(pb.__file__).resolve().parent != ROOT / "src" / "plumbric":
        raise ImportError(f"plumbric imported from {pb.__file__}, not from {src}")
    return pb


def git_commit():
    """The checked-out commit, read from .git without running git, or None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def environment(seed: int, nproc: int) -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc, "machine": platform.machine(),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "commit": git_commit(), "seed": seed}


class Run:
    """One workload run: set-up, the measured or traced loop, the report."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.records = []       # one per op run
        self.failed = 0

    def op(self, op, phase: str, tracer=None):
        try:
            if tracer is not None:
                tracer.op = op.id
                tracer.install()
            try:
                out = run_op(self.workload, op, self.work, clock)
            finally:
                if tracer is not None:
                    tracer.uninstall()
        except Exception as exc:   # a raising op is a failed op; the run goes on
            out = None
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            problems = out.problems
        self.failed += bool(problems)
        rec = {"op": op.id, "phase": phase, "input": op.label, "problems": problems}
        if out is not None:
            rec.update(seconds=out.seconds, vertices=out.vertices, digest=out.digest,
                       bytes_written=out.bytes_written)
        self.records.append(rec)
        return rec

    def setup(self):
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            self.pb = import_plumbric()
            self.workload = WORKLOADS[self.name](self.pb, self.seed)
            self.op(self.workload.warmup(), "warmup")
            times.append(clock() - t0)
        return statistics.median(times)

    def measure(self, seconds: float) -> dict:
        t_start = clock()
        blocks = 0
        # Whole blocks only, and none that would end past the deadline.
        while blocks == 0 or (clock() - t_start) * (blocks + 1) / blocks <= seconds:
            for op in self.workload.block(blocks):
                self.op(op, "measure")
            blocks += 1
        done = [r for r in self.records if r["phase"] == "measure" and "seconds" in r]
        times = [r["seconds"] for r in done]
        return {"op_s.p50": statistics.median(times),
                "op_s.p75": statistics.quantiles(times, n=4, method="inclusive")[-1],
                "vertices_per_s": sum(r["vertices"] for r in done) / sum(times),
                "blocks": blocks, "samples": len(times)}

    def trace(self) -> dict:
        tracer = Tracer(clock)
        plain, traced = [], []
        ops = [op for b in range(TRACE_BLOCKS) for op in self.workload.block(b)]
        for i, op in enumerate(ops):
            # Alternate which of the pair runs first, so warm caches favour neither.
            if i % 2:
                traced.append(self.op(op, "traced", tracer))
            plain.append(self.op(op, "untraced"))
            if not i % 2:
                traced.append(self.op(op, "traced", tracer))
        for u, t in zip(plain, traced):
            if u.get("digest") != t.get("digest"):
                self.failed += not t["problems"]
                t["problems"].append("traced output differs from untraced output")
        t_plain = sum(r.get("seconds", 0.0) for r in plain)
        t_traced = sum(r.get("seconds", 0.0) for r in traced)
        tracer.write(OUT / f"{self.name}-seed{self.seed}-spans.jsonl")
        return layer_metrics(
            tracer.spans, sum(r.get("bytes_written", 0) for r in traced),
            (t_traced - t_plain) / len(traced), t_traced / t_plain - 1.0)


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(name, seed, work)
        setup_s = run.setup()
        if trace:
            metrics = run.trace()
            info = {}
        else:
            info = run.measure(seconds)
            info["setup_s"] = setup_s
            info["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {k: {"value": info[k], "unit": u} for k, u in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    first = [r.get("digest") for r in run.records if r["op"].startswith("0.")
             and r["phase"] in ("measure", "untraced")]
    result = {"correct": run.failed == 0, "attempted": len(run.records),
              "failed": run.failed, "metrics": metrics}
    doc = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
           "env": env, "info": info, "result": result, "ops": run.records}
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True))
    for key, m in metrics.items():
        print(f"{name:8s} {key:48s} {m['value']:.6g} {m['unit']}")
    if not trace:
        print(f"{name:8s} samples {info['samples']} ops in {info['blocks']} blocks")
    print(f"{name:8s} first-block digests {first}")
    for r in run.records:
        if r["problems"]:
            print(f"{name:8s} FAILED op {r['op']} ({r['phase']}): {r['problems']}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("chains", "dense", "ledgers", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    pin_threads(nproc)
    try:
        import_plumbric()
    except ImportError as exc:
        print(f"cannot import plumbric from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment(args.seed, nproc)
    print("env", json.dumps(env, sort_keys=True))
    names = ("chains", "dense", "ledgers") if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), env)
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": m for n, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
