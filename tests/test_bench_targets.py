"""The benchmark's view of plumbric: every traced name exists, and one small
op of each workload passes the benchmark's own checks.

``bench/tracing.py`` lists its targets as (module, attribute) pairs, where an
attribute ``Cls.meth`` names a method.  A deletion or rename in ``src/`` that
drops one of them breaks ``bench/run_bench.py --trace 1``; this test makes the
tier-1 suite fail first.  The search's candidate counter reads a diagnostics key,
so a test also runs it on a real search result and a real infeasible error.

``import plumbric`` registers the package's modules in ``sys.modules`` without
running them, and the tracer looks its targets up there; a test installs and
removes the tracer in a fresh interpreter that has run only a ledger.

``bench/run_bench.py`` fails a run in which any op reports a problem: a
certificate that does not pass, a verify that differs between repeats, or a
ledger off its closed form.  The op tests run one op of each kind through the
benchmark's ``run_op``, so a ``src/`` change that breaks one of those checks
fails tier-1 too.
"""

import importlib
import importlib.util
import math
import pathlib
import random
import sys
import time

import pytest

import plumbric
import plumbric.pipeline  # noqa: F401  (the workloads reach it as plumbric.pipeline)
from fresh_interpreter import last_json
from plumbric.profiles import InfeasibleProfileError, search_parameters

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"plumbric_bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = _load("tracing")
TARGETS = TRACING_MODULE.TARGETS
WORKLOADS = _load("workloads")


@pytest.mark.parametrize("mod_name,attr", [(m, a) for m, a, _n, _e in TARGETS],
                         ids=[f"{m}.{a}" for m, a, _n, _e in TARGETS])
def test_target_resolves(mod_name, attr):
    obj = importlib.import_module(f"plumbric.{mod_name}")
    for part in attr.split("."):
        assert hasattr(obj, part), f"plumbric.{mod_name} has no {attr}"
        obj = getattr(obj, part)
    assert callable(obj)


def test_tracer_installs_after_a_ledger_only_run():
    # The geometry modules are registered but have not run when the tracer is
    # installed; it must wrap every target, record the ledger's spans, and
    # put every original back.
    code = f"""
import importlib.util, json, time
import plumbric
from plumbric.plumbing import tangent_chain
tree = tangent_chain(64, 5, equivariant=True)
first = plumbric.pipeline.topo_report(tree, l_max=20)
spec = importlib.util.spec_from_file_location("tracing", {str(BENCH / "tracing.py")!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)

def current(mod, attr):
    obj = getattr(plumbric, mod)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj

tracer = tracing.Tracer(time.perf_counter)
tracer.install()
traced = [current(m, a) for m, a, _n, _e in tracing.TARGETS]
second = plumbric.pipeline.topo_report(tree, l_max=20)
tracer.uninstall()
print(json.dumps({{
    "wrapped": all(hasattr(fn, "__wrapped__") for fn in traced),
    "restored": all(current(m, a) is fn.__wrapped__
                    for (m, a, _n, _e), fn in zip(tracing.TARGETS, traced)),
    "spans": sorted({{s["name"] for s in tracer.spans}}),
    "same": first == second}}))
"""
    got = last_json(code)
    assert got["wrapped"] and got["restored"] and got["same"]
    assert got["spans"] == ["pipeline.topo_report", "plumbing.arf_invariant",
                            "plumbing.clutching_word", "plumbing.eta_ledger"]


def test_search_counts_read_the_search_diagnostics():
    # a renamed diagnostics key would read 0 candidates without failing the run
    search_counts = TRACING_MODULE._search_counts
    res = search_parameters(4, 4, math.pi / 4, 0.1, mc_margin_tol=1e-9, grid_n=2048)
    counts = search_counts((), res, None)
    assert counts == {"candidates": res.diagnostics["evaluations"], "accepted": 1}
    assert counts["candidates"] > 0
    # below the 1e-12 floor of the beta N sizing every measured margin fails
    with pytest.raises(InfeasibleProfileError) as err:
        search_parameters(4, 4, math.pi / 4, 0.1, mc_margin_tol=1e-14, grid_n=64)
    counts = search_counts((), None, err.value)
    assert counts == {"candidates": err.value.diagnostics["evaluations"], "accepted": 0}
    assert counts["candidates"] > 0


def _run(workload, op, tmp_path):
    out = WORKLOADS.run_op(workload, op, tmp_path, time.perf_counter)
    assert out.problems == [], op.label
    return out


@pytest.mark.parametrize("dim", [3, 9])
def test_chain_op(dim, tmp_path):
    # dimension 9 runs the oracle on its largest charts (18 coordinates)
    chains = WORKLOADS.Chains(plumbric, 0)
    out = _run(chains, chains._op("chain", 2, dim, math.pi / 4 + 0.1, 0.2), tmp_path)
    assert out.vertices == 2 and out.bytes_written > 0


def test_dense_op(tmp_path):
    dense = WORKLOADS.Dense(plumbric, 0)
    out = _run(dense, dense._op("dense", 3, 3, 16384, math.pi / 4 + 0.1, 0.2), tmp_path)
    assert out.vertices == 1 and out.bytes_written > 0


@pytest.mark.parametrize("kind", WORKLOADS.LEDGER_KINDS)
def test_ledger_op(kind, tmp_path):
    ledgers = WORKLOADS.Ledgers(plumbric, 0)
    op = ledgers._op(kind, random.Random(kind), kind, 64, 20)
    assert _run(ledgers, op, tmp_path).vertices == 64
