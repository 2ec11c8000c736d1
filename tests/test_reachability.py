"""Every ``src/plumbric`` function is run by a command, or is listed here.

The test runs the five commands through ``cli.main`` and records, with
``sys.setprofile``, the code objects they enter: ``construct``, ``verify`` and
``report`` on a 1-chain of dimension 3 and a 3-chain of dimension 5 at grid
256, ``topo`` on equivariant chains of 8, 9 and 16 vertices, and ``eta`` with
k = 1 and 2.  The functions and methods defined in the package that none of
them enters must be exactly :data:`NEVER_ENTERED`.  A route that no command
runs fails this test until it is wired in, deleted, or listed with its
reason.

An entry listed because the benchmark's spans name it must be one of
``bench/tracing.py``'s ``TARGETS``, and every target that no command enters
must be listed with that reason: when the benchmark drops a span, these
tests name the function that can go.
"""

import importlib
import importlib.util
import inspect
import json
import pathlib
import pkgutil
import sys

import pytest

import plumbric
from plumbric.cli import main as cli_main
from plumbric.plumbing import tangent_chain

PACKAGE_DIR = str(pathlib.Path(plumbric.__file__).parent)
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

SPANS = "named by the benchmark's per-layer spans"
NEVER_ENTERED = {
    "profiles._bad_profile_row": "error path: names the CSV row that fails to parse",
    "profiles.BoundaryConditionError.__init__": "error path: a clause fails at build time",
    "profiles.InfeasibleProfileError.__init__": "error path: no candidate is accepted",
    "meancurv.z3_mean_curvature": SPANS,
    "profiles.ProfilePair.to_csv": SPANS,
    # ProfilePair.jets is the evaluator, the bulk chart's included
    **{f"profiles.ProfilePair.{name}": SPANS for name in ("f", "f1", "f2", "h", "h1", "h2")},
    "plumbing.intersection_matrix": SPANS,
    "plumbing.bareiss_det": SPANS,
    "plumbing.eta_local_contribution": "library API: the ledger reduces integer pairs, "
                                       "and no command builds a Fraction",
    "plumbing.EtaLedgerResult.etas": "library API: the Fractions of the integer pairs "
                                     "that the commands print",
}


def _package_functions():
    """{code object: "module.qualname"} of every function and method defined
    in a ``src/plumbric`` file, with the cached functions' caches cleared so
    that a command run enters them afresh."""
    found = {}

    def add(fn):
        fn = getattr(fn, "__wrapped__", fn)
        code = getattr(fn, "__code__", None)
        if code is not None and code.co_filename.startswith(PACKAGE_DIR):
            found[code] = f"{fn.__module__.removeprefix('plumbric.')}.{fn.__qualname__}"

    for info in pkgutil.iter_modules(plumbric.__path__):
        module = importlib.import_module(f"plumbric.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
            if inspect.isclass(obj):
                for member in vars(obj).values():
                    if isinstance(member, property):
                        member = member.fget
                    add(getattr(member, "__func__", member))
            else:
                add(obj)
    return found


def _run_commands(tmp_path):
    trees = {}
    for name, tree in (("c1d3", tangent_chain(1, 3)), ("c3d5", tangent_chain(3, 5)),
                       *((f"eq{m}", tangent_chain(m, 3, equivariant=True))
                         for m in (8, 9, 16))):
        trees[name] = tmp_path / f"{name}.json"
        trees[name].write_text(tree.to_json())
    for name in ("c1d3", "c3d5"):
        out = tmp_path / name
        assert cli_main(["construct", "--tree", str(trees[name]), "--grid", "256",
                         "--out", str(out)]) == 0
        for params in sorted((out / "profiles").glob("step_*.params.json")):
            profile = params.with_name(params.name.replace(".params.json", ".csv"))
            assert cli_main(["verify", "--profiles", str(profile),
                             "--params", str(params)]) == 0
        assert cli_main(["report", "--certificate", str(out / "certificate.json")]) == 0
    for m in (8, 9, 16):
        assert cli_main(["topo", "--tree", str(trees[f"eq{m}"])]) == 0
    for k in ("1", "2"):
        assert cli_main(["eta", "--k", k]) == 0


def _bench_targets() -> set:
    """The benchmark's traced functions as "module.attribute", read from
    ``bench/tracing.py`` as ``tests/test_bench_targets.py`` reads it."""
    spec = importlib.util.spec_from_file_location("plumbric_bench_tracing_targets",
                                                  BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {f"{mod}.{attr}" for mod, attr, _name, _extract in module.TARGETS}


@pytest.fixture(scope="module")
def never_entered(tmp_path_factory):
    """The package's functions that no command enters, sorted."""
    functions = _package_functions()
    entered = set()

    def record(frame, event, _arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        _run_commands(tmp_path_factory.mktemp("commands"))
    finally:
        sys.setprofile(previous)
    return sorted(name for code, name in functions.items() if code not in entered)


def test_every_unreached_function_is_listed(never_entered):
    assert never_entered == sorted(NEVER_ENTERED), json.dumps(never_entered, indent=1)


def test_span_entries_are_bench_targets():
    spans = {name for name, reason in NEVER_ENTERED.items() if reason == SPANS}
    assert sorted(spans - _bench_targets()) == []


def test_unentered_bench_targets_are_listed_as_spans(never_entered):
    unlisted = sorted(name for name in _bench_targets() & set(never_entered)
                      if NEVER_ENTERED.get(name) != SPANS)
    assert unlisted == []
