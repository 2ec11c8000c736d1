"""The traced benchmark wraps plumbric functions by name: every name must exist.

``bench/tracing.py`` lists its targets as (module, attribute) pairs, where an
attribute ``Cls.meth`` names a method.  A deletion or rename in ``src/`` that
drops one of them breaks ``bench/run_bench.py --trace 1``; this test makes the
tier-1 suite fail first.  The search's candidate counter reads a diagnostics key,
so a test also runs it on a real search result and a real infeasible error.
"""

import importlib
import importlib.util
import math
import pathlib

import pytest

from plumbric.profiles import InfeasibleProfileError, search_parameters

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("plumbric_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = _load_tracing()
TARGETS = TRACING_MODULE.TARGETS


@pytest.mark.parametrize("mod_name,attr", [(m, a) for m, a, _n, _e in TARGETS],
                         ids=[f"{m}.{a}" for m, a, _n, _e in TARGETS])
def test_target_resolves(mod_name, attr):
    obj = importlib.import_module(f"plumbric.{mod_name}")
    for part in attr.split("."):
        assert hasattr(obj, part), f"plumbric.{mod_name} has no {attr}"
        obj = getattr(obj, part)
    assert callable(obj)


def test_search_counts_read_the_search_diagnostics():
    # a renamed diagnostics key would read 0 candidates without failing the run
    search_counts = TRACING_MODULE._search_counts
    res = search_parameters(4, 4, math.pi / 4, 0.1)
    counts = search_counts((), res, None)
    assert counts == {"candidates": res.diagnostics["evaluations"], "accepted": 1}
    assert counts["candidates"] > 0
    # below the 1e-12 floor of the beta N sizing every measured margin fails
    with pytest.raises(InfeasibleProfileError) as err:
        search_parameters(4, 4, math.pi / 4, 0.1, mc_margin_tol=1e-14, grid_n=64)
    counts = search_counts((), None, err.value)
    assert counts == {"candidates": err.value.diagnostics["evaluations"], "accepted": 0}
    assert counts["candidates"] > 0
