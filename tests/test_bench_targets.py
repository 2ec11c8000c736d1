"""The traced benchmark wraps plumbric functions by name: every name must exist.

``bench/tracing.py`` lists its targets as (module, attribute) pairs, where an
attribute ``Cls.meth`` names a method.  A deletion or rename in ``src/`` that
drops one of them breaks ``bench/run_bench.py --trace 1``; this test makes the
tier-1 suite fail first.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("plumbric_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracing().TARGETS


@pytest.mark.parametrize("mod_name,attr", [(m, a) for m, a, _n, _e in TARGETS],
                         ids=[f"{m}.{a}" for m, a, _n, _e in TARGETS])
def test_target_resolves(mod_name, attr):
    obj = importlib.import_module(f"plumbric.{mod_name}")
    for part in attr.split("."):
        assert hasattr(obj, part), f"plumbric.{mod_name} has no {attr}"
        obj = getattr(obj, part)
    assert callable(obj)
