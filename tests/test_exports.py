"""The package imports, and every name a module exports in ``__all__`` exists.

A deleted or renamed function that stays listed in ``__all__`` would break
``from plumbric.<module> import *`` without failing any other test.
"""

import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import plumbric

MODULES = sorted(info.name for info in pkgutil.iter_modules(plumbric.__path__))


def test_package_imports():
    assert importlib.import_module("plumbric") is plumbric
    assert "pipeline" in MODULES and "oracle" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"plumbric.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"plumbric.{name}.__all__ lists missing names {missing}"


def _loaded_scipy_modules(code: str) -> list:
    """The scipy modules a fresh interpreter running ``code`` has imported at
    its end."""
    code += ("\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules"
             " if m == 'scipy' or m.startswith('scipy.'))))\n")
    src = str(pathlib.Path(plumbric.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_topo_imports_no_scipy_submodule():
    # A process that only runs the exact ledgers never pays for scipy (tens
    # of MB of resident memory).
    code = ("import plumbric\n"
            "from plumbric.plumbing import tangent_chain\n"
            "plumbric.topo_report(tangent_chain(64, 5, equivariant=True), l_max=20)\n")
    assert _loaded_scipy_modules(code) == []


def test_construct_and_verify_import_no_scipy(tmp_path):
    # The run-out table, the collar rise and the bulk chart's interpolant are
    # in-house (plumbric.numerics), and the oracle solves its generalized
    # eigenproblems by Cholesky reduction in numpy: nothing loads scipy.
    code = ("import math, plumbric\n"
            "from plumbric.plumbing import tangent_chain\n"
            "from plumbric.pipeline import NiceCoordinateSpec, run_construction, verify\n"
            "spec = NiceCoordinateSpec(p=3, q=3, R=math.pi / 4, N=1.0, kappa=0.5)\n"
            f"out = {str(tmp_path)!r}\n"
            "assert run_construction(tangent_chain(2, 3), spec, out_dir=out).passed\n"
            "assert verify(out + '/profiles/step_1.csv',"
            " out + '/profiles/step_1.params.json').passed\n")
    assert _loaded_scipy_modules(code) == []
