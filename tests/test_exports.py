"""The package imports, and every name a module exports in ``__all__`` exists.

A deleted or renamed function that stays listed in ``__all__`` would break
``from plumbric.<module> import *`` without failing any other test.
"""

import importlib
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


def test_topo_imports_no_scipy_submodule():
    # The scipy submodules load on first use, so a process that only runs the
    # exact ledgers never pays for them (tens of MB of resident memory).
    code = ("import sys, plumbric\n"
            "from plumbric.plumbing import tangent_chain\n"
            "plumbric.topo_report(tangent_chain(64, 5, equivariant=True), l_max=20)\n"
            "print(sorted(m for m in ('scipy.interpolate', 'scipy.optimize', 'scipy.linalg')"
            " if m in sys.modules))\n")
    src = str(pathlib.Path(plumbric.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"
