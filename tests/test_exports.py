"""The package imports, and every name a module exports in ``__all__`` exists.

A deleted or renamed function that stays listed in ``__all__`` would break
``from plumbric.<module> import *`` without failing any other test.
"""

import importlib
import pkgutil

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
