"""The package imports, every name a module exports in ``__all__`` exists,
and each command imports only what it runs.

A deleted or renamed function that stays listed in ``__all__`` would break
``from plumbric.<module> import *`` without failing any other test.  The
import-footprint tests run in a fresh interpreter: ``import plumbric``
executes no module of the package, the ledger commands execute no geometry
module and import neither numpy nor ``fractions``, and construct and verify
import no scipy.
"""

import importlib
import json
import pkgutil

import pytest

import plumbric
from fresh_interpreter import last_json
from plumbric.plumbing import tangent_chain

MODULES = sorted(info.name for info in pkgutil.iter_modules(plumbric.__path__))


def test_package_imports():
    assert importlib.import_module("plumbric") is plumbric
    assert "pipeline" in MODULES and "oracle" in MODULES
    missing = [n for n in plumbric.__all__ if not hasattr(plumbric, n)]
    assert missing == [], f"plumbric.__all__ lists missing names {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"plumbric.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"plumbric.{name}.__all__ lists missing names {missing}"


def test_pipeline_reads_the_certificate_names_in_certify(monkeypatch):
    # pipeline keeps no binding of its own: a name read through it is the
    # object certify holds now, so the tracer and a monkeypatch of certify
    # reach every caller
    from plumbric import certify, pipeline
    assert set(certify.__all__) <= pipeline._CERTIFY
    for name in sorted(pipeline._CERTIFY):
        assert getattr(pipeline, name) is getattr(certify, name), name
        assert name not in vars(pipeline), name
    monkeypatch.setattr(certify, "verify", object())
    assert pipeline.verify is certify.verify
    with pytest.raises(AttributeError, match="module 'plumbric.pipeline' has no attribute "
                                             "'no_such_name'"):
        pipeline.no_such_name


def _fresh_imports(code: str) -> dict:
    """What a fresh interpreter running ``code`` has imported at its end: the
    ``plumbric`` modules in ``sys.modules`` (``registered``), those of them
    that have executed (``executed``; a registered module that has not run is
    still of the lazy loader's module type), whether numpy is loaded, the
    scipy modules loaded, and which of ``fractions`` and ``decimal`` are
    loaded (``rationals``)."""
    code += ("\nimport json, sys, types\n"
             "ours = sorted(m for m in sys.modules if m.startswith('plumbric.'))\n"
             "print(json.dumps({'registered': ours,"
             " 'executed': [m for m in ours if type(sys.modules[m]) is types.ModuleType],"
             " 'numpy': 'numpy' in sys.modules,"
             " 'scipy': sorted(m for m in sys.modules"
             " if m == 'scipy' or m.startswith('scipy.')),"
             " 'rationals': [m for m in ('decimal', 'fractions') if m in sys.modules]}))\n")
    return last_json(code)


def test_package_import_executes_no_module():
    # Every module but the CLI is registered, so that a tracer can find it in
    # sys.modules, and none has run.
    got = _fresh_imports("import plumbric\n")
    assert got["registered"] == [f"plumbric.{m}" for m in MODULES if m != "cli"]
    assert got["executed"] == [] and not got["numpy"]


def test_ledgers_import_no_geometry_and_no_numpy(tmp_path):
    # The exact ledgers are integer arithmetic: topo_report and the topo, eta
    # and report commands run pipeline and plumbing only, and build no Fraction.
    tree = tmp_path / "chain.json"
    tree.write_text(tangent_chain(64, 5, equivariant=True).to_json())
    cert = tmp_path / "certificate.json"
    cert.write_text(json.dumps({"schema": "plumbric-certificate/4", "passed": True, "steps": [
        {"vertex": 0, "checks": [{"id": "boundary_ricci_positive", "passed": True,
                                  "value": 0.5, "tolerance": 0.0, "detail": ""}]}]}))
    code = ("import contextlib, io, plumbric\n"
            "from plumbric.plumbing import tangent_chain\n"
            "from plumbric.cli import main\n"
            "plumbric.topo_report(tangent_chain(64, 5, equivariant=True), l_max=20)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['topo', '--tree', {str(tree)!r}]) == 0\n"
            "    assert main(['eta', '--k', '2']) == 0\n"
            f"    assert main(['report', '--certificate', {str(cert)!r}]) == 0\n")
    got = _fresh_imports(code)
    assert got["executed"] == ["plumbric.cli", "plumbric.pipeline", "plumbric.plumbing"]
    assert not got["numpy"] and got["scipy"] == []
    assert got["rationals"] == []


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
    got = _fresh_imports(code)
    assert got["numpy"] and "plumbric.profiles" in got["executed"]
    assert got["scipy"] == []
