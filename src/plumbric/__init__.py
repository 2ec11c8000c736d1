"""Numerical construction of positive-curvature neck metrics on plumbed disk
bundles, with the exact integer/rational ledgers that tell the results apart.

Layout:

* :mod:`plumbric.caps` -- block-diagonal boundary forms and the gluing test
* :mod:`plumbric.warped` -- closed-form Ricci curvature of doubly warped products
* :mod:`plumbric.oracle` / :mod:`plumbric.charts` -- the curvature oracle on
  exact 2-jets and the coordinate patches the certificate runs it on, each
  returning its metric's value, gradient and Hessian
* :mod:`plumbric.numerics` -- the cubic Hermite evaluator and the cumulative
  Simpson table the profiles are built with, bit-equal to scipy's
* :mod:`plumbric.profiles` -- warping profiles (the left piece's exact
  series, the run-out), assembly, search, and the checks of a step
* :mod:`plumbric.meancurv` -- neck margins, gluing forms, taper mean curvature
  and the neck-bulk chart
* :mod:`plumbric.plumbing` -- plumbing trees and exact topological ledgers
* :mod:`plumbric.g17` -- the vectorized ``%.17g`` text of the CSV columns
* :mod:`plumbric.certify` -- end-to-end runs, certificates and
  re-verification
* :mod:`plumbric.pipeline` / :mod:`plumbric.cli` -- topological reports, the
  names every command shares, and the command-line interface; ``pipeline``
  also resolves the names of ``certify`` on each access

``construct`` and ``verify`` need numpy at run time; ``topo``, ``eta`` and
``report`` need only the standard library.  scipy is a test reference.

Importing the package executes none of its modules.  Each library module is
registered in ``sys.modules`` unexecuted (``importlib.util.LazyLoader``) and
runs on its first attribute access; a name re-exported here resolves in its
module on first access (PEP 562).  So a process that only computes ledgers
runs ``pipeline`` and ``plumbing`` and never imports numpy, ``certify`` or
the geometry modules.  ``cli`` is left to the ordinary import system:
``python -m plumbric.cli`` would find it registered in ``sys.modules`` before
running it as ``__main__``, run it twice and warn.
"""

import importlib.util
import sys
from importlib.machinery import PathFinder

__version__ = "0.1.0"

_MODULES = ("caps", "certify", "charts", "g17", "meancurv", "numerics", "oracle",
            "pipeline", "plumbing", "profiles", "steps", "warped")

_EXPORTS = {
    "caps": ("BlockDiagonalForm", "perelman_form_check"),
    "oracle": ("CurvatureReport", "GraphHypersurface", "MetricPatch", "numeric_curvature",
               "numeric_second_fundamental_form"),
    "warped": ("WarpedJet", "doubly_warped_ricci"),
    "profiles": ("EpsilonProfile", "InfeasibleProfileError", "LeftParams", "ProfilePair",
                 "RightParams", "build_left_profile", "build_right_profile", "check_bc",
                 "integrate_fC", "search_parameters"),
    "meancurv": ("ab_terms", "build_curve", "interface_forms", "z2_mean_curvature",
                 "z3_mean_curvature"),
    "plumbing": ("EtaLedger", "PlumbingTree", "PlumbingVertex", "arf_invariant",
                 "boundary_sphere_test", "clutching_word", "eta_ledger",
                 "eta_local_contribution", "fixed_point_count", "intersection_matrix",
                 "tangent_chain"),
    "certify": ("ConstructionCertificate", "NiceCoordinateSpec", "run_construction", "verify"),
    "pipeline": ("topo_report",),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def _register(name: str):
    """``plumbric.<name>``, in ``sys.modules`` and not yet executed."""
    spec = PathFinder.find_spec(f"{__name__}.{name}", __path__)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _MODULES:
    globals()[_name] = _register(_name)
del _name


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
