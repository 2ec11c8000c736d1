"""Numerical construction of positive-curvature neck metrics on plumbed disk
bundles, with the exact integer/rational ledgers that tell the results apart.

Layout:

* :mod:`plumbric.caps` -- block-diagonal boundary forms and the gluing test
* :mod:`plumbric.warped` -- closed-form Ricci curvature of doubly warped products
* :mod:`plumbric.oracle` / :mod:`plumbric.charts` -- the finite-difference
  curvature oracle and the coordinate patches the certificate runs it on
* :mod:`plumbric.profiles` -- warping profiles (the left piece's exact
  series, the run-out), assembly, and search
* :mod:`plumbric.meancurv` -- neck margins, gluing forms, taper mean curvature
  and the neck-bulk chart
* :mod:`plumbric.plumbing` -- plumbing trees and exact topological ledgers
* :mod:`plumbric.g17` -- the vectorized ``%.17g`` text of the CSV columns
* :mod:`plumbric.pipeline` / :mod:`plumbric.cli` -- end-to-end runs,
  certificates, re-verification, and the command-line interface
"""

from .caps import BlockDiagonalForm, perelman_form_check
from .oracle import (CurvatureReport, GraphHypersurface, MetricPatch,
                     numeric_curvature, numeric_second_fundamental_form)
from .warped import WarpedJet, doubly_warped_ricci
from .profiles import (EpsilonProfile, InfeasibleProfileError, LeftParams,
                       ProfilePair, RightParams, build_left_profile,
                       build_right_profile, check_bc, integrate_fC,
                       search_parameters)
from .meancurv import (ab_terms, build_curve, interface_forms, z2_mean_curvature,
                       z3_mean_curvature)
from .plumbing import (EtaLedger, PlumbingTree, PlumbingVertex, arf_invariant,
                       boundary_sphere_test, clutching_word, eta_ledger,
                       eta_local_contribution, fixed_point_count,
                       intersection_matrix, tangent_chain)
from .pipeline import (ConstructionCertificate, NiceCoordinateSpec,
                       run_construction, topo_report, verify)

__version__ = "0.1.0"
