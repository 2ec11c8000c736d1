"""The Fraction route to the eta ledger.

Each end invariant's rational part is -2 * count * 2^-n as a ``Fraction``,
and lengths are grouped by that value.  ``plumbing.eta_ledger`` computes the
same numbers as integer pairs and groups by the count, so tests compare the
two.  Test modules import these; pytest puts this directory on ``sys.path``.
"""

import json
from fractions import Fraction


def reference_etas(ledger) -> dict:
    """{length: Fraction}, the rational part of each length's eta."""
    unit = Fraction(1, 2 ** ledger.n)
    return {l: -2 * ledger.fixed_point_counts[l] * unit for l in ledger.lengths}


def reference_json(ledger) -> str:
    """The ledger document, with lengths grouped by their eta value."""
    etas = reference_etas(ledger)
    groups = {}
    for l in ledger.lengths:
        groups.setdefault(etas[l], []).append(l)
    collisions = sorted((a, b) for group in groups.values()
                        for i, a in enumerate(group) for b in group[i + 1:])
    return json.dumps({
        "n": ledger.n,
        "cv_coefficient": -2,
        "etas": {str(l): [v.numerator, v.denominator] for l, v in etas.items()},
        "distinct": not collisions,
        "collisions": [list(c) for c in collisions],
    }, sort_keys=True, indent=1)
