"""Exact topological ledgers of chain plumbings.
=================================================

Everything here is integer or rational arithmetic: the intersection form of
a chain of odd-sphere tangent bundles is skew with determinant 0 or 1, its
Arf invariant separates the exotic boundary (length 2) from the standard one
(length 8l), and the fixed-point ledgers produce pairwise-distinct end
invariants whatever counting convention is used.
"""

import json

from plumbric import (EtaLedger, arf_invariant, boundary_sphere_test, eta_ledger,
                      fixed_point_count, tangent_chain, topo_report)
from plumbric.plumbing import clutching_word, render_word

print("chain length -> (det, homotopy sphere?, Arf)")
for m in (1, 2, 3, 4, 8, 16):
    tree = tangent_chain(m, 3)
    sphere, det = boundary_sphere_test(tree)
    arf = arf_invariant(tree) if m % 2 == 0 else "-"
    print(f"  {m:2d} -> ({det}, {sphere}, {arf})")

print("\nboundary gluing word of the 4-chain:",
      render_word(clutching_word(tangent_chain(4, 3))))

counts = {l: fixed_point_count(8 * l, "reported") for l in range(1, 7)}
led = EtaLedger(k=1, lengths=tuple(range(1, 7)), fixed_point_counts=counts)
res = eta_ledger(led)
print("\nend invariants (rational parts; the shared ambient constant cancels"
      " in differences):")
for l, v in res.etas.items():
    print(f"  length {8 * l}: {v}")
print("pairwise distinct:", res.distinct)

print("\nfull report for the equivariant 8-chain:")
print(json.dumps(topo_report(tangent_chain(8, 3, equivariant=True), l_max=4),
                 indent=1, default=str))
