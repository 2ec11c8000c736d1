"""sha256 pins of certificate bytes, and the script that takes them.

A pin is the sha256 of ``certificate_json`` of a certificate with its one
timing field, ``wall_time_s``, set to None.  The cases are the constructions
of tangent 2-chains of dimension 3, 5, 7 and 9 and of a tangent 8-chain of
dimension 7 at R/N = 1 and lambda = 0.25, and two single vertices at grid
16384 with the certificate of ``verify`` on each stored step: (4, 6) at
R/N = 1 and lambda = 0.25, and (3, 3) at R/N = pi/4 and lambda = 0.1.  The
first six cases accept the join t1 = 1e5 and put one or two check samples on
the left piece; the (3, 3) case accepts t1 = 1e7 and samples both the left
piece and the collar rise densely.  ``tests/test_pipeline.py`` compares the
package with ``tests/fixtures/certificate_digests.json``.

Take the pins with the package of the checkout at CHECKOUT (its ``src`` goes
first on ``sys.path``)::

    python3 tests/certificate_pins.py CHECKOUT > tests/fixtures/certificate_digests.json

Pins are taken at the parent of a change that must leave certificate bytes
unchanged, and never re-taken to make that change pass.
"""

import dataclasses
import hashlib
import json
import math
import pathlib
import sys
import tempfile

# name: (chain length m, p, q, check grid or None for the default, R/N, lambda)
CASES = {
    **{f"chain2_d{d}": (2, d, d, None, 1.0, 0.25) for d in (3, 5, 7, 9)},
    "chain8_d7": (8, 7, 7, None, 1.0, 0.25),
    "vertex_p4_q6_grid16384": (1, 4, 6, 16384, 1.0, 0.25),
    "vertex_p3_q3_rn_pi4_lam0.1_grid16384": (1, 3, 3, 16384, math.pi / 4, 0.1),
}


def _digest(cert) -> str:
    from plumbric.pipeline import certificate_json
    text = certificate_json(dataclasses.replace(cert, wall_time_s=None))
    return hashlib.sha256(text.encode()).hexdigest()


def case_digests(name: str) -> dict:
    """{"construct": pin} of the case, and "verify" for a grid case."""
    from plumbric.pipeline import NiceCoordinateSpec, run_construction, verify
    from plumbric.plumbing import PlumbingTree, PlumbingVertex, tangent_chain

    m, p, q, grid, R, lam = CASES[name]
    spec = NiceCoordinateSpec(p=p, q=q, R=R, N=1.0, kappa=0.5)
    config = {"lambda": lam}
    if grid is None:
        return {"construct": _digest(run_construction(tangent_chain(m, p), spec, config))}
    config["grid"] = grid
    tree = PlumbingTree(vertices=(PlumbingVertex(base_dim=q, rank=p, euler=0),), edges=())
    with tempfile.TemporaryDirectory() as out:
        cert = run_construction(tree, spec, config, out_dir=out)
        profiles = pathlib.Path(out) / "profiles"
        checked = verify(profiles / "step_0.csv", profiles / "step_0.params.json", config)
    return {"construct": _digest(cert), "verify": _digest(checked)}


def main(argv) -> int:
    if len(argv) != 2:
        print(f"usage: {argv[0]} CHECKOUT", file=sys.stderr)
        return 2
    sys.path.insert(0, str(pathlib.Path(argv[1]).resolve() / "src"))
    doc = {"about": "sha256 of certificate_json with wall_time_s set to None; "
                    "cases and command in tests/certificate_pins.py",
           "pins": {name: case_digests(name) for name in CASES}}
    print(json.dumps(doc, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
