"""sha256 pins of certificate bytes, and the script that takes them.

A pin is the sha256 of ``certificate_json`` of a certificate with its one
timing field, ``wall_time_s``, set to None.  The cases are the constructions
of tangent 2-chains of dimension 3, 5, 7 and 9 and of a tangent 8-chain of
dimension 7, and one (4, 6) vertex at grid 16384 with the certificate of
``verify`` on its stored step.  ``tests/test_pipeline.py`` compares the
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
import pathlib
import sys
import tempfile

CASES = {
    **{f"chain2_d{d}": (2, d, d, None) for d in (3, 5, 7, 9)},
    "chain8_d7": (8, 7, 7, None),
    "vertex_p4_q6_grid16384": (1, 4, 6, 16384),
}
R, LAMBDA = 1.0, 0.25


def _digest(cert) -> str:
    from plumbric.pipeline import certificate_json
    text = certificate_json(dataclasses.replace(cert, wall_time_s=None))
    return hashlib.sha256(text.encode()).hexdigest()


def case_digests(name: str) -> dict:
    """{"construct": pin} of the case, and "verify" for the grid case."""
    from plumbric.pipeline import NiceCoordinateSpec, run_construction, verify
    from plumbric.plumbing import PlumbingTree, PlumbingVertex, tangent_chain

    m, p, q, grid = CASES[name]
    spec = NiceCoordinateSpec(p=p, q=q, R=R, N=1.0, kappa=0.5)
    config = {"lambda": LAMBDA}
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
