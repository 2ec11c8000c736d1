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

A change that moves certificate bytes on purpose (a schema bump) gives a
byte account, and re-takes the pins from its own checkout after it::

    python3 tests/certificate_pins.py --account PARENT CHANGE

prints, for each case, every JSON path whose value differs between the
certificates of the two checkouts, as old -> new; a check record's path
names it by its id.
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


def _text(cert) -> str:
    from plumbric.pipeline import certificate_json
    return certificate_json(dataclasses.replace(cert, wall_time_s=None))


def case_digests(name: str) -> dict:
    """{"construct": pin} of the case, and "verify" for a grid case."""
    return {kind: hashlib.sha256(text.encode()).hexdigest()
            for kind, text in case_texts(name).items()}


def case_texts(name: str) -> dict:
    """{"construct": certificate text} of the case, and "verify" for a grid
    case, with ``wall_time_s`` set to None."""
    from plumbric.pipeline import NiceCoordinateSpec, run_construction, verify
    from plumbric.plumbing import PlumbingTree, PlumbingVertex, tangent_chain

    m, p, q, grid, R, lam = CASES[name]
    spec = NiceCoordinateSpec(p=p, q=q, R=R, N=1.0, kappa=0.5)
    config = {"lambda": lam}
    if grid is None:
        return {"construct": _text(run_construction(tangent_chain(m, p), spec, config))}
    config["grid"] = grid
    tree = PlumbingTree(vertices=(PlumbingVertex(base_dim=q, rank=p, euler=0),), edges=())
    with tempfile.TemporaryDirectory() as out:
        cert = run_construction(tree, spec, config, out_dir=out)
        profiles = pathlib.Path(out) / "profiles"
        checked = verify(profiles / "step_0.csv", profiles / "step_0.params.json", config)
    return {"construct": _text(cert), "verify": _text(checked)}


def _use_checkout(checkout):
    """Import ``plumbric`` afresh from the checkout's ``src``."""
    for module in [m for m in sys.modules if m == "plumbric" or m.startswith("plumbric.")]:
        del sys.modules[module]
    sys.path.insert(0, str(pathlib.Path(checkout).resolve() / "src"))


def changed_paths(old, new, path="") -> list:
    """(path, old, new) of every JSON value that differs between two parsed
    documents; a list of objects with an ``id`` is indexed by the ids."""
    if isinstance(old, dict) and isinstance(new, dict):
        keys = list(old) + [key for key in new if key not in old]
        return [change for key in keys
                for change in changed_paths(old.get(key), new.get(key), f"{path}.{key}")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        labels = [item.get("id", i) if isinstance(item, dict) else i
                  for i, item in enumerate(old)]
        return [change for label, a, b in zip(labels, old, new)
                for change in changed_paths(a, b, f"{path}[{label}]")]
    return [] if json.dumps(old) == json.dumps(new) else [(path, old, new)]


def account(parent, change) -> str:
    """The byte account of every case, from the certificates of two checkouts."""
    texts = []
    for checkout in (parent, change):
        _use_checkout(checkout)
        texts.append({name: case_texts(name) for name in CASES})
    lines = []
    for name in CASES:
        for kind, old in texts[0][name].items():
            new = texts[1][name][kind]
            changes = changed_paths(json.loads(old), json.loads(new))
            lines.append(f"{name} {kind}: {len(changes)} paths differ"
                         + ("" if changes else " (bytes equal)" if old == new else ""))
            lines += [f"  {path}: {json.dumps(a)} -> {json.dumps(b)}" for path, a, b in changes]
    return "\n".join(lines)


def main(argv) -> int:
    if len(argv) == 4 and argv[1] == "--account":
        print(account(argv[2], argv[3]))
        return 0
    if len(argv) != 2:
        print(f"usage: {argv[0]} CHECKOUT | --account PARENT CHANGE", file=sys.stderr)
        return 2
    _use_checkout(argv[1])
    doc = {"about": "sha256 of certificate_json with wall_time_s set to None; "
                    "cases and command in tests/certificate_pins.py",
           "pins": {name: case_digests(name) for name in CASES}}
    print(json.dumps(doc, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
