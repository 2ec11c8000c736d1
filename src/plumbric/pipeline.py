"""Topological reports, and the names the ledger and certificate code share.

``topo_report`` is what the ``topo`` command runs; ``SCHEMA``, ``SpecError``
and ``new_file`` serve every command.  The construction and re-verification
code lives in :mod:`plumbric.certify`, which only ``construct`` and
``verify`` run.  Each name that code had here (``run_construction``,
``verify``, ``NiceCoordinateSpec`` and the rest of :data:`_CERTIFY`) still
resolves through this module, in ``certify`` on each access (PEP 562), so a
caller, a tracer or a monkeypatch sees the one binding ``certify`` holds,
and a process that only computes ledgers never compiles ``certify``.
"""

from __future__ import annotations

import pathlib

from .plumbing import (EtaLedger, PlumbingTree, TreeStructureError, arf_invariant,
                       boundary_sphere_test, clutching_word, eta_ledger, fixed_point_count,
                       form_symmetry, render_word)

__all__ = ["NiceCoordinateSpec", "ConstructionCertificate", "DEFAULT_CONFIG",
           "run_construction", "verify", "verify_samples", "params_json", "topo_report",
           "certificate_json", "new_file"]

SCHEMA = "plumbric-certificate/4"


class SpecError(ValueError):
    pass


def new_file(path) -> pathlib.Path:
    """``path``, with any file there unlinked, so that the write that follows
    makes a new file instead of truncating the old one.

    Replacing a file by truncation makes ext4 flush the old file's dirty
    blocks first: on an ext4 root, rewriting a 3.4 MB profile CSV in place
    took 0.17 s, and 0.5 ms after an unlink.
    """
    path = pathlib.Path(path)
    path.unlink(missing_ok=True)
    return path


def topo_report(tree: PlumbingTree, l_max: int) -> dict:
    """Exact invariants of a plumbing tree as a JSON-ready dictionary.

    No matrix is built: the determinant is one O(m) integer recursion over
    the tree (``plumbing.tree_det``), and the Arf invariant and the symmetry
    type read the tree too.  A ledger the tree has no value for is replaced
    by a note with the reason: ``arf_note`` for the Arf invariant,
    ``clutching_note`` for the clutching word of a tree that is not a path;
    an eta ledger runs over the lengths 1..l_max."""
    sphere, det = boundary_sphere_test(tree)
    sym = form_symmetry(tree)
    out = {
        "vertices": tree.n,
        "total_dim": tree.total_dim,
        "symmetry": sym,
        "det": det,
        "boundary_homotopy_sphere": sphere,
    }
    if sym == "skew":
        try:
            out["arf"] = arf_invariant(tree)
        except ValueError as exc:
            out["arf"] = None
            out["arf_note"] = str(exc)
    try:
        out["clutching_word"] = clutching_word(tree)
        out["clutching_rendered"] = render_word(out["clutching_word"])
    except TreeStructureError as exc:
        out["clutching_note"] = str(exc)
    if tree.equivariant:
        m = tree.n
        counts = {"chain": fixed_point_count(m, "chain")}
        if m % 8 == 0:
            counts["reported"] = fixed_point_count(m, "reported")
        out["fixed_point_counts"] = counts
        if tree.total_dim % 4 == 2:
            k = (tree.total_dim - 2) // 4
            lengths = tuple(range(1, l_max + 1))
            led = EtaLedger(k=k, lengths=lengths, fixed_point_counts={
                l: fixed_point_count(8 * l, "reported") for l in lengths})
            res = eta_ledger(led)
            out["eta"] = res.as_dict()
    return out


# The names of plumbric.certify this module re-exports.  Any other name, such
# as the ``__path__`` that ``from .pipeline import ...`` probes, raises
# AttributeError without running certify.
_CERTIFY = frozenset({
    "NiceCoordinateSpec", "ConstructionCertificate", "DEFAULT_CONFIG", "EPSILON_I",
    "MARGIN_COLUMNS", "PARAMS_SCHEMA", "_PARAMS_SHAPE", "certificate_json", "_merge_config",
    "root_vertex", "run_construction", "_collar_ball_record", "_step_record",
    "_param_objects", "params_json", "_write_step_artifacts", "_copy_step_artifacts",
    "verify_samples", "verify"})


def __getattr__(name: str):
    if name not in _CERTIFY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import certify
    return getattr(certify, name)
