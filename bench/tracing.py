"""Spans around calls into the plumbric layers, and the per-layer metrics.

The wrappers live here, in the benchmark, not in the program: ``install``
replaces each traced function in every ``plumbric`` module namespace that
binds it (that is where callers resolve the name, including the
``from .meancurv import ...`` that ``search_parameters`` runs at call time),
and the six jet methods ``f .. h2`` on ``ProfilePair``. ``uninstall`` puts the
originals back. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _points_arg(k):
    return lambda args, result, exc: {"points": _size(args[k])}


def _jet_points(args, result, exc):
    return {"points": _size(args[0].t)}


def _curve_points(args, result, exc):
    return {"points": _size(result.t) if result is not None else 0}


def _sample_points(args, result, exc):
    return {"points": _size(args[0]["t"])}


def _text_bytes(args, result, exc):
    return {"bytes": len(result) if result is not None else 0}


def _files_read(args, result, exc):
    return {"bytes_read": sum(os.path.getsize(a) for a in args[:2] if os.path.isfile(a))}


def _matrix_n(args, result, exc):
    return {"n": len(args[0])}


def _eta_pairs(args, result, exc):
    n = len(args[0].lengths)
    return {"pairs": n * (n - 1) // 2}


def _search_counts(args, result, exc):
    diag = result.diagnostics if result is not None else getattr(exc, "diagnostics", {})
    return {"candidates": int(diag.get("evaluations", 0)),
            "accepted": int(result is not None)}


# (module, attribute, span name, counter extractor). An attribute "Cls.meth"
# wraps a method on the class.
TARGETS = [
    ("pipeline", "run_construction", "pipeline.run_construction", None),
    ("pipeline", "verify", "pipeline.verify", _files_read),
    ("pipeline", "verify_samples", "pipeline.verify_samples", _sample_points),
    ("pipeline", "topo_report", "pipeline.topo_report", None),
    ("profiles", "search_parameters", "profiles.search_parameters", _search_counts),
    ("profiles", "integrate_fC", "profiles.integrate_fC", None),
    ("profiles", "solve_runout", "profiles.solve_runout", None),
    ("profiles", "build_right_profile", "profiles.build_right_profile", None),
    ("profiles", "check_bc", "profiles.check_bc", None),
    ("profiles", "ProfilePair.to_csv", "profiles.ProfilePair.to_csv", _text_bytes),
    *[("profiles", f"ProfilePair.{m}", "profiles.ProfilePair.eval", _points_arg(1))
      for m in ("f", "f1", "f2", "h", "h1", "h2")],
    ("warped", "doubly_warped_ricci", "warped.doubly_warped_ricci", _jet_points),
    ("meancurv", "build_curve", "meancurv.build_curve", _curve_points),
    ("meancurv", "ab_terms", "meancurv.ab_terms", _jet_points),
    ("meancurv", "z3_mean_curvature", "meancurv.z3_mean_curvature", None),
    ("meancurv", "z2_mean_curvature", "meancurv.z2_mean_curvature", None),
    ("meancurv", "interface_checks", "meancurv.interface_checks", None),
    ("oracle", "numeric_curvature", "oracle.numeric_curvature", None),
    ("oracle", "numeric_second_fundamental_form",
     "oracle.numeric_second_fundamental_form", None),
    ("caps", "perelman_form_check", "caps.perelman_form_check", None),
    ("plumbing", "intersection_matrix", "plumbing.intersection_matrix", None),
    ("plumbing", "bareiss_det", "plumbing.bareiss_det", _matrix_n),
    ("plumbing", "arf_invariant", "plumbing.arf_invariant", None),
    ("plumbing", "clutching_word", "plumbing.clutching_word", None),
    ("plumbing", "eta_ledger", "plumbing.eta_ledger", _eta_pairs),
]

# Per-layer metrics: (span name, quantity, unit, better). Quantities come
# from the spans, except the "trace.*" and "pipeline.artifacts" rows, which
# the runner fills in per op.
PER_LAYER = [
    ("profiles.search_parameters", "calls", "count", "lower"),
    ("profiles.search_parameters", "self_s", "s", "lower"),
    ("profiles.search_parameters", "candidates", "count", "lower"),
    ("profiles.search_parameters", "accept_ratio", "ratio", "higher"),
    ("profiles.integrate_fC", "calls", "count", "lower"),
    ("profiles.integrate_fC", "total_s", "s", "lower"),
    ("profiles.solve_runout", "calls", "count", "lower"),
    ("profiles.solve_runout", "total_s", "s", "lower"),
    ("profiles.build_right_profile", "calls", "count", "lower"),
    ("profiles.build_right_profile", "self_s", "s", "lower"),
    ("profiles.check_bc", "calls", "count", "lower"),
    ("profiles.check_bc", "total_s", "s", "lower"),
    ("profiles.ProfilePair.eval", "calls", "count", "lower"),
    ("profiles.ProfilePair.eval", "points", "count", "lower"),
    ("profiles.ProfilePair.eval", "total_s", "s", "lower"),
    ("warped.doubly_warped_ricci", "calls", "count", "lower"),
    ("warped.doubly_warped_ricci", "points", "count", "lower"),
    ("warped.doubly_warped_ricci", "total_s", "s", "lower"),
    ("meancurv.build_curve", "calls", "count", "lower"),
    ("meancurv.build_curve", "points", "count", "lower"),
    ("meancurv.build_curve", "self_s", "s", "lower"),
    ("meancurv.ab_terms", "calls", "count", "lower"),
    ("meancurv.ab_terms", "points", "count", "lower"),
    ("meancurv.ab_terms", "total_s", "s", "lower"),
    ("meancurv.z3_mean_curvature", "calls", "count", "lower"),
    ("meancurv.z3_mean_curvature", "self_s", "s", "lower"),
    ("pipeline.verify_samples", "calls", "count", "lower"),
    ("pipeline.verify_samples", "points", "count", "lower"),
    ("pipeline.verify_samples", "total_s", "s", "lower"),
    ("profiles.ProfilePair.to_csv", "calls", "count", "lower"),
    ("profiles.ProfilePair.to_csv", "total_s", "s", "lower"),
    ("profiles.ProfilePair.to_csv", "bytes", "B", "lower"),
    ("pipeline.run_construction", "calls", "count", "lower"),
    ("pipeline.run_construction", "total_s", "s", "lower"),
    ("pipeline.run_construction", "self_s", "s", "lower"),
    ("pipeline.artifacts", "bytes_written", "B", "lower"),
    ("pipeline.verify", "calls", "count", "lower"),
    ("pipeline.verify", "total_s", "s", "lower"),
    ("pipeline.verify", "self_s", "s", "lower"),
    ("pipeline.verify", "bytes_read", "B", "lower"),
    ("oracle.numeric_curvature", "calls", "count", "lower"),
    ("oracle.numeric_curvature", "total_s", "s", "lower"),
    ("oracle.numeric_curvature", "failed", "count", "lower"),
    ("oracle.numeric_second_fundamental_form", "calls", "count", "lower"),
    ("oracle.numeric_second_fundamental_form", "total_s", "s", "lower"),
    ("oracle.numeric_second_fundamental_form", "failed", "count", "lower"),
    ("meancurv.z2_mean_curvature", "calls", "count", "lower"),
    ("meancurv.z2_mean_curvature", "self_s", "s", "lower"),
    ("meancurv.interface_checks", "calls", "count", "lower"),
    ("meancurv.interface_checks", "total_s", "s", "lower"),
    ("caps.perelman_form_check", "calls", "count", "lower"),
    ("plumbing.intersection_matrix", "calls", "count", "lower"),
    ("plumbing.intersection_matrix", "total_s", "s", "lower"),
    ("plumbing.bareiss_det", "calls", "count", "lower"),
    ("plumbing.bareiss_det", "total_s", "s", "lower"),
    ("plumbing.bareiss_det", "n", "count", "lower"),
    ("plumbing.arf_invariant", "calls", "count", "lower"),
    ("plumbing.arf_invariant", "total_s", "s", "lower"),
    ("plumbing.arf_invariant", "failed", "count", "lower"),
    ("plumbing.clutching_word", "calls", "count", "lower"),
    ("plumbing.clutching_word", "total_s", "s", "lower"),
    ("plumbing.clutching_word", "failed", "count", "lower"),
    ("plumbing.eta_ledger", "calls", "count", "lower"),
    ("plumbing.eta_ledger", "total_s", "s", "lower"),
    ("plumbing.eta_ledger", "pairs", "count", "lower"),
    ("pipeline.topo_report", "calls", "count", "lower"),
    ("pipeline.topo_report", "total_s", "s", "lower"),
    ("pipeline.topo_report", "self_s", "s", "lower"),
    ("trace", "overhead_s", "s", "lower"),
    ("trace", "overhead_frac", "ratio", "lower"),
]


class Tracer:
    """In-memory spans: id, parent span, op id, name, start, end, counters."""

    def __init__(self, clock):
        self.clock = clock
        self.op = None
        self.spans = []
        self._stack = []
        self._installed = []

    def _wrap(self, name, fn, extract):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "op": self.op, "name": name,
                    "parent": self._stack[-1]["id"] if self._stack else None,
                    "child_s": 0.0, "failed": 0}
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = self.clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                span["failed"] = 1
                raise
            finally:
                span["end"] = self.clock()
                self._stack.pop()
                if self._stack:
                    self._stack[-1]["child_s"] += span["end"] - span["start"]
                if extract is not None:
                    span.update(extract(args, result, exc))
        return traced

    def install(self):
        """Replace every traced function wherever a plumbric module binds it."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "plumbric" or k.startswith("plumbric.")]
        for mod_name, attr, name, extract in TARGETS:
            owner = sys.modules[f"plumbric.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._swap(cls, meth, self._wrap(name, getattr(cls, meth), extract))
                continue
            orig = getattr(owner, attr)
            traced = self._wrap(name, orig, extract)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._swap(mod, key, traced)

    def _swap(self, obj, key, new):
        self._installed.append((obj, key, getattr(obj, key)))
        setattr(obj, key, new)

    def uninstall(self):
        for obj, key, orig in reversed(self._installed):
            setattr(obj, key, orig)
        self._installed.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def layer_metrics(spans, bytes_written: int, overhead_s: float,
                  overhead_frac: float) -> dict:
    """Aggregate spans into the PER_LAYER metrics."""
    agg = {}
    for s in spans:
        a = agg.setdefault(s["name"], {})
        dur = s["end"] - s["start"]
        for key, val in (("calls", 1), ("total_s", dur), ("self_s", dur - s["child_s"]),
                         ("failed", s["failed"]), ("points", s.get("points", 0)),
                         ("bytes", s.get("bytes", 0)), ("bytes_read", s.get("bytes_read", 0)),
                         ("n", s.get("n", 0)), ("pairs", s.get("pairs", 0)),
                         ("candidates", s.get("candidates", 0)),
                         ("accepted", s.get("accepted", 0))):
            a[key] = a.get(key, 0) + val
    for a in agg.values():
        a["accept_ratio"] = a["accepted"] / a["candidates"] if a["candidates"] else 0.0
    agg["pipeline.artifacts"] = {"bytes_written": bytes_written}
    agg["trace"] = {"overhead_s": overhead_s, "overhead_frac": overhead_frac}
    return {f"{name}.{qty}": {"value": agg.get(name, {}).get(qty, 0), "unit": unit}
            for name, qty, unit, _better in PER_LAYER}
