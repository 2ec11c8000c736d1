"""Seeded inputs, timed ops and correctness checks of the three workloads.

Every workload is a sequence of blocks. Each input class of the workload
appears in a block a fixed number of times, in an order shuffled by the
block's own generator, seeded by ``(workload, seed, b)``. Each continuous
parameter follows a Weyl sequence (start + j * step mod 1, with an irrational
step and a seeded start) over the ops of its class, so every prefix of a run
covers the parameter's range evenly and two seeds put nearly the same mix of
work into a run.

Each op calls the library through module attributes (``pb.pipeline.verify``
and so on) at call time, so trace wrappers installed on those attributes see
the call. Only the library calls sit inside the timed region; the checks that
follow are untimed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
from dataclasses import dataclass, field

RN_BOX = (math.pi / 4, 1.2)          # R/N box where the search certifies
LAM_BOX = (0.1, 0.4)                 # lambda box where the search certifies
KAPPA = 0.5                          # collar bound the CLI uses by default
CHAIN_LENGTHS = (2, 8)
CHAIN_DIMS = (3, 5, 7, 9)
DENSE_PQ = ((3, 3), (3, 5), (3, 7), (4, 4), (4, 6), (6, 4), (5, 5))
DENSE_GRID = (16384, 32768)
LEDGER_M = (64, 256)
LEDGER_LMAX = (400, 800)
LEDGER_KINDS = ("chain", "skew", "symmetric")


@dataclass
class Op:
    id: str
    label: dict                      # the drawn parameters, for the results file
    args: dict = field(repr=False)   # built library inputs


@dataclass
class Outcome:
    seconds: float
    vertices: int                    # certified or ledger vertices
    digest: str
    problems: list
    bytes_written: int = 0


def _rng(workload: str, seed: int, block) -> random.Random:
    return random.Random(f"{workload}:{seed}:{block}")


STEPS = ((math.sqrt(5) - 1) / 2, math.sqrt(2) - 1, math.sqrt(3) - 1)


class _Weyl:
    """Seeded low-discrepancy draws: parameter k of op j is
    lo + (hi - lo) * frac(start_k + j * STEPS[k])."""

    def __init__(self, rng: random.Random, n: int):
        self.starts = [rng.random() for _ in range(n)]

    def __call__(self, k: int, j: int, lo: float, hi: float) -> float:
        return lo + (hi - lo) * ((self.starts[k] + j * STEPS[k]) % 1.0)


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def certificate_digest(cert) -> str:
    """Digest of a certificate with its one timing field removed."""
    doc = cert.as_dict()
    doc.pop("wall_time_s")
    return _digest(doc)


def _artifact_bytes(path) -> int:
    """Bytes of the step artifacts under path. certificate.json is left out:
    its wall_time_s makes its size differ by a byte or two between runs."""
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files
               if f != "certificate.json")


def _spec(pb, p: int, q: int, rn: float):
    return pb.pipeline.NiceCoordinateSpec(p=p, q=q, R=rn, N=1.0, kappa=KAPPA)


def _verify_twice(pb, out_dir, step: int, config: dict):
    """Verify one stored step twice; returns the certificates and their texts."""
    prof = os.path.join(out_dir, "profiles", f"step_{step}.csv")
    par = os.path.join(out_dir, "profiles", f"step_{step}.params.json")
    certs = [pb.pipeline.verify(prof, par, config=config) for _ in range(2)]
    texts = [pb.pipeline.certificate_json(c) for c in certs]
    return certs, texts


def _verify_problems(step: int, certs, texts) -> list:
    problems = []
    if not all(c.passed for c in certs):
        problems.append(f"verify of step {step} does not pass")
    if texts[0] != texts[1]:
        problems.append(f"verify bytes of step {step} differ between repeats")
    return problems


# ---------------------------------------------------------------------------
# chains: tangent chains of length 2 or 8, default grid
# ---------------------------------------------------------------------------


class Chains:
    name = "chains"

    def __init__(self, pb, seed: int):
        self.pb, self.seed = pb, seed
        self.draw = _Weyl(_rng(self.name, seed, "starts"), 2)

    def _op(self, op_id, m, d, rn, lam) -> Op:
        tree = self.pb.plumbing.tangent_chain(m, d)
        return Op(op_id, {"m": m, "dim": d, "R_over_N": rn, "lambda": lam},
                  {"tree": tree, "spec": _spec(self.pb, d, d, rn),
                   "config": {"lambda": lam}})

    def block(self, b: int) -> list:
        rng = _rng(self.name, self.seed, b)
        cells = [(m, d) for m in CHAIN_LENGTHS for d in CHAIN_DIMS]
        rng.shuffle(cells)
        j0 = b * len(cells)
        return [self._op(f"{b}.{i}", m, d, self.draw(0, j0 + i, *RN_BOX),
                         self.draw(1, j0 + i, *LAM_BOX))
                for i, (m, d) in enumerate(cells)]

    def warmup(self) -> Op:
        rng = _rng(self.name, self.seed, "warmup")
        return self._op("warmup", 2, 3, rng.uniform(*RN_BOX), rng.uniform(*LAM_BOX))

    def run(self, op: Op, out_dir, clock) -> Outcome:
        a = op.args
        t0 = clock()
        cert = self.pb.pipeline.run_construction(a["tree"], a["spec"],
                                                 config=a["config"], out_dir=out_dir)
        seconds = clock() - t0
        problems = []
        if not cert.passed:
            problems.append("certificate does not pass")
        else:
            for step in range(len(cert.steps)):
                problems += _verify_problems(
                    step, *_verify_twice(self.pb, out_dir, step, a["config"]))
        return Outcome(seconds, a["tree"].n if cert.passed else 0,
                       certificate_digest(cert), problems, _artifact_bytes(out_dir))


# ---------------------------------------------------------------------------
# dense: single vertices on a dense check grid, construct then verify twice
# ---------------------------------------------------------------------------


class Dense:
    name = "dense"

    def __init__(self, pb, seed: int):
        self.pb, self.seed = pb, seed
        self.draw = _Weyl(_rng(self.name, seed, "starts"), 3)

    def _op(self, op_id, p, q, grid, rn, lam) -> Op:
        vertex = self.pb.plumbing.PlumbingVertex(base_dim=q, rank=p, euler=0)
        tree = self.pb.plumbing.PlumbingTree(vertices=(vertex,), edges=())
        return Op(op_id, {"p": p, "q": q, "grid": grid, "R_over_N": rn, "lambda": lam},
                  {"tree": tree, "spec": _spec(self.pb, p, q, rn),
                   "config": {"lambda": lam, "grid": grid}})

    def block(self, b: int) -> list:
        rng = _rng(self.name, self.seed, b)
        cells = list(DENSE_PQ)
        rng.shuffle(cells)
        j0 = b * len(cells)
        return [self._op(f"{b}.{i}", p, q, int(self.draw(2, j0 + i, *DENSE_GRID)),
                         self.draw(0, j0 + i, *RN_BOX), self.draw(1, j0 + i, *LAM_BOX))
                for i, (p, q) in enumerate(cells)]

    def warmup(self) -> Op:
        rng = _rng(self.name, self.seed, "warmup")
        return self._op("warmup", 3, 3, DENSE_GRID[0], rng.uniform(*RN_BOX),
                        rng.uniform(*LAM_BOX))

    def run(self, op: Op, out_dir, clock) -> Outcome:
        a = op.args
        t0 = clock()
        cert = self.pb.pipeline.run_construction(a["tree"], a["spec"],
                                                 config=a["config"], out_dir=out_dir)
        certs, texts = _verify_twice(self.pb, out_dir, 0, a["config"])
        seconds = clock() - t0
        problems = [] if cert.passed else ["certificate does not pass"]
        problems += _verify_problems(0, certs, texts)
        return Outcome(seconds, 1 if cert.passed else 0, certificate_digest(cert),
                       problems, _artifact_bytes(out_dir))


# ---------------------------------------------------------------------------
# ledgers: topo_report on chains, skew trees and symmetric trees, m in 64..256
# ---------------------------------------------------------------------------


class Ledgers:
    name = "ledgers"

    def __init__(self, pb, seed: int):
        self.pb, self.seed = pb, seed
        rng = _rng(self.name, seed, "starts")
        self.draw = {kind: _Weyl(rng, 2) for kind in LEDGER_KINDS}

    def _tree(self, rng, kind: str, m: int):
        pl = self.pb.plumbing
        sign = lambda: rng.choice((1, -1))  # noqa: E731
        if kind == "chain":
            return pl.tangent_chain(m, rng.choice(CHAIN_DIMS), equivariant=True)
        if kind == "skew":
            # A random tree on m/2 vertices plus one pendant leaf per vertex:
            # the leaves form a perfect matching, so the Arf invariant exists.
            d = rng.choice((3, 5, 7))
            half = m // 2
            verts = tuple(pl.PlumbingVertex(base_dim=d, rank=d, euler=0,
                                            framing_q=rng.randint(0, 1),
                                            char_label=f"s{i}") for i in range(m))
            edges = [(rng.randrange(i), i, sign()) for i in range(1, half)]
            edges += [(i, half + i, sign()) for i in range(half)]
            return pl.PlumbingTree(vertices=verts, edges=tuple(edges))
        # symmetric: (3,5)/(5,3) alternating across each edge of a random tree
        parent = [None] + [rng.randrange(i) for i in range(1, m)]
        side = [0] * m
        for i in range(1, m):
            side[i] = 1 - side[parent[i]]
        verts = tuple(pl.PlumbingVertex(base_dim=(3, 5)[s], rank=(5, 3)[s],
                                        euler=rng.choice((-2, 2, 4))) for s in side)
        edges = tuple((parent[i], i, sign()) for i in range(1, m))
        return pl.PlumbingTree(vertices=verts, edges=edges)

    def _op(self, op_id, rng, kind: str, m: int, l_max: int) -> Op:
        if kind == "skew":
            m -= m % 2
        tree = self._tree(rng, kind, m)
        return Op(op_id, {"kind": kind, "m": m, "l_max": l_max},
                  {"tree": tree, "l_max": l_max, "kind": kind})

    def block(self, b: int) -> list:
        # Two ops of each kind; the cost is cubic in m, so m must cover its
        # range evenly in every run.
        rng = _rng(self.name, self.seed, b)
        cells = [(k, j) for k in LEDGER_KINDS for j in (2 * b, 2 * b + 1)]
        rng.shuffle(cells)
        ops = []
        for i, (k, j) in enumerate(cells):
            m = int(self.draw[k](0, j, LEDGER_M[0], LEDGER_M[1] + 1))
            l_max = int(self.draw[k](1, j, LEDGER_LMAX[0], LEDGER_LMAX[1] + 1))
            ops.append(self._op(f"{b}.{i}", rng, k, m, l_max if k == "chain" else 20))
        return ops

    def warmup(self) -> Op:
        rng = _rng(self.name, self.seed, "warmup")
        return self._op("warmup", rng, "chain", LEDGER_M[0], LEDGER_LMAX[0])

    def run(self, op: Op, out_dir, clock) -> Outcome:
        a = op.args
        t0 = clock()
        rep = self.pb.pipeline.topo_report(a["tree"], l_max=a["l_max"])
        seconds = clock() - t0
        return Outcome(seconds, a["tree"].n, _digest(rep),
                       ledger_problems(a["tree"], a["kind"], a["l_max"], rep))


WORKLOADS = {w.name: w for w in (Chains, Dense, Ledgers)}


# ---------------------------------------------------------------------------
# Independent references for the ledgers
# ---------------------------------------------------------------------------


def _rooted(tree):
    """Parent links and a root-first order of the tree's vertices."""
    adj = {i: [] for i in range(tree.n)}
    for i, j, _s in tree.edges:
        adj[i].append(j)
        adj[j].append(i)
    parent = {0: None}
    order = [0]
    for v in order:
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    return parent, order


def tree_det(tree) -> int:
    """Determinant of a symmetric tree's intersection matrix, expanding at each
    subtree root: det(T_u) = e_u prod det(T_c) - sum_c det(T_c - c)
    prod_{c' != c} det(T_c') (edge signs square to 1), and det(T_u - u) =
    prod det(T_c). Linear in the vertex count, exact integers."""
    parent, order = _rooted(tree)
    prod = {v: 1 for v in order}      # prod det(T_c) over children seen so far
    cross = {v: 0 for v in order}     # the sum term over children seen so far
    det = {}
    for v in reversed(order):
        det[v] = tree.vertices[v].euler * prod[v] - cross[v]
        if parent[v] is not None:
            u = parent[v]
            cross[u] = cross[u] * det[v] + prod[v] * prod[u]
            prod[u] *= det[v]
    return det[0]


def tree_arf(tree):
    """Arf invariant by peeling leaf/neighbour hyperbolic pairs, or None when
    the mod-2 form is degenerate (a vertex is left without a partner)."""
    q = [v.framing_q for v in tree.vertices]
    adj = {i: set() for i in range(tree.n)}
    for i, j, _s in tree.edges:
        adj[i].add(j)
        adj[j].add(i)
    arf = 0
    while adj:
        leaf = next((v for v, ns in adj.items() if len(ns) <= 1), None)
        if leaf is None or not adj[leaf]:
            return None
        (mate,) = adj[leaf]
        arf ^= q[leaf] & q[mate]
        for w in adj[mate] - {leaf}:
            q[w] ^= q[leaf]
            adj[w].discard(mate)
        del adj[leaf], adj[mate]
    return arf


def ledger_problems(tree, kind: str, l_max: int, rep: dict) -> list:
    """Disagreements of a topo_report with the closed forms and references."""
    m = tree.n
    if kind == "chain":
        # Closed forms of the skew tangent chain A_m with framing 1 everywhere.
        expect = {"det": 1 - m % 2,
                  "arf": (1 if m % 8 in (2, 4) else 0) if m % 2 == 0 else None}
    elif kind == "skew":
        # A tree with a perfect matching has Pfaffian +-1.
        expect = {"det": 1, "arf": tree_arf(tree)}
    else:
        expect = {"det": tree_det(tree)}
    problems = [f"{key} = {rep.get(key)!r}, expected {want!r}"
                for key, want in expect.items() if rep.get(key) != want]
    if kind == "chain":
        if rep["fixed_point_counts"]["chain"] != m + 1:
            problems.append(f"chain fixed-point count {rep['fixed_point_counts']}, "
                            f"expected {m + 1}")
        eta = rep.get("eta") or {}
        if not (eta.get("distinct") and not eta.get("collisions")
                and len(eta.get("etas", ())) == l_max):
            problems.append("eta ledger is not distinct over every length")
    return problems


def run_op(workload, op: Op, work_root, clock):
    """Run one op in a fresh output directory, removed afterwards."""
    out_dir = os.path.join(work_root, f"op-{op.id}")
    try:
        return workload.run(op, out_dir, clock)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
