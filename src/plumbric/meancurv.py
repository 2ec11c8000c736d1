"""Boundary mean-curvature verification over the neck and taper regions.

The neck boundary is realized as a curve profile inside the metric cylinder
line x S^p(beta N): the boundary fiber radius is f(t) = bN sin(F/bN) where
(t~, F(t~)) is the boundary curve parametrized by boundary arclength t.  With
D = 1 - (f/bN)^2 - f'^2 and E = 1 - (f/bN)^2 one has

    F'  = f' / sqrt(D),
    F'' = sqrt(E) (f'' E + f'^2 f / (bN)^2) / D^2,

the second obtained by differentiating the first along arclength (the D^2
power is validated against finite differences of F o phi; see build_curve).
``bracket`` denotes f''E + f'^2 f/(bN)^2 throughout; the curve turns toward
vertical exactly where bracket > 0, and D = 0 is the vertical locus where the
graph description degenerates (exact fiber arcs live there).

Three collected margin variants A - B (nonnegative iff the boundary mean
curvature is nonnegative under the respective reading) are evaluated:

* "reported":   A = (p-1) D^2 sqrt(E) cot(F/bN)/bN,
                B = bracket + (q-1) D E f' h' h,
* "curvature":  same after replacing the transcribed F'' power D^3 by the
                differentiated D^2: A = (p-1) D sqrt(E) cot(F/bN)/bN,
                B = bracket + (q-1) E f' h' h,
* "unit":       as "curvature" but with the collar term normalized per unit
                collar vector: B = bracket + (q-1) E f' h' / h.

All three vanish identically on exact fiber arcs with a constant collar
radius, which is what makes the arc tail the clean end geometry.  The "unit"
margin equals (mean curvature) * E * sqrt(D) pointwise wherever D > 0, which
is asserted as the cross-consistency identity.

The certificate's sample checks read their pieces from here, all on a
profile already sampled on the check grid: ``neck_margins`` (every variant's
A - B) and ``interface_forms`` / ``interface_checks`` (the gluing forms at the
end samples).  ``bulk_patch`` is the one neck-bulk metric, composed from
``charts.cylinder_patch`` and ``charts.product_line_patch``; it serves both
the bulk scalar-curvature samples and ``oracle_boundary_mean_curvature``.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from .caps import BlockDiagonalForm, perelman_form_check, COEFF_TOL
from .oracle import MetricPatch, GraphHypersurface, numeric_second_fundamental_form
from .charts import (ANGLE_BOX, POLE_MARGIN, _unit_sphere_diag, cylinder_patch,
                     product_line_patch)
from .warped import WarpedJet

__all__ = [
    "CurveEmbedding",
    "MeanCurvatureReport",
    "build_curve",
    "ab_terms",
    "neck_margins",
    "z3_mean_curvature",
    "z3_mean_curvature_from_pair",
    "z2_mean_curvature",
    "z2_patch",
    "interface_forms",
    "interface_checks",
    "bulk_patch",
    "oracle_boundary_mean_curvature",
]

D_FLOOR = 1e-12
MC_VARIANTS = ("reported", "curvature", "unit")


class CurveDomainError(ValueError):
    """Fiber radius incompatible with the ambient sphere (arcsin domain)."""


def _phase_gap(f, f1, bN):
    """(D, E) with E = 1 - (f/bN)^2 and D = E - f'^2 clamped at 0.

    Rejects fiber radii at or beyond bN and phase gaps below -1e-9.
    """
    if np.any(f >= bN):
        raise CurveDomainError(
            f"fiber radius reaches the ambient scale beta*N={bN}; increase beta")
    ratio = f / bN
    E = 1.0 - ratio * ratio
    D = E - f1 * f1
    if np.any(D < -1e-9):
        raise CurveDomainError(
            f"profile leaves the cylinder-graph domain (min D = {np.min(D):.3e})")
    return np.maximum(D, 0.0), E


@dataclass(frozen=True)
class CurveEmbedding:
    """Sampled boundary curve (t~, F(t~)) inside the profile cylinder.

    ``mask`` flags samples where the graph description is valid (D above the
    degeneracy floor); F1/F2 are +-inf / nan on the complement.
    """

    t: np.ndarray
    t_tilde: np.ndarray
    F: np.ndarray
    F1: np.ndarray
    F2: np.ndarray
    D: np.ndarray
    E: np.ndarray
    mask: np.ndarray
    beta: float
    N: float

    @property
    def bN(self) -> float:
        return self.beta * self.N


def build_curve(pair, beta: float, N: float, grid_n: int = 2048,
                d_floor: float = D_FLOOR) -> CurveEmbedding:
    """Curve data for a profile: F, its derivatives, and the arclength map.

    Requires f(t) < beta*N everywhere.  On samples with D <= d_floor the
    curve is (numerically) vertical and F1/F2 are marked degenerate; the
    closed forms are cross-checked against second differences of F(phi(t))
    on the well-conditioned interior.
    """
    bN = beta * N
    t = pair.grid(grid_n)
    f = pair.f(t)
    f1 = pair.f1(t)
    f2 = pair.f2(t)
    D, E = _phase_gap(f, f1, bN)
    mask = D > d_floor
    if not np.any(mask):
        raise CurveDomainError(
            "profile is phase-degenerate everywhere (an exact ambient arc): "
            "no graph description exists")
    F = bN * np.arcsin(f / bN)
    bracket = f2 * E + f1 * f1 * f / bN ** 2

    F1 = np.full_like(f, np.inf)
    F2 = np.full_like(f, np.nan)
    F1[mask] = f1[mask] / np.sqrt(D[mask])
    F2[mask] = np.sqrt(E[mask]) * bracket[mask] / D[mask] ** 2

    phi1 = np.zeros_like(f)
    phi1[mask] = np.sqrt(D[mask] / E[mask])
    t_tilde = pair.a3 + np.concatenate(
        [[0.0], np.cumsum(0.5 * (phi1[1:] + phi1[:-1]) * np.diff(t))])
    return CurveEmbedding(t=t, t_tilde=t_tilde, F=F, F1=F1, F2=F2, D=D, E=E,
                          mask=mask, beta=beta, N=N)


def ab_terms(jet: WarpedJet, beta: float, N: float, p: int, q: int,
             variant: str = "reported"):
    """Margin terms (A, B): the boundary mean curvature is >= 0 iff A - B >= 0.

    ``variant`` selects the algebraic normalization (see module docstring);
    all variants share A's stabilizing fiber-sphere term and B's curve term
    ``bracket``.  Requires f < beta*N and D >= 0 up to roundoff.
    """
    bN = beta * N
    f = np.asarray(jet.f, dtype=float)
    f1 = np.asarray(jet.f1, dtype=float)
    f2 = np.asarray(jet.f2, dtype=float)
    h = np.asarray(jet.h, dtype=float)
    h1 = np.asarray(jet.h1, dtype=float)
    D, E = _phase_gap(f, f1, bN)
    F = bN * np.arcsin(f / bN)
    cot = np.cos(F / bN) / np.sin(F / bN)
    bracket = f2 * E + f1 * f1 * f / bN ** 2
    if variant == "reported":
        A = (p - 1) * D ** 2 * np.sqrt(E) * cot / bN
        B = bracket + (q - 1) * D * E * f1 * h1 * h
    elif variant == "curvature":
        A = (p - 1) * D * np.sqrt(E) * cot / bN
        B = bracket + (q - 1) * E * f1 * h1 * h
    elif variant == "unit":
        A = (p - 1) * D * np.sqrt(E) * cot / bN
        B = bracket + (q - 1) * E * f1 * h1 / h
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return A, B


def neck_margins(jet: WarpedJet, beta: float, N: float, p: int, q: int) -> dict:
    """The margin A - B of every variant, keyed by variant name."""
    margins = {}
    for variant in MC_VARIANTS:
        A, B = ab_terms(jet, beta, N, p, q, variant=variant)
        margins[variant] = A - B
    return margins


@dataclass(frozen=True)
class MeanCurvatureReport:
    """Per-grid-point principal curvatures and margins (variant -> A - B) over the neck."""

    t: np.ndarray
    curve_pc: np.ndarray
    sphere_p_pc: np.ndarray
    sphere_q_pc: np.ndarray
    mean_curvature: np.ndarray
    margins: dict
    degenerate: np.ndarray
    tol: float

    def margin_min(self, variant: str) -> float:
        return float(np.min(self.margins[variant]))

    @property
    def margin_min_reported(self) -> float:
        return self.margin_min("reported")

    @property
    def margin_min_curvature(self) -> float:
        return self.margin_min("curvature")

    @property
    def margin_min_unit(self) -> float:
        return self.margin_min("unit")

    def passed(self, variant: str = "reported") -> bool:
        return self.margin_min(variant) >= -self.tol

    def sign_consistent(self, atol: float = 1e-9) -> bool:
        """Mean curvature and the unit-normalized margin agree in sign everywhere."""
        mc = self.mean_curvature
        mg = self.margins["unit"]
        ok = ~((mc > atol) & (mg < -atol)) & ~((mc < -atol) & (mg > atol))
        return bool(np.all(ok | self.degenerate))

    def to_json(self) -> str:
        return json.dumps({
            "tol": self.tol,
            "margin_min": {v: self.margin_min(v) for v in MC_VARIANTS},
            "mean_curvature_min": float(np.min(self.mean_curvature)),
            "degenerate_samples": int(np.sum(self.degenerate)),
            "samples": int(self.t.size),
        }, sort_keys=True, indent=1)

    def to_csv(self) -> str:
        cols = np.column_stack([
            self.t, self.curve_pc, self.sphere_p_pc, self.sphere_q_pc,
            self.mean_curvature, *(self.margins[v] for v in MC_VARIANTS)])
        buf = io.StringIO()
        buf.write("t,curve_pc,sphere_p_pc,sphere_q_pc,mean_curvature,"
                  "margin_reported,margin_curvature,margin_unit\n")
        np.savetxt(buf, cols, delimiter=",", fmt="%.17g")
        return buf.getvalue()


def z3_mean_curvature(curve: CurveEmbedding, pair, p: int, q: int,
                      tol: float = 1e-9) -> MeanCurvatureReport:
    """Principal curvatures and margins of the neck boundary.

    The three principal-curvature families are evaluated through their
    D-regular forms, so samples on the vertical locus (exact arc pieces with
    a constant collar radius) contribute zeros rather than 0/0.
    """
    t = curve.t
    bN = curve.bN
    jets = pair.jets(t)
    f, f1, f2, h, h1 = jets.f, jets.f1, jets.f2, jets.h, jets.h1
    D, E = curve.D, curve.E
    mask = curve.mask
    bracket = f2 * E + f1 * f1 * f / bN ** 2
    cot = np.cos(curve.F / bN) / np.sin(curve.F / bN)

    curve_pc = np.zeros_like(f)
    curve_pc[mask] = -bracket[mask] / (np.sqrt(D[mask]) * E[mask])
    sphere_p = np.zeros_like(f)
    sphere_p[mask] = np.sqrt(D[mask] / E[mask]) * cot[mask] / bN
    sphere_q = np.zeros_like(f)
    sphere_q[mask] = -f1[mask] * h1[mask] / (h[mask] * np.sqrt(D[mask]))
    # Degenerate samples with residual curve or collar data cannot be
    # represented as a graph; flag them instead of inventing values.
    irregular = (~mask) & ((np.abs(bracket) > 1e-9) | (np.abs(h1) * np.abs(f1) > 1e-9))
    mc = curve_pc + (p - 1) * sphere_p + (q - 1) * sphere_q

    return MeanCurvatureReport(
        t=t, curve_pc=curve_pc, sphere_p_pc=sphere_p, sphere_q_pc=sphere_q,
        mean_curvature=mc, margins=neck_margins(jets, curve.beta, curve.N, p, q),
        degenerate=irregular, tol=tol)


def z3_mean_curvature_from_pair(pair, p: int, q: int, tol: float = 1e-9,
                                grid_n: int = 2048) -> MeanCurvatureReport:
    curve = build_curve(pair, pair.right.beta, pair.right.N, grid_n=grid_n)
    return z3_mean_curvature(curve, pair, p, q, tol=tol)


# ---------------------------------------------------------------------------
# Interface forms at the two ends of the neck
# ---------------------------------------------------------------------------


def interface_forms(jets: WarpedJet, p: int, q: int) -> tuple:
    """Second fundamental forms of the neck boundary slices at a3 and b3.

    ``jets`` is the profile sampled from a3 to b3; only its end samples are
    read.  Both forms are block diagonal over (S^{q-1}, S^{p-1}); the a3-form
    uses the inward normal of the neck (so the collar and fiber coefficients
    carry a minus sign), the b3-form the outward one, matching the gluing
    convention where the two sides' forms are summed.
    """
    II_a3 = BlockDiagonalForm(((-float(jets.h1[0]) / float(jets.h[0]), q - 1),
                               (-float(jets.f1[0]) / float(jets.f[0]), p - 1)))
    II_b3 = BlockDiagonalForm(((float(jets.h1[-1]) / float(jets.h[-1]), q - 1),
                               (float(jets.f1[-1]) / float(jets.f[-1]), p - 1)))
    return II_a3, II_b3


def interface_checks(jets: WarpedJet, left, right, p: int, q: int,
                     tol: float = COEFF_TOL) -> bool:
    """Both gluing admissibility checks at the ends of a sampled neck.

    At a3 the other side is the taper collar with form (lambda/alpha) I on
    the collar block and zero on the fiber block; at b3 it is the embedded
    cap product whose only nonzero block is -cot(R/N)/(beta N) on the fiber.
    ``left`` and ``right`` are the profile's LeftParams and RightParams.
    """
    II_a3, II_b3 = interface_forms(jets, p, q)
    taper_side = BlockDiagonalForm(((left.lam / left.alpha, q - 1), (0.0, p - 1)))
    cap_side = BlockDiagonalForm((
        (0.0, q - 1),
        (-math.cos(right.angle) / math.sin(right.angle) / right.bN, p - 1),
    ))
    return (perelman_form_check(II_a3, taper_side, tol=tol)
            and perelman_form_check(II_b3, cap_side, tol=tol))


# ---------------------------------------------------------------------------
# Taper-region mean curvature via the generic oracle
# ---------------------------------------------------------------------------


def z2_patch(eps_profile, k: Callable, r: float, p: int, q: int) -> MetricPatch:
    """Bundle metric over the taper: dt^2 + k(t)^2 ds_{q-1}^2 + fiber caps.

    The fiber over (t, x) is a cap of angular radius eps(t) and boundary
    radius r, giving f(t, s) = (r/sin eps(t)) sin(s sin eps(t)/r) in the
    fiber-radial coordinate s.  Coordinates: (t, s, p-1 fiber angles, q-1
    base angles).
    """
    dp = 1 + p
    s_max = (math.pi - POLE_MARGIN) * r / math.sin(eps_profile.eps_end)

    def fiber_g(x):
        x = np.asarray(x, dtype=float)
        se = np.sin(np.asarray(eps_profile.eps(x[..., 0])))
        f = (r / se) * np.sin(x[..., 1] * se / r)
        out = np.zeros(x.shape[:-1] + (dp, dp))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = 1.0
        idx = np.arange(2, dp)
        out[..., idx, idx] = f[..., np.newaxis] ** 2 * _unit_sphere_diag(x[..., 2:])
        return out

    domain = ((eps_profile.a2, eps_profile.b2), (1e-4, s_max)) \
        + tuple(ANGLE_BOX for _ in range(p - 1))
    return product_line_patch(k, q - 1, MetricPatch(dim=dp, domain=domain, g=fiber_g))


@dataclass(frozen=True)
class TaperReport:
    t: np.ndarray
    mean_curvature: np.ndarray
    fiber_pc_min: np.ndarray
    other_pc_max_abs: np.ndarray
    tol: float

    @property
    def passed(self) -> bool:
        return bool(np.min(self.mean_curvature) >= -self.tol)


def z2_mean_curvature(eps_profile, k: Callable, r: float, p: int, q: int,
                      n_samples: int = 9, tol: float = 1e-9,
                      step: float = 1e-3) -> TaperReport:
    """Mean curvature of the taper boundary s = eps(t) r / sin(eps(t)).

    Uses the finite-difference second-fundamental-form oracle on the bundle
    patch; the boundary is the graph of s(t) over the remaining coordinates
    with inward normal pointing to smaller s.
    """
    patch = z2_patch(eps_profile, k, r, p, q)
    d = patch.dim

    def height(xs):
        xs = np.asarray(xs, dtype=float)
        tt = xs[..., 0]
        eps = np.asarray(eps_profile.eps(tt))
        return eps * r / np.sin(eps)

    hyper = GraphHypersurface(axis=1, height=height, normal_sign=-1)
    lo = eps_profile.a2 + 4.0 * step
    hi = eps_profile.b2 - 4.0 * step
    ts = np.linspace(lo, hi, n_samples)
    angles = np.full(d - 2, math.pi / 2 + 0.1)
    mcs, fmins, omaxs = [], [], []
    for tv in ts:
        base = np.concatenate([[tv], angles])
        rep = numeric_second_fundamental_form(patch, hyper, base, step=step)
        pcs = rep.principal_curvatures
        mcs.append(rep.mean_curvature)
        # The p-1 largest principal curvatures belong to the fiber sphere
        # directions when the fiber dominates.
        pcs_sorted = np.sort(pcs)
        fmins.append(float(pcs_sorted[-(p - 1)]))
        omaxs.append(float(np.max(np.abs(pcs_sorted[:-(p - 1)]))) if d - 2 > p - 1 else 0.0)
    return TaperReport(t=ts, mean_curvature=np.asarray(mcs),
                       fiber_pc_min=np.asarray(fmins),
                       other_pc_max_abs=np.asarray(omaxs), tol=tol)


# ---------------------------------------------------------------------------
# Independent oracle route for the neck boundary
# ---------------------------------------------------------------------------


def bulk_patch(pair, p: int, q: int, d_min: float) -> tuple:
    """The neck bulk: metric cylinder line x S^p(beta N) times the collar sphere.

    Coordinates (t~, s, p-1 fiber angles, q-1 collar angles), with collar
    radius h(t(t~)).  The map t~ -> t is Hermite-interpolated through the
    1024-point boundary curve on the samples where D >= d_min, which also
    bound the t~ range of the domain.  Returns (patch, curve, keep), where
    ``keep`` indexes the curve samples used as interpolation nodes.
    """
    bN = pair.right.bN
    curve = build_curve(pair, pair.right.beta, pair.right.N, grid_n=1024)
    keep = np.flatnonzero(curve.D >= d_min)
    if keep.size == 0:
        raise ValueError("no well-conditioned samples on this profile")
    keep = keep[np.concatenate([[True], np.diff(curve.t_tilde[keep]) > 1e-9])]
    tt = curve.t_tilde[keep]
    t_of_tt = CubicHermiteSpline(tt, curve.t[keep], np.sqrt(1.0 + curve.F1[keep] ** 2))
    patch = product_line_patch(lambda x: pair.h(t_of_tt(x)), q - 1, cylinder_patch(p, bN))
    domain = ((tt[0], tt[-1]), (1e-6 * bN, (math.pi - POLE_MARGIN) * bN)) + patch.domain[2:]
    return replace(patch, domain=domain), curve, keep


def oracle_boundary_mean_curvature(pair, p: int, q: int, n_points: int = 7,
                                   d_min: float = 0.02, step=None):
    """Mean curvature of the neck boundary via the generic oracle.

    Runs the finite-difference second-fundamental-form computation on the
    :func:`bulk_patch` at sample points where the graph description is well
    conditioned (D >= d_min); the vertical end regions cannot be differenced
    and are excluded.

    Returns (t_samples, oracle_mc, closed_form_mc).
    """
    patch, curve, keep = bulk_patch(pair, p, q, d_min)
    bN = curve.bN
    th = curve.t[keep]
    tth = curve.t_tilde[keep]
    idx = np.unique(np.linspace(0, th.size - 1, n_points).astype(int))
    F_of_tt = CubicHermiteSpline(tth, curve.F[keep], curve.F1[keep])

    def height(xs):
        xs = np.asarray(xs, dtype=float)
        return F_of_tt(xs[..., 0])

    hyper = GraphHypersurface(axis=1, height=height, normal_sign=-1)
    d = patch.dim
    angles = np.full(d - 2, math.pi / 2 + 0.1)
    if step is None:
        # metric varies on the scale bN along (t~, s) but O(1) in the angles
        step = np.concatenate([[1e-4 * bN, 1e-4 * bN], np.full(d - 2, 1e-3)])

    mc_closed = z3_mean_curvature(curve, pair, p, q).mean_curvature[keep]

    t_out, mc_oracle, mc_cf = [], [], []
    margin = 4.0 * float(np.max(np.atleast_1d(step)[:1]))
    for i in idx:
        tt0 = tth[i]
        if not (tth[0] + margin < tt0 < tth[-1] - margin):
            continue
        base = np.concatenate([[tt0], angles])
        rep = numeric_second_fundamental_form(patch, hyper, base, step=step)
        t_out.append(th[i])
        mc_oracle.append(rep.mean_curvature)
        mc_cf.append(float(mc_closed[i]))
    return np.asarray(t_out), np.asarray(mc_oracle), np.asarray(mc_cf)
