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

One pass, ``_neck_terms``, computes D, E, F, cot(F/bN) and bracket; the
curve (``build_curve``) and every variant's (A, B) (``ab_terms``) read it.

The certificate's sample checks read their pieces from here, all on a
profile already sampled on the check grid: ``neck_margins`` (every variant's
A - B) and ``interface_forms`` / ``interface_checks`` (the gluing forms at the
end samples).  ``z2_mean_curvature`` is the taper's mean curvature through
the second-fundamental-form oracle.  ``bulk_patch`` is the one neck-bulk
metric, the collar sphere warped (``charts.warped_patch``) over
``charts.cylinder_patch``, with the oracle's finite-difference step for it;
the bulk scalar-curvature samples run on it.  Like ``z2_patch``, the taper's
chart, it returns the metric's diagonal, as every chart in ``charts`` does.
``z3_mean_curvature`` gives the neck boundary's principal curvatures in
closed form, for comparison with an oracle route on the same chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .caps import BlockDiagonalForm, perelman_form_check
from .oracle import MetricPatch, GraphHypersurface, numeric_second_fundamental_form
from .charts import POLE_MARGIN, cylinder_patch, flat_patch, warped_patch
from .numerics import CubicHermite
from .warped import WarpedJet

__all__ = [
    "CurveEmbedding",
    "build_curve",
    "ab_terms",
    "neck_margins",
    "z3_mean_curvature",
    "z2_mean_curvature",
    "z2_patch",
    "interface_forms",
    "interface_checks",
    "bulk_patch",
]

D_FLOOR = 1e-12  # phase gap D at or below which the curve counts as vertical
MC_VARIANTS = ("reported", "curvature", "unit")
TAPER_SAMPLES = 5    # oracle points of the taper's mean curvature
TAPER_STEP = 1e-3    # the oracle's finite-difference step on the taper chart


class CurveDomainError(ValueError):
    """Fiber radius incompatible with the ambient sphere (arcsin domain)."""


def _neck_terms(f, f1, f2, bN):
    """(D, E, F, cot(F/bN), bracket) of a fiber-radius jet in S^p(bN).

    E = 1 - (f/bN)^2, D = E - f'^2 clamped at 0, F = bN arcsin(f/bN) and
    bracket = f''E + f'^2 f/bN^2.  Rejects fiber radii at or beyond bN and
    phase gaps below -1e-9.
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
    F = bN * np.arcsin(f / bN)
    cot = np.cos(F / bN) / np.sin(F / bN)
    bracket = f2 * E + f1 * f1 * f / bN ** 2
    return np.maximum(D, 0.0), E, F, cot, bracket


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


def build_curve(pair, beta: float, N: float, grid_n: int) -> CurveEmbedding:
    """Curve data for a profile: F, its derivatives, and the arclength map.

    Requires f(t) < beta*N everywhere.  On samples with D <= D_FLOOR the
    curve is (numerically) vertical and F1/F2 are marked degenerate; the
    closed forms are cross-checked against second differences of F(phi(t))
    on the well-conditioned interior.
    """
    bN = beta * N
    t = pair.grid(grid_n)
    f = pair.f(t)
    f1 = pair.f1(t)
    D, E, F, _cot, bracket = _neck_terms(f, f1, pair.f2(t), bN)
    mask = D > D_FLOOR
    if not np.any(mask):
        raise CurveDomainError(
            "profile is phase-degenerate everywhere (an exact ambient arc): "
            "no graph description exists")

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


def ab_terms(jet: WarpedJet, beta: float, N: float, p: int, q: int) -> dict:
    """Margin terms (A, B) of every variant: the boundary mean curvature is
    >= 0 iff A - B >= 0 under that variant's reading.

    Returns ``{variant: (A, B)}`` in :data:`MC_VARIANTS` order (the variants
    are the algebraic normalizations of the module docstring).  All of them
    share A's stabilizing fiber-sphere term and B's curve term ``bracket``,
    computed once.  Requires f < beta*N and D >= 0 up to roundoff.
    """
    bN = beta * N
    f1 = np.asarray(jet.f1, dtype=float)
    h = np.asarray(jet.h, dtype=float)
    h1 = np.asarray(jet.h1, dtype=float)
    D, E, _F, cot, bracket = _neck_terms(np.asarray(jet.f, dtype=float), f1,
                                         np.asarray(jet.f2, dtype=float), bN)
    rootE = np.sqrt(E)
    A = (p - 1) * D * rootE * cot / bN
    collar = (q - 1) * E * f1 * h1
    return {"reported": ((p - 1) * D ** 2 * rootE * cot / bN,
                         bracket + (q - 1) * D * E * f1 * h1 * h),
            "curvature": (A, bracket + collar * h),
            "unit": (A, bracket + collar / h)}


def neck_margins(jet: WarpedJet, beta: float, N: float, p: int, q: int) -> dict:
    """The margin A - B of every variant, keyed by variant name."""
    return {variant: A - B for variant, (A, B) in ab_terms(jet, beta, N, p, q).items()}


def z3_mean_curvature(curve: CurveEmbedding, pair, p: int, q: int) -> tuple:
    """Principal curvatures of the neck boundary on the curve's samples.

    Returns (curve_pc, sphere_p_pc, sphere_q_pc, mean_curvature, degenerate).
    The three principal-curvature families are evaluated through their
    D-regular forms, so samples on the vertical locus (exact arc pieces with
    a constant collar radius) contribute zeros rather than 0/0; ``degenerate``
    flags the vertical samples that still carry curve or collar data.
    """
    bN = curve.beta * curve.N
    jets = pair.jets(curve.t)
    f1, h, h1 = jets.f1, jets.h, jets.h1
    D, E, _F, cot, bracket = _neck_terms(jets.f, f1, jets.f2, bN)
    mask = curve.mask

    curve_pc = np.zeros_like(f1)
    curve_pc[mask] = -bracket[mask] / (np.sqrt(D[mask]) * E[mask])
    sphere_p = np.zeros_like(f1)
    sphere_p[mask] = np.sqrt(D[mask] / E[mask]) * cot[mask] / bN
    sphere_q = np.zeros_like(f1)
    sphere_q[mask] = -f1[mask] * h1[mask] / (h[mask] * np.sqrt(D[mask]))
    # Degenerate samples with residual curve or collar data cannot be
    # represented as a graph; flag them instead of inventing values.
    irregular = (~mask) & ((np.abs(bracket) > 1e-9) | (np.abs(h1) * np.abs(f1) > 1e-9))
    mc = curve_pc + (p - 1) * sphere_p + (q - 1) * sphere_q
    return curve_pc, sphere_p, sphere_q, mc, irregular


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


def interface_checks(jets: WarpedJet, left, right, p: int, q: int) -> bool:
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
    return perelman_form_check(II_a3, taper_side) and perelman_form_check(II_b3, cap_side)


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
    s_max = (math.pi - POLE_MARGIN) * r / math.sin(eps_profile.eps_end)

    def fiber_radius(xb):
        se = np.sin(np.asarray(eps_profile.eps(xb[..., 0])))
        return (r / se) * np.sin(xb[..., 1] * se / r)

    fiber = warped_patch(flat_patch(((eps_profile.a2, eps_profile.b2), (1e-4, s_max))),
                         fiber_radius, p - 1)
    return warped_patch(fiber, lambda xb: k(xb[..., 0]), q - 1)


@dataclass(frozen=True)
class TaperReport:
    t: np.ndarray
    mean_curvature: np.ndarray
    fiber_pc_min: np.ndarray
    other_pc_max_abs: np.ndarray


def z2_mean_curvature(eps_profile, k: Callable, r: float, p: int, q: int) -> TaperReport:
    """Mean curvature of the taper boundary s = eps(t) r / sin(eps(t)).

    Uses the second-fundamental-form oracle (step TAPER_STEP) on the bundle
    patch at TAPER_SAMPLES points; the boundary is the graph of s(t) over the
    remaining coordinates with inward normal pointing to smaller s.
    """
    patch = z2_patch(eps_profile, k, r, p, q)
    d = patch.dim

    def height(xs):
        xs = np.asarray(xs, dtype=float)
        tt = xs[..., 0]
        eps = np.asarray(eps_profile.eps(tt))
        return eps * r / np.sin(eps)

    hyper = GraphHypersurface(axis=1, height=height, normal_sign=-1)
    lo = eps_profile.a2 + 4.0 * TAPER_STEP
    hi = eps_profile.b2 - 4.0 * TAPER_STEP
    ts = np.linspace(lo, hi, TAPER_SAMPLES)
    angles = np.full(d - 2, math.pi / 2 + 0.1)
    mcs, fmins, omaxs = [], [], []
    for tv in ts:
        base = np.concatenate([[tv], angles])
        rep = numeric_second_fundamental_form(patch, hyper, base, step=TAPER_STEP)
        pcs = rep.principal_curvatures
        mcs.append(rep.mean_curvature)
        # The p-1 largest principal curvatures belong to the fiber sphere
        # directions when the fiber dominates.
        pcs_sorted = np.sort(pcs)
        fmins.append(float(pcs_sorted[-(p - 1)]))
        omaxs.append(float(np.max(np.abs(pcs_sorted[:-(p - 1)]))) if d - 2 > p - 1 else 0.0)
    return TaperReport(t=ts, mean_curvature=np.asarray(mcs),
                       fiber_pc_min=np.asarray(fmins),
                       other_pc_max_abs=np.asarray(omaxs))


# ---------------------------------------------------------------------------
# The neck bulk chart
# ---------------------------------------------------------------------------


def bulk_patch(pair, p: int, q: int, d_min: float) -> tuple:
    """The neck bulk: metric cylinder line x S^p(beta N) times the collar sphere.

    Coordinates (t~, s, p-1 fiber angles, q-1 collar angles), with collar
    radius h(t(t~)).  The map t~ -> t is Hermite-interpolated through the
    1024-point boundary curve on the samples where D >= d_min, which also
    bound the t~ range of the domain.  Returns (patch, curve, keep, step):
    ``keep`` indexes the curve samples used as interpolation nodes, and
    ``step`` is the oracle's finite-difference step on this chart, 1e-4 bN
    along (t~, s), where the metric varies on the scale bN, and 1e-3 along
    the angles.
    """
    bN = pair.right.bN
    curve = build_curve(pair, pair.right.beta, pair.right.N, grid_n=1024)
    keep = np.flatnonzero(curve.D >= d_min)
    if keep.size == 0:
        raise ValueError("no well-conditioned samples on this profile")
    keep = keep[np.concatenate([[True], np.diff(curve.t_tilde[keep]) > 1e-9])]
    tt = curve.t_tilde[keep]
    t_of_tt = CubicHermite(tt, curve.t[keep], np.sqrt(1.0 + curve.F1[keep] ** 2))
    patch = warped_patch(cylinder_patch(p, bN), lambda xb: pair.h(t_of_tt(xb[..., 0])), q - 1)
    domain = ((tt[0], tt[-1]), (1e-6 * bN, (math.pi - POLE_MARGIN) * bN)) + patch.domain[2:]
    step = np.concatenate([[1e-4 * bN, 1e-4 * bN], np.full(patch.dim - 2, 1e-3)])
    return replace(patch, domain=domain), curve, keep, step
