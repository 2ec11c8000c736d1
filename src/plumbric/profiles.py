"""Warping-profile construction for the neck region of a plumbing.

The boundary metric over the neck is ``dt^2 + h^2 ds_{q-1}^2 + f^2 ds_{p-1}^2``
on [a3, b3] (a3 is normalized to 0).  The profile is built from two pieces:

* Left piece on [a3, t1]: ``h_l = a*h0`` and ``f_l = b*fC`` where h0 and fC
  solve the initial value problems

      h0' = exp(-h0^2/2),         h0(a3) = sqrt(-2 ln lam),
      fC'' = C exp(-h0^2) fC,     fC(a3) = 1, fC'(a3) = 0,

  summed exactly as power series in h0 - h0(a3) (:class:`WarpSeries`).

* Right piece on [t1, b3]: the fiber radius follows the concave run-out
  family f'' = -2 kappa f'^2 f / (E (beta N)^2) with
  E = 1 - (f/(beta N))^2, whose slope has the closed form
  sigma(f) = cos(R/N)^(1-2k) E(f)^k.  The exponent is solved exactly from
  the join state, the value curve is anchored at the far end
  (f(b3) = beta N sin(R/N), f'(b3) = cos(R/N) to machine precision), and
  the phase gap D = E - f'^2 stays nonnegative along the whole family.
  The collar radius h rises concavely from h(t1) by a small factor and
  plateaus at beta*rho well before b3 (so h(b3) = beta rho, h'(b3) = 0).

Everything on the right piece is concave (f'' <= 0), which bounds the
destabilizing curve term f''E + f'^2 f/(beta N)^2 of the mean-curvature
margin by max(f'^2 f)/(beta N)^2 <= s0^2 sin(R/N)/(beta N).  The search
sizes beta N from the tolerance, beta N = max(1.2/mc_margin_tol, 50 f(t1)),
so the worst margin is a fixed fraction of the tolerance (margin/tol near
-0.28 for tolerances down to 1e-12), not a value shown nonnegative.  The join at t1 is
C^1 by solving the fiber scale from the slope target (b = s0/fC'(t1)); f''
jumps there from the left piece's convex value to the run-out's concave one.
The certificate covers this C^1 two-piece profile.

Each piece is a function of t alone that returns its six jets
(f, f', f'', h, h', h'') in one pass.  It keeps no state between calls, and
each jet at a point depends on that point alone, so a piece called on any
set of points gives the same bits at each of them.  :class:`ProfilePair`
splits t at t1 and calls each piece once per evaluation.

The search's inputs are (p, q, R/N, lambda), the margin tolerance and the
check grid.  The left piece depends on (lambda, C, t) alone.  Each
candidate's run-out is solved once, at the search's own join state, and the
right piece is built from it.  A vertex's collar-ball bound kappa enters no
search: the certificate checks rho < 0.99 kappa.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter, namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import pipeline  # for SpecError; a module binding, so neither import runs the other
from .meancurv import (MC_VARIANTS, build_curve, bulk_patch, interface_checks, neck_margins,
                       z2_mean_curvature)
from .numerics import CubicHermite, simpson_table
from .oracle import CurvatureReport, NonSPDMetricError, OracleDomainError, numeric_curvature
from .steps import smooth_step, smooth_step_d1, smoothstep7, smoothstep7_d1, smoothstep7_d2
from .warped import WarpedJet, doubly_warped_ricci

__all__ = [
    "A3",
    "ProfileError",
    "InfeasibleProfileError",
    "BoundaryConditionError",
    "WarpSeries",
    "WarpJets",
    "integrate_fC",
    "LeftParams",
    "RightParams",
    "EpsilonProfile",
    "ProfilePair",
    "build_left_profile",
    "build_right_profile",
    "assemble_profile",
    "PROFILE_COLUMNS",
    "CSV_BLOCK_ROWS",
    "csv_blocks",
    "parse_profile_csv",
    "BcReport",
    "check_bc",
    "ProfileMeasurement",
    "measure_profile",
    "sample_verdict",
    "bulk_scalar_samples",
    "taper_check",
    "SearchResult",
    "search_parameters",
]

A3 = 0.0  # the left end of the neck interval; only differences of t matter

BC_TOL = 1e-8        # the nine interface clauses
MC_TOL_FLOOR = 1e-12  # least margin tolerance the beta N sizing follows
MC_VARIANT = "reported"  # the margin variant the certificate claims

PROFILE_COLUMNS = ("t", "f", "f1", "f2", "h", "h1", "h2")  # the profile CSV's columns
CSV_BLOCK_ROWS = 4096  # rows formatted per block by csv_blocks
BULK_SAMPLES = 4       # oracle points of the bulk scalar-curvature check
BULK_D_MIN = 1e-4      # least phase gap D at a bulk sample

# The parameter search's fixed choices (see search_parameters).
SEARCH_A = 0.2                     # collar scale: h(a3) = a sqrt(-2 ln lam), h'(a3) = a lam
SEARCH_T1 = (1e5, 1e6, 1e7, 3e7)   # join points t1, nearest first
THETA_RISE = 0.03                  # collar rise: beta rho = (1 + THETA_RISE) h(t1)
BN_TOL = 3.0 * 0.4                 # beta N * mc_margin_tol: 3x the 0.4/(beta N) deficit bound


class ProfileError(ValueError):
    """Base error for profile construction."""


class BoundaryConditionError(ProfileError):
    """A named boundary-condition clause failed at construction time."""

    def __init__(self, clause: str, message: str):
        super().__init__(f"[{clause}] {message}")
        self.clause = clause


class InfeasibleProfileError(ProfileError):
    """No admissible profile for the supplied parameters."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


# ---------------------------------------------------------------------------
# The left piece's warp functions
# ---------------------------------------------------------------------------

SERIES_EPS = 2.0 ** -53  # a series stops at a term this small against its partial sum
NEWTON_TOL = 2.0 ** -50  # the clock inversion stops at a step this small against u
NEWTON_STEPS = 60        # most Newton steps of the clock inversion


WarpJets = namedtuple("WarpJets", "h0 h0_d1 h0_d2 fc fc_d1 fc_d2")


class WarpSeries:
    """The warping ODEs' solution for one (lam, C) pair, as power series.

    With s0 = sqrt(-2 ln lam) and u = h0 - s0, both the clock and fC are
    power series in u whose terms are all nonnegative, so no sum cancels:

        lam t = sum_n d_n u^(n+1)/(n+1),   d_0 = 1, d_1 = s0,
                (n+1) d_(n+1) = s0 d_n + d_(n-1);
        fC    = 1 + C sum_n c_n u^n,       c_1 = 0, c_2 = 1/2,
                (n+2)(n+1) c_(n+2) = s0 (n+1) c_(n+1) + (n+C) c_n.

    The clock is dt = exp(h0^2/2) dh0 with exp(s0^2/2) = 1/lam; fC solves
    fC'' = C exp(-h0^2) fC written in h0, y'' - h0 y' - C y = 0.  Taking the
    factor C out of fC's coefficients keeps them normal floats for any C > 0.
    :meth:`jets` solves u by Newton's method once per call; fC' =
    exp(-h0^2/2) dfC/du, and the other jets are algebraic.
    """

    def __init__(self, lam: float, C: float):
        self.lam, self.C = lam, C
        self.s0 = math.sqrt(-2.0 * math.log(lam))
        self._coefficients(64)

    def _coefficients(self, n: int):
        """n coefficients each of the clock series and of the sums (fC - 1)/C
        and (dfC/du)/C."""
        s0, C = self.s0, self.C
        d, c = [1.0, s0], [0.0, 0.0, 0.5]
        for k in range(1, n):
            d.append((s0 * d[k] + d[k - 1]) / (k + 1))
            c.append((s0 * (k + 1) * c[k + 1] + (k + C) * c[k]) / ((k + 2) * (k + 1)))
        k = np.arange(1, n + 1)
        self._coef = {"clock": np.concatenate([[0.0], np.array(d[:n - 1]) / k[:-1]]),
                      "fc": np.array(c[:n]), "fc_du": np.array(c[1:n + 1]) * k}

    def _sum(self, name: str, u: np.ndarray) -> np.ndarray:
        """A series at each u >= 0, summed in order up to its own first term
        past u^1 that is no larger than the one before and at most SERIES_EPS
        of the partial sum (so no u's value depends on another's)."""
        while True:
            coef = self._coef[name]
            terms = coef * u[:, np.newaxis] ** np.arange(coef.size)
            sums = np.cumsum(terms, axis=1)
            stop = (terms[:, 2:] <= terms[:, 1:-1]) & (terms[:, 2:] <= SERIES_EPS * sums[:, 2:])
            if stop.any(axis=1).all():
                return sums[np.arange(u.size), np.argmax(stop, axis=1) + 2]
            if not np.all(np.isfinite(sums[:, -1])):
                raise ProfileError("the warp series overflows: t is too large")
            self._coefficients(2 * coef.size)

    def _solve_u(self, t: np.ndarray) -> np.ndarray:
        """u at each t >= a3: Newton's method on the clock series from its
        asymptote lam t = exp(s0 u + u^2/2)/(s0 + u) - 1/s0; each u stops at
        its first step of at most NEWTON_TOL u."""
        s0, y = self.s0, self.lam * t
        u = np.zeros_like(y)
        for _ in range(2):
            L = np.log1p(s0 * y) + np.log1p(u / s0)
            u = 2.0 * L / (s0 + np.sqrt(s0 * s0 + 2.0 * L))
        active = np.ones(u.shape, dtype=bool)
        for _ in range(NEWTON_STEPS):
            ua = u[active]
            step = (self._sum("clock", ua) - y[active]) / np.exp(ua * (s0 + 0.5 * ua))
            u[active] = ua - step
            active[np.flatnonzero(active)[np.abs(step) <= NEWTON_TOL * u[active]]] = False
            if not active.any():
                return u
        raise ProfileError(f"the warp clock did not converge in {NEWTON_STEPS} Newton steps")

    def jets(self, t) -> WarpJets:
        """h0, fC and their first two derivatives at t."""
        t = np.asarray(t, dtype=float)
        if not np.all((t >= A3) & np.isfinite(t)):
            raise ProfileError(f"the left piece is defined on finite t >= {A3}")
        u = self._solve_u(t.ravel())
        e = self.lam * np.exp(-u * (self.s0 + 0.5 * u))  # h0' = exp(-h0^2/2)
        h0, fc = self.s0 + u, 1.0 + self.C * self._sum("fc", u)
        return WarpJets(*np.stack((h0, e, -h0 * e * e, fc, e * (self.C * self._sum("fc_du", u)),
                                   self.C * e * e * fc)).reshape((6,) + t.shape))


def integrate_fC(C: float, lam: float) -> WarpSeries:
    """The left piece's warp functions: h0 and fC from h0(a3) = sqrt(-2 ln lam),
    fC(a3) = 1, fC'(a3) = 0."""
    if not (0.0 < C < 1.0):
        raise ProfileError(f"curvature parameter must lie in (0, 1), got {C}")
    if not (0.0 < lam < 0.5):
        raise ProfileError(f"slope parameter must lie in (0, 1/2), got {lam}")
    return WarpSeries(lam=lam, C=C)


# ---------------------------------------------------------------------------
# Parameter records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeftParams:
    """Scales of the left piece: h_l = a*h0, f_l = b*fC on [a3, t1].

    ``alpha`` and ``b`` are derived: alpha = a*sqrt(-2 ln lam) and b = alpha*r,
    i.e. r fixes the fiber-to-collar ratio f(a3)/h(a3).
    """

    lam: float
    a: float
    C: float
    r: float
    a3: float = A3

    def __post_init__(self):
        if not (0.0 < self.lam < 0.5):
            raise BoundaryConditionError("lambda", f"need 0 < lambda < 1/2, got {self.lam}")
        if not (0.0 < self.a <= 1.0):
            raise BoundaryConditionError(
                "h1_a3", f"need a in (0, 1] so that h'(a3) = a*lambda <= lambda, got a={self.a}")
        if not (0.0 < self.C < 1.0):
            raise BoundaryConditionError("C", f"need C in (0, 1), got {self.C}")
        if not (self.r > 0.0):
            raise BoundaryConditionError("r", f"fiber cap radius must be positive, got {self.r}")

    @property
    def alpha(self) -> float:
        return self.a * math.sqrt(-2.0 * math.log(self.lam))

    @property
    def b(self) -> float:
        return self.alpha * self.r


@dataclass(frozen=True)
class RightParams:
    """Right-piece data: the join point, the end point, and the end geometry."""

    t1: float
    b3: float
    beta: float
    rho: float
    N: float
    R: float

    def __post_init__(self):
        if not (self.b3 > self.t1):
            raise ProfileError(f"need b3 > t1, got b3={self.b3}, t1={self.t1}")
        for name in ("beta", "rho", "N", "R"):
            if getattr(self, name) <= 0:
                raise ProfileError(f"{name} must be positive")
        if not (0.0 < self.R / self.N < math.pi / 2):
            raise ProfileError(f"need 0 < R/N < pi/2, got {self.R / self.N}")

    @property
    def bN(self) -> float:
        return self.beta * self.N

    @property
    def angle(self) -> float:
        return self.R / self.N


@dataclass(frozen=True)
class EpsilonProfile:
    """Fiber-angle taper on [a2, b2]: pi/2 on the left, eps_end on the right.

    The transition uses the degree-7 smoothstep between tau1 and tau2 placed
    at 30%/70% of the interval, so the profile is constant near both ends and
    strictly decreasing in between.
    """

    a2: float
    b2: float
    eps_end: float

    def __post_init__(self):
        if not (self.b2 > self.a2):
            raise ProfileError("need b2 > a2")
        if not (0.0 < self.eps_end < math.pi / 2):
            raise ProfileError(f"end angle must lie in (0, pi/2), got {self.eps_end}")

    @property
    def tau1(self) -> float:
        return self.a2 + 0.3 * (self.b2 - self.a2)

    @property
    def tau2(self) -> float:
        return self.a2 + 0.7 * (self.b2 - self.a2)

    def eps_jets(self, t) -> tuple:
        """eps and its first two derivatives in t, from smoothstep7's polynomials."""
        width = self.tau2 - self.tau1
        x = (np.asarray(t, dtype=float) - self.tau1) / width
        drop = self.eps_end - math.pi / 2
        return (math.pi / 2 + drop * smoothstep7(x), drop * smoothstep7_d1(x) / width,
                drop * smoothstep7_d2(x) / width ** 2)


# ---------------------------------------------------------------------------
# Pieces
# ---------------------------------------------------------------------------


def build_left_profile(params: LeftParams) -> Callable:
    """Left piece h_l = a*h0, f_l = b*fC on [a3, t1], from the warp series of
    (params.lam, params.C).

    The piece maps t to its six jets (f, f', f'', h, h', h''), scaled from
    one :meth:`WarpSeries.jets` pass; it keeps no state, and each jet at a
    point depends on that point alone.  The a3 interface clauses hold by
    scaling; :func:`check_bc` verifies them on the assembled profile.
    """
    warp = integrate_fC(params.C, params.lam)
    a, b = params.a, params.b

    def piece(t):
        w = warp.jets(t)
        return b * w.fc, b * w.fc_d1, b * w.fc_d2, a * w.h0, a * w.h0_d1, a * w.h0_d2

    return piece


def _theta_family(x, c):
    """Decay shape Theta_c(x) = (1 - S(x)) exp(-c x): 1 at x=0, flat 0 at x>=1."""
    x = np.asarray(x, dtype=float)
    return (1.0 - smooth_step(x)) * np.exp(-c * np.clip(x, 0.0, 1.0))


def _theta_family_d1(x, c):
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, 0.0, 1.0)
    e = np.exp(-c * xc)
    inside = (x > 0.0) & (x < 1.0)
    out = np.zeros_like(x)
    out[inside] = (-smooth_step_d1(x[inside]) - c * (1.0 - smooth_step(x[inside]))) * e[inside]
    # x <= 0 takes the x = 0 limit -c, which a sample at t1 hits
    out[x <= 0.0] = -c
    return out


COLLAR_NODES = np.linspace(0.0, 1.0, 4097)  # quadrature nodes of the collar rise
COLLAR_MEAN = 0.35  # mean of the collar slope shape over the rise, in units of h'(t1)
# The decay c for which Theta_c has mean COLLAR_MEAN on COLLAR_NODES by the
# trapezoid rule: brentq's root on [0, 400] at xtol 1e-13, 0x1.66d2f61a08d94p+0.
COLLAR_DECAY = 1.4016565145073843
RUNOUT_NODES = 65537  # nodes of the run-out's arclength table


class Runout:
    """Concave slope run-out f'' = -2 kappa f'^2 f/(E (beta N)^2).

    The slope is a function of the fiber radius in closed form,

        sigma(f) = cos(R/N)^(1-2k) * E(f)^k,   E(f) = 1 - (f/(beta N))^2,

    with the exponent k in (0, 1/2) fixed by the join state:
    sigma(v0) = s0.  k -> 0 is a straight profile, k -> 1/2 the exact
    ambient arc; the curve term f''E + f'^2 f/(beta N)^2 equals
    (1 - 2k) f'^2 f/(beta N)^2, nonnegative and bounded by the concavity
    floor f'^2 f/(beta N)^2.  The value curve is integrated backward from
    the exact end state f(b3) = beta N sin(R/N).
    """

    def __init__(self, v0: float, s0: float, bN: float, X_R: float):
        cosX, sinX = math.cos(X_R), math.sin(X_R)
        if not (cosX < s0 < 1.0):
            raise InfeasibleProfileError(
                f"join slope {s0} outside (cos(R/N), 1) = ({cosX}, 1)")
        if not (0.0 < v0 < bN * sinX):
            raise InfeasibleProfileError(
                f"join radius {v0} outside (0, beta N sin(R/N)) = (0, {bN * sinX})")
        E0 = 1.0 - (v0 / bN) ** 2
        kappa = (math.log(s0) - math.log(cosX)) / (math.log(E0) - 2.0 * math.log(cosX))
        if not (0.0 < kappa < 0.5):
            raise InfeasibleProfileError(
                f"no concave run-out through this join state (kappa = {kappa})",
                {"kappa": kappa})
        self.bN = bN
        self.cosX = cosX
        self.kappa = kappa
        self.f_end = bN * sinX
        self.scale = cosX ** (1.0 - 2.0 * kappa)
        # Arclength u(f) = int_f^{f_end} df'/sigma(f') by cumulative Simpson;
        # the value curve f(u) is its Hermite inverse (df/du = -sigma exact
        # at the nodes), anchored at u = 0 <-> f = f_end.
        fs = np.linspace(v0, self.f_end, RUNOUT_NODES)
        sig = self.sigma(fs)
        cum = simpson_table(1.0 / sig, fs)
        self.length = float(cum[-1])
        self._f_of_u = CubicHermite((self.length - cum)[::-1], fs[::-1], -sig[::-1])

    def E(self, f):
        return 1.0 - (np.asarray(f, dtype=float) / self.bN) ** 2

    def sigma(self, f):
        return self.scale * self.E(f) ** self.kappa

    def sigma_df(self, f, sigma):
        """d sigma/df at f, given sigma = sigma(f)."""
        return -2.0 * self.kappa * sigma * f / (self.E(f) * self.bN ** 2)

    def f_of_u(self, u):
        """Fiber radius at distance u before the far end (u = b3 - t)."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return self._f_of_u(u)


def solve_runout(v0: float, s0: float, bN: float, X_R: float) -> Runout:
    return Runout(v0, s0, bN, X_R)


def build_right_profile(left_t1: tuple, params: RightParams, run: Runout) -> Callable:
    """Right piece on [t1, b3]: the fiber radius follows ``run``, the collar
    radius rises concavely and then plateaus.

    The piece maps t to its six jets (f, f', f'', h, h', h''): it evaluates
    the run-out once (f, sigma(f) and sigma'(f) sigma(f)) and the collar once,
    the plateau everywhere and the rise where t is before its end.  It keeps
    no state, and each jet at a point depends on that point alone.
    ``left_t1`` is the left piece's six jets at t1, where the collar rise
    starts.

    ``run`` is the :class:`Runout` from the join state (f(t1), f'(t1)) to the
    end state (beta N sin(R/N), cos(R/N)) at b3; its constructor checks the
    slope and radius windows, the end jets hold to machine precision and the
    phase gap D = 1 - (f/(beta N))^2 - f'^2 stays nonnegative along it.
    ``params.b3 - params.t1`` must equal its length (the search builds the
    run-out once per candidate and sets b3 from it).

    The collar radius rises to beta*rho over an initial window and is
    constant afterwards, so h(b3) = beta*rho and h'(b3) = 0 hold exactly
    (callers pick rho slightly above h(t1)/beta).  The rise may take at most
    half of [t1, b3].
    """
    t1, b3 = params.t1, params.b3
    L = b3 - t1
    hl1, hs1 = float(left_t1[3]), float(left_t1[4])
    if abs(run.length - L) > 1e-6 * max(1.0, L):
        raise InfeasibleProfileError(
            f"b3 - t1 = {L} inconsistent with the run-out length {run.length}",
            {"expected_length": run.length, "kappa": run.kappa})

    # ---- collar radius: short concave rise, then plateau --------------------
    rise = params.beta * params.rho - hl1
    if rise <= 0:
        raise InfeasibleProfileError(
            f"need beta*rho > h(t1): beta*rho={params.beta * params.rho}, h(t1)={hl1}")
    span = rise / (hs1 * COLLAR_MEAN)
    if span > 0.5 * L:
        raise InfeasibleProfileError(
            f"collar rise needs span {span:.3e} > 0.5 L; "
            "reduce rho", {"span": span})
    t_h = t1 + span
    t_nodes = t1 + span * COLLAR_NODES
    sig_nodes = hs1 * _theta_family(COLLAR_NODES, COLLAR_DECAY)
    cum = np.concatenate([[0.0], np.cumsum((sig_nodes[1:] + sig_nodes[:-1]) * 0.5
                                           * np.diff(t_nodes))])
    cum *= rise / cum[-1]  # absorb the quadrature defect: h(t_h) = beta*rho exactly
    h_spline = CubicHermite(t_nodes, hl1 + cum, sig_nodes)
    h_end = params.beta * params.rho

    def piece(t):
        t = np.asarray(t, dtype=float)
        # u = b3 - t, clamped to the run-out: b3 - t1 may round past its length
        f = run.f_of_u(np.clip(b3 - t, 0.0, run.length)).reshape(t.shape)
        f1 = np.asarray(run.sigma(f))
        h, h1, h2 = np.full(t.shape, h_end), np.zeros(t.shape), np.zeros(t.shape)
        on_rise = t < t_h   # the plateau from t_h on
        if np.any(on_rise):
            tm = t[on_rise]
            x = (tm - t1) / span
            h[on_rise] = h_spline(tm)
            h1[on_rise] = hs1 * _theta_family(x, COLLAR_DECAY)
            h2[on_rise] = hs1 * _theta_family_d1(x, COLLAR_DECAY) / span
        return f, f1, run.sigma_df(f, f1) * f1, h, h1, h2

    return piece


# ---------------------------------------------------------------------------
# Assembled profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfilePair:
    """Complete (f, h) profile on [a3, b3]: two pieces joined C^1 at t1.

    The left piece serves t < t1 and the right piece t >= t1; :meth:`jets`
    evaluates them, and ``grid`` is the uniform check grid.
    """

    left: LeftParams
    right: RightParams
    left_piece: Callable
    right_piece: Callable
    eps_b2: float

    @property
    def a3(self) -> float:
        return self.left.a3

    @property
    def t1(self) -> float:
        return self.right.t1

    @property
    def b3(self) -> float:
        return self.right.b3

    def jets(self, t) -> WarpedJet:
        """The six jets at t: t is split at t1 once, and each piece is called
        once, on its own points."""
        t = np.asarray(t, dtype=float)
        jets = np.empty((6,) + t.shape)
        right = t >= self.t1
        for piece, m in ((self.left_piece, ~right), (self.right_piece, right)):
            if np.any(m):
                jets[:, m] = piece(t[m])
        return WarpedJet(t, *jets)

    # One jet each, through jets; bench/tracing.py's spans name them.
    def f(self, t):
        return self.jets(t).f

    def f1(self, t):
        return self.jets(t).f1

    def f2(self, t):
        return self.jets(t).f2

    def h(self, t):
        return self.jets(t).h

    def h1(self, t):
        return self.jets(t).h1

    def h2(self, t):
        return self.jets(t).h2

    def grid(self, n: int) -> np.ndarray:
        """Uniform n-point grid whose first and last samples are a3 and b3."""
        return np.linspace(self.a3, self.b3, n)

    # -- serialization ------------------------------------------------------

    def to_csv(self, n: int) -> str:
        """Profile CSV on the n-point grid: columns t, f, f1, f2, h, h1, h2."""
        jets = self.jets(self.grid(n))
        columns = {name: getattr(jets, name) for name in PROFILE_COLUMNS}
        return "".join(text for (text,) in csv_blocks(columns, PROFILE_COLUMNS))


def csv_blocks(columns: dict, *tables):
    """Text of CSV tables that share columns, streamed a block of rows at a time.

    ``columns`` maps names to equal-length 1-D arrays and each table is a
    sequence of those names.  The first tuple yielded holds each table's header
    line; each later one holds the next ``CSV_BLOCK_ROWS`` rows of each table.
    Within a block every column is formatted once by :mod:`plumbric.g17`,
    however many tables use it, and each table's rows come from one compress.
    Each table's text is byte-equal to a header line followed by
    ``np.savetxt(..., delimiter=",", fmt="%.17g")`` of its stacked columns.
    """
    # Imported on first use: a run that writes no CSV (a topo ledger) never
    # loads the kernel, which costs about 1 ms to compile where no bytecode
    # is cached.
    from .g17 import format_column, join_rows

    arrays = {name: np.asarray(columns[name], dtype=np.float64)
              for table in tables for name in table}
    shapes = {a.shape for a in arrays.values()}
    if len(shapes) != 1 or len(next(iter(shapes))) != 1:
        raise ValueError(f"CSV columns must be 1-D and of equal length, got shapes {shapes}")
    n = next(iter(shapes))[0]
    yield tuple(",".join(table) + "\n" for table in tables)
    for lo in range(0, n, CSV_BLOCK_ROWS):
        text = {name: format_column(a[lo:lo + CSV_BLOCK_ROWS]) for name, a in arrays.items()}
        yield tuple(join_rows([text[name] for name in table]) for table in tables)


def parse_profile_csv(path) -> dict:
    """Columns of a profile CSV, as :func:`csv_blocks` writes it; a body that
    is not a numeric table of the profile's columns raises a ``SpecError``
    naming its first bad row.

    The body is parsed from the open file, so the text is never held whole;
    only the error path reads it back."""
    expected = list(PROFILE_COLUMNS)
    with open(path) as fh:
        header = next((line for line in iter(fh.readline, "") if line.strip()), "")
        header = header.strip().split(",")
        if header != expected:
            raise pipeline.SpecError(f"profile CSV columns must be {expected}, got {header}")
        try:
            with warnings.catch_warnings():
                # an empty body is reported below, not as loadtxt's warning
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
        except ValueError:
            data = None
        if data is not None and data.shape[0] and data.shape[1] == len(expected):
            return {name: data[:, k] for k, name in enumerate(expected)}
        fh.seek(0)
        body = fh.read().lstrip().partition("\n")[2]
    if not body.strip():
        raise pipeline.SpecError("profile CSV has a header but no rows")
    raise _bad_profile_row(body, len(expected))


def _bad_profile_row(body: str, ncol: int) -> pipeline.SpecError:
    """The error naming the first row (1 = the line after the header) that
    fails to parse on its own or has other than ``ncol`` fields."""
    for i, line in enumerate(body.split("\n"), 1):
        if not line:
            continue   # loadtxt skips empty lines
        try:
            n = np.loadtxt([line], delimiter=",", ndmin=2, comments=None).shape[1]
        except ValueError:
            return pipeline.SpecError(f"profile CSV row {i} is not numeric: {line!r}")
        if n != ncol:
            return pipeline.SpecError(f"profile CSV row {i} has {n} fields, not {ncol}")
    return pipeline.SpecError("profile CSV body is not a numeric table")


def assemble_profile(left_params: LeftParams, right_params: RightParams,
                     left: Callable, right: Callable, left_t1: tuple) -> ProfilePair:
    """Join the pieces into the C^1 profile, checking that the right piece's
    jets at t1 agree with ``left_t1``, the left piece's."""
    t1 = right_params.t1
    scale = max(1.0, right_params.bN * 1e-10)
    (lf, lf1, _, lh, lh1, _), (rf, rf1, _, rh, rh1, _) = left_t1, right(t1)
    gap_f = abs(float(lf) - float(rf))
    gap_f1 = abs(float(lf1) - float(rf1))
    gap_h = abs(float(lh) - float(rh))
    gap_h1 = abs(float(lh1) - float(rh1))
    worst = max(gap_f / scale, gap_f1, gap_h, gap_h1)
    if worst > 1e-6:
        raise ProfileError(f"pieces are not C^1 at t1 (worst jet gap {worst:.3e})")
    eps_b2 = math.asin(left_params.alpha * left_params.r / right_params.bN)
    return ProfilePair(left=left_params, right=right_params,
                       left_piece=left, right_piece=right, eps_b2=eps_b2)


# ---------------------------------------------------------------------------
# Sample checks: one measurement, one verdict
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BcReport:
    clauses: dict

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.clauses.values())

    @property
    def failures(self) -> list:
        return [name for name, c in self.clauses.items() if not c["passed"]]


def check_bc(jets: WarpedJet, left: LeftParams, right: RightParams, eps_b2: float) -> BcReport:
    """Verify the nine interface clauses of a profile sampled from a3 to b3.

    The first and last samples of ``jets`` are the two ends.  Left end (a3):
    the recorded taper end angle, h(a3) = alpha, h'(a3) <= lambda,
    f(a3) = alpha*r, f'(a3) = 0.  Right end (b3): h(b3) = beta*rho,
    h'(b3) = 0, f(b3) = beta*N*sin(R/N), f'(b3) = cos(R/N); each within BC_TOL.
    """
    bN, X_R = right.bN, right.angle
    targets = {
        "eps_b2": (eps_b2, math.asin(left.alpha * left.r / bN), False),
        "h_a3": (float(jets.h[0]), left.alpha, False),
        "h1_a3": (float(jets.h1[0]), left.lam, True),   # one-sided: actual <= target
        "f_a3": (float(jets.f[0]), left.alpha * left.r, False),
        "f1_a3": (float(jets.f1[0]), 0.0, False),
        "h_b3": (float(jets.h[-1]), right.beta * right.rho, False),
        "h1_b3": (float(jets.h1[-1]), 0.0, False),
        "f_b3": (float(jets.f[-1]), bN * math.sin(X_R), False),
        "f1_b3": (float(jets.f1[-1]), math.cos(X_R), False),
    }
    clauses = {}
    for name, (actual, target, one_sided) in targets.items():
        residual = actual - target
        ok = residual <= BC_TOL if one_sided else abs(residual) <= BC_TOL
        clauses[name] = {"actual": actual, "target": target,
                         "residual": residual, "one_sided": one_sided, "passed": bool(ok)}
    return BcReport(clauses=clauses)


@dataclass(frozen=True)
class ProfileMeasurement:
    """What the sample-determined checks read from a profile on its check grid.

    ``jets`` runs from a3 to b3; its end samples carry the nine interface
    clauses and both gluing forms.  Over the whole grid, ``ricci_min`` is the
    least Ricci component and ``margins`` maps each mean-curvature variant
    to its margin A - B.
    """

    jets: WarpedJet
    left: LeftParams
    right: RightParams
    eps_b2: float
    p: int
    q: int
    ricci_min: float
    margins: dict

    def margin_min(self, variant: str) -> float:
        return float(np.min(self.margins[variant]))

    def summary(self) -> dict:
        """The certificate's sample-determined margins."""
        return {"ricci_min": self.ricci_min,
                **{f"mc_margin_{v}": self.margin_min(v) for v in MC_VARIANTS}}


def measure_profile(jets: WarpedJet, left: LeftParams, right: RightParams,
                    eps_b2: float, p: int, q: int) -> ProfileMeasurement:
    """Ricci and the three margin variants of a sampled profile, computed once."""
    ric = doubly_warped_ricci(jets, p, q)
    return ProfileMeasurement(jets=jets, left=left, right=right, eps_b2=eps_b2, p=p, q=q,
                              ricci_min=float(min(np.min(r) for r in ric)),
                              margins=neck_margins(jets, right.beta, right.N, p, q))


def check_record(cid: str, passed: bool, value, tolerance, detail: str = "") -> dict:
    return {"id": cid, "passed": bool(passed), "value": value,
            "tolerance": tolerance, "detail": detail}


def sample_verdict(m: ProfileMeasurement, mc_margin_tol: float) -> tuple:
    """Judge a measurement: the nine-clause report and four check records.

    The clauses use :data:`BC_TOL`, Ricci must exceed 0, the
    :data:`MC_VARIANT` margin must reach -mc_margin_tol and the gluing forms
    use ``COEFF_TOL``; the search and the certificate judge with these same
    values.
    """
    bc = check_bc(m.jets, m.left, m.right, m.eps_b2)
    margin = m.margin_min(MC_VARIANT)
    glue = interface_checks(m.jets, m.left, m.right, m.p, m.q)
    checks = [
        check_record("bc_nine_clauses", bc.passed,
               max(abs(c["residual"]) for c in bc.clauses.values() if not c["one_sided"]),
               BC_TOL, ",".join(bc.failures) or "all clauses hold"),
        check_record("boundary_ricci_positive", m.ricci_min > 0.0, m.ricci_min, 0.0),
        check_record("neck_mc_margin", margin >= -mc_margin_tol, margin,
               -mc_margin_tol, f"variant={MC_VARIANT}"),
        check_record("glue_interfaces", glue, glue, True),
    ]
    return bc, checks


# ---------------------------------------------------------------------------
# Oracle checks of an accepted step
# ---------------------------------------------------------------------------


def bulk_scalar_samples(pair: ProfilePair, p: int, q: int) -> list:
    """Oracle scalar curvature at BULK_SAMPLES points of the neck bulk: one
    outcome per point, the scalar or the oracle's named error.

    The points sit at evenly spaced samples of the 1024-point boundary curve
    where the phase gap D is at least BULK_D_MIN, the first and last two
    left out, at half the curve's height s = F/2 (at least 3e-4 bN) and
    every angle pi/2 + 0.1.
    """
    curve = build_curve(pair, pair.right.beta, pair.right.N, grid_n=1024)
    keep = np.flatnonzero(curve.D >= BULK_D_MIN)
    if keep.size == 0:
        raise ValueError("no well-conditioned samples on this profile")
    idx = keep[np.unique(np.linspace(2, keep.size - 3, BULK_SAMPLES).astype(int))]
    patch = bulk_patch(pair, p, q)
    points = np.full((idx.size, patch.dim), math.pi / 2 + 0.1)
    points[:, 0] = curve.t[idx]
    points[:, 1] = np.maximum(0.5 * curve.F[idx], 3e-4 * pair.right.bN)
    return [rep.scalar if isinstance(rep, CurvatureReport) else rep
            for rep in numeric_curvature(patch, points)]


def taper_check(p: int, q: int, lam: float, r: float, eps_end: float) -> float | ValueError:
    """Least oracle mean curvature of the taper-region boundary at the
    accepted scales, or the named error that left it unmeasured.

    The oracle samples the boundary s = eps r / sin(eps) five times over the
    taper eps: pi/2 -> eps_end on [-1, 0], with collar warp 1 + lam t.  An
    end angle outside (0, pi/2) returns a ``ProfileError`` naming eps_b2; a
    point the oracle cannot evaluate returns the oracle's named error.
    """
    if not 0.0 < eps_end < math.pi / 2:
        return ProfileError(f"eps_b2 = {eps_end!r} lies outside (0, pi/2)")

    def collar(tt):
        return 1.0 + lam * tt, np.full(tt.shape, lam), np.zeros(tt.shape)

    try:
        zrep = z2_mean_curvature(EpsilonProfile(a2=-1.0, b2=0.0, eps_end=eps_end),
                                 collar, r=r, p=p, q=q)
    except (OracleDomainError, NonSPDMetricError) as exc:
        return exc
    return float(np.min(zrep.mean_curvature))


# ---------------------------------------------------------------------------
# Parameter search
# ---------------------------------------------------------------------------


@dataclass
class SearchResult:
    left: LeftParams
    right: RightParams
    pair: ProfilePair
    measurement: ProfileMeasurement
    bc: BcReport
    checks: list   # sample_verdict's four records, judged with the search's tolerance
    diagnostics: dict


def search_parameters(p: int, q: int, R_over_N: float, lam: float, *,
                      mc_margin_tol: float, grid_n: int) -> SearchResult:
    """Scan the (C, t1, s0) candidates for an admissible neck profile.

    The handoff slope s0 fixes the fiber scale b = s0/fC'(t1), and the end
    scale is sized from the margin tolerance, beta N = max(1.2/max(mc_margin_tol,
    MC_TOL_FLOOR), 50 f(t1)); so the worst margin over the tolerance sits near
    -0.28 for any tolerance down to 1e-12, and is not shown nonnegative.
    The result depends on (p, q, R/N, lam, mc_margin_tol, grid_n) only: the
    collar-ball bound kappa of a vertex is a check of the certificate
    (``collar_ball_bound``), not an input of the search.
    Candidates run C over two curvature values, t1 over :data:`SEARCH_T1`
    and s0 over four join slopes, in that nesting.  Each goes through the
    gates below in order and is dropped at the first it fails:

    * ``s0_window``: cos(R/N) + delta < s0 < 1, delta = 0.02 (1 - cos(R/N));
    * ``fiber_scale``: b is finite, which fails where fC'(t1) underflows to 0
      (lambda near 1e-200 and below);
    * ``fiber_ricci``: fiber Ricci at the neck start, b^2 C lam^2 <= 0.85 (p-2);
    * ``neck_start_margin``: b^2 C lam^2 <= 0.8 (p-1);
    * ``join_convexity``: the left piece's convexity at t1 inside the
      stabilizing fiber budget (p-1) D^2 / f;
    * ``collar_cap``: the collar end rho = h(t1)(1 + THETA_RISE)/beta below
      0.9 sin(R/N) h(t1)/f(t1);
    * ``runout``: a concave run-out exists through the join state.

    The run-out the last gate solves is the one the profile is built from,
    so each candidate that passes the six cheap gates solves one run-out.
    A candidate that passes them all is built and measured once on the full
    check grid (:func:`measure_profile`), and accepted when
    :func:`sample_verdict` passes all four records: the nine interface
    clauses, boundary Ricci > 0, the :data:`MC_VARIANT` mean-curvature margin
    >= -mc_margin_tol and both gluing checks.  Otherwise the build error
    (``build``) or the first failed check id rejects it and the scan goes on.

    ``diagnostics`` holds ``evaluations`` (candidates built and measured)
    and ``rejected``, one (C, t1, s0, gate) per dropped candidate.  Raises
    :class:`InfeasibleProfileError` with both, and the rejections counted
    by gate, when no candidate is accepted.
    """
    if p < 3 or q < 3:
        raise ProfileError(f"need p, q >= 3, got p={p}, q={q}")
    if not (0.0 < R_over_N < math.pi / 2):
        raise ProfileError(f"need R/N in (0, pi/2), got {R_over_N}")
    cosX, sinX = math.cos(R_over_N), math.sin(R_over_N)
    delta = 0.02 * (1.0 - cosX)
    bN_floor = BN_TOL / max(mc_margin_tol, MC_TOL_FLOOR)
    rejected = []
    evals = 0

    for C in (min(0.95, 0.95 * (q - 1) / (p - 1)), min(0.8, 0.8 * (q - 1) / (p - 1))):
        warp = integrate_fC(C, lam)
        for t1 in SEARCH_T1:
            w = warp.jets(t1)
            h0_t1, fc_t1, fc1_t1 = float(w.h0), float(w.fc), float(w.fc_d1)
            hl1 = SEARCH_A * h0_t1
            for s0 in (0.78, 0.75, 0.72, cosX + 1.1 * delta):
                b = s0 / fc1_t1 if fc1_t1 > 0.0 else math.inf
                v0 = b * fc_t1
                bN = max(bN_floor, 50.0 * v0)
                rho = hl1 * (1.0 + THETA_RISE) / bN
                D_t1 = 1.0 - s0 * s0
                gates = (
                    ("s0_window", cosX + delta < s0 < 1.0),
                    ("fiber_scale", math.isfinite(b)),
                    ("fiber_ricci", b * b * C * lam * lam <= 0.85 * (p - 2)),
                    ("neck_start_margin", b * b * C * lam * lam <= 0.8 * (p - 1)),
                    ("join_convexity", v0 * v0 * C * math.exp(-h0_t1 * h0_t1)
                     <= 0.5 * (p - 1) * D_t1 * D_t1),
                    ("collar_cap", rho < 0.9 * sinX * hl1 / v0),
                )
                gate = next((name for name, ok in gates if not ok), None)
                if gate is None:
                    try:
                        run = solve_runout(v0, s0, bN, R_over_N)
                    except (ProfileError, ValueError):
                        gate = "runout"
                if gate is None:
                    evals += 1
                    try:
                        left_params = LeftParams(lam=lam, a=SEARCH_A, C=C,
                                                 r=b / (SEARCH_A * warp.s0))
                        right_params = RightParams(t1=t1, b3=t1 + run.length, beta=bN,
                                                   rho=rho, N=1.0, R=R_over_N)
                        lp = build_left_profile(left_params)
                        left_t1 = lp(t1)
                        rp = build_right_profile(left_t1, right_params, run)
                        pair = assemble_profile(left_params, right_params, lp, rp, left_t1)
                    except (ProfileError, ValueError):
                        gate = "build"
                if gate is None:
                    m = measure_profile(pair.jets(pair.grid(grid_n)), left_params,
                                        right_params, pair.eps_b2, p, q)
                    bc, checks = sample_verdict(m, mc_margin_tol)
                    gate = next((c["id"] for c in checks if not c["passed"]), None)
                    if gate is None:
                        return SearchResult(
                            left=left_params, right=right_params, pair=pair,
                            measurement=m, bc=bc, checks=checks,
                            diagnostics={"evaluations": evals, "rejected": rejected})
                rejected.append((C, t1, s0, gate))
    counts = Counter(gate for *_, gate in rejected)
    raise InfeasibleProfileError(
        f"no admissible profile: {len(rejected)} candidates rejected "
        f"({evals} evaluated); by gate: "
        + ", ".join(f"{gate} {n}" for gate, n in counts.items()),
        {"evaluations": evals, "rejected": rejected})
