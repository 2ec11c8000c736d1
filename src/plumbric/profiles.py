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

The search's inputs are (p, q, R/N, lambda), the margin tolerance and the
check grid.  The left piece depends on (lambda, C, t) alone.  Each
candidate's run-out is solved once, at the search's own join state, and the
right piece is built from it.  A vertex's collar-ball bound kappa enters no
search: the certificate checks rho < 0.99 kappa.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import brentq

from .meancurv import MC_VARIANTS, interface_checks, neck_margins
from .steps import smooth_step, smooth_step_d1, smoothstep7
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
    "PartialProfile",
    "ProfilePair",
    "build_left_profile",
    "build_right_profile",
    "assemble_profile",
    "PROFILE_COLUMNS",
    "CSV_BLOCK_ROWS",
    "csv_blocks",
    "BcReport",
    "check_bc",
    "ProfileMeasurement",
    "measure_profile",
    "sample_verdict",
    "SearchResult",
    "search_parameters",
]

A3 = 0.0  # the left end of the neck interval; only differences of t matter

BC_TOL = 1e-8        # the nine interface clauses
MC_TOL_FLOOR = 1e-12  # least margin tolerance the beta N sizing follows
MC_VARIANT = "reported"  # the margin variant the certificate claims

PROFILE_COLUMNS = ("t", "f", "f1", "f2", "h", "h1", "h2")  # the profile CSV's columns
CSV_BLOCK_ROWS = 4096  # rows formatted per block by csv_blocks

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
        self._last = None

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
        """h0, fC and their first two derivatives at t, kept for the last t:
        a profile's six jets read the same points."""
        t = np.asarray(t, dtype=float)
        if self._last is None or not np.array_equal(self._last[0], t):
            if not np.all((t >= A3) & np.isfinite(t)):
                raise ProfileError(f"the left piece is defined on finite t >= {A3}")
            u = self._solve_u(t.ravel())
            e = self.lam * np.exp(-u * (self.s0 + 0.5 * u))  # h0' = exp(-h0^2/2)
            h0, fc = self.s0 + u, 1.0 + self.C * self._sum("fc", u)
            jets = np.stack((h0, e, -h0 * e * e, fc, e * (self.C * self._sum("fc_du", u)),
                             self.C * e * e * fc)).reshape((6,) + t.shape)
            jets.flags.writeable = False  # every caller of this t shares the arrays
            self._last = (t.copy(), WarpJets(*jets))
        return self._last[1]


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

    def eps(self, t):
        x = (np.asarray(t, dtype=float) - self.tau1) / (self.tau2 - self.tau1)
        return math.pi / 2 + (self.eps_end - math.pi / 2) * smoothstep7(x)


# ---------------------------------------------------------------------------
# Pieces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartialProfile:
    """Vectorized jets of one profile piece."""

    f: Callable
    f1: Callable
    f2: Callable
    h: Callable
    h1: Callable
    h2: Callable


def build_left_profile(params: LeftParams) -> PartialProfile:
    """Left piece h_l = a*h0, f_l = b*fC on [a3, t1], from the warp series of
    (params.lam, params.C).

    The a3 interface clauses hold by scaling; :func:`check_bc` verifies them
    on the assembled profile.
    """
    warp = integrate_fC(params.C, params.lam)
    a, b = params.a, params.b
    return PartialProfile(
        f=lambda t: b * warp.jets(t).fc, f1=lambda t: b * warp.jets(t).fc_d1,
        f2=lambda t: b * warp.jets(t).fc_d2, h=lambda t: a * warp.jets(t).h0,
        h1=lambda t: a * warp.jets(t).h0_d1, h2=lambda t: a * warp.jets(t).h0_d2)


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


@functools.cache
def _collar_decay() -> float:
    """The decay c for which Theta_c has mean COLLAR_MEAN on COLLAR_NODES.

    It depends on nothing else, so it is solved once per process, on first use.
    """
    return brentq(lambda c: float(np.trapezoid(_theta_family(COLLAR_NODES, c), COLLAR_NODES))
                  - COLLAR_MEAN, 0.0, 400.0, xtol=1e-13)


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
        from scipy.integrate import cumulative_simpson

        fs = np.linspace(v0, self.f_end, 65537)
        inv = 1.0 / self.sigma(fs)
        cum = np.concatenate([[0.0], cumulative_simpson(inv, x=fs)])
        self.length = float(cum[-1])
        u_nodes = self.length - cum
        self._f_of_u = CubicHermiteSpline(u_nodes[::-1], fs[::-1],
                                          -self.sigma(fs[::-1]))

    def E(self, f):
        return 1.0 - (np.asarray(f, dtype=float) / self.bN) ** 2

    def sigma(self, f):
        return self.scale * self.E(f) ** self.kappa

    def sigma_df(self, f):
        f = np.asarray(f, dtype=float)
        return -2.0 * self.kappa * self.sigma(f) * f / (self.E(f) * self.bN ** 2)

    def f_of_u(self, u):
        """Fiber radius at distance u before the far end (u = b3 - t)."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return self._f_of_u(u)


def solve_runout(v0: float, s0: float, bN: float, X_R: float) -> Runout:
    return Runout(v0, s0, bN, X_R)


def build_right_profile(left: PartialProfile, params: RightParams, run: Runout
                        ) -> PartialProfile:
    """Right piece on [t1, b3]: the fiber radius follows ``run``, the collar
    radius rises concavely and then plateaus.

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
    hl1 = float(left.h(t1))
    hs1 = float(left.h1(t1))
    if abs(run.length - L) > 1e-6 * max(1.0, L):
        raise InfeasibleProfileError(
            f"b3 - t1 = {L} inconsistent with the run-out length {run.length}",
            {"expected_length": run.length, "kappa": run.kappa})

    def f(t):
        # u = b3 - t, clamped to the run-out: b3 - t1 may round past its length
        t = np.asarray(t, dtype=float)
        return run.f_of_u(np.clip(b3 - t, 0.0, run.length)).reshape(t.shape)

    def f1(t):
        return run.sigma(f(t))

    def f2(t):
        fv = f(t)
        return run.sigma_df(fv) * run.sigma(fv)

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
    c_h = _collar_decay()

    t_nodes = t1 + span * COLLAR_NODES
    sig_nodes = hs1 * _theta_family(COLLAR_NODES, c_h)
    cum = np.concatenate([[0.0], np.cumsum((sig_nodes[1:] + sig_nodes[:-1]) * 0.5
                                           * np.diff(t_nodes))])
    cum *= rise / cum[-1]  # absorb the quadrature defect: h(t_h) = beta*rho exactly
    h_spline = CubicHermiteSpline(t_nodes, hl1 + cum, sig_nodes)
    h_end = params.beta * params.rho

    def _collar(t, rise_fn, plateau):
        # rise_fn on the rise t < t_h, the constant plateau from t_h on
        t = np.asarray(t, dtype=float)
        mid = t < t_h
        out = np.full(t.shape, plateau)
        out[mid] = rise_fn(t[mid])
        return out

    def h(t):
        return _collar(t, h_spline, h_end)

    def h1(t):
        return _collar(t, lambda tm: hs1 * _theta_family((tm - t1) / span, c_h), 0.0)

    def h2(t):
        return _collar(t, lambda tm: hs1 * _theta_family_d1((tm - t1) / span, c_h) / span,
                       0.0)

    return PartialProfile(f=f, f1=f1, f2=f2, h=h, h1=h1, h2=h2)


# ---------------------------------------------------------------------------
# Assembled profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfilePair:
    """Complete (f, h) profile on [a3, b3]: two pieces joined C^1 at t1.

    The left piece serves t < t1 and the right piece t >= t1; ``grid``
    samples them on the uniform check grid.
    """

    left: LeftParams
    right: RightParams
    left_piece: PartialProfile
    right_piece: PartialProfile
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

    def _dispatch(self, t, attr):
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape)
        right = t >= self.t1
        for piece, m in ((self.left_piece, ~right), (self.right_piece, right)):
            if np.any(m):
                out[m] = getattr(piece, attr)(t[m])
        return out

    def f(self, t):
        return self._dispatch(t, "f")

    def f1(self, t):
        return self._dispatch(t, "f1")

    def f2(self, t):
        return self._dispatch(t, "f2")

    def h(self, t):
        return self._dispatch(t, "h")

    def h1(self, t):
        return self._dispatch(t, "h1")

    def h2(self, t):
        return self._dispatch(t, "h2")

    def grid(self, n: int) -> np.ndarray:
        """Uniform n-point grid whose first and last samples are a3 and b3."""
        return np.linspace(self.a3, self.b3, n)

    def jets(self, t) -> WarpedJet:
        return WarpedJet(t=t, f=self.f(t), f1=self.f1(t), f2=self.f2(t),
                         h=self.h(t), h1=self.h1(t), h2=self.h2(t))

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


def assemble_profile(left_params: LeftParams, right_params: RightParams,
                     left: PartialProfile, right: PartialProfile) -> ProfilePair:
    """Join the raw pieces into the C^1 profile, checking the jets agree at t1."""
    t1 = right_params.t1
    scale = max(1.0, right_params.bN * 1e-10)
    gap_f = abs(float(left.f(t1)) - float(right.f(t1)))
    gap_f1 = abs(float(left.f1(t1)) - float(right.f1(t1)))
    gap_h = abs(float(left.h(t1)) - float(right.h(t1)))
    gap_h1 = abs(float(left.h1(t1)) - float(right.h1(t1)))
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
                        rp = build_right_profile(lp, right_params, run)
                        pair = assemble_profile(left_params, right_params, lp, rp)
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
