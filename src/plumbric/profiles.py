"""Warping-profile construction for the neck region of a plumbing.

The boundary metric over the neck is ``dt^2 + h^2 ds_{q-1}^2 + f^2 ds_{p-1}^2``
on [a3, b3] (a3 is normalized to 0).  The profile is built from two pieces:

* Left piece on [a3, t1]: ``h_l = a*h0`` and ``f_l = b*fC`` where h0 and fC
  solve the initial value problems

      h0' = exp(-h0^2/2),         h0(a3) = sqrt(-2 ln lam),
      fC'' = C exp(-h0^2) fC,     fC(a3) = 1, fC'(a3) = 0.

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
margin by max(f'^2 f)/(beta N)^2 <= s0^2 sin(R/N)/(beta N): end scales
beta*N ~ 1e9 therefore pin the worst margin above -1e-9.  The join at t1 is
C^1 by solving the fiber scale from the slope target (b = s0/fC'(t1));
``smooth_c1_join`` provides windowed smoothing of the residual curvature
kinks at t1 and a3, bit-identical outside the declared windows.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import brentq

from .caps import COEFF_TOL
from .meancurv import MC_VARIANTS, interface_checks, neck_margins
from .steps import (bump_exp, smooth_step, smooth_step_d1, smoothstep7,
                    smoothstep7_d1)
from .warped import WarpedJet, doubly_warped_ricci

__all__ = [
    "A3",
    "ProfileError",
    "InfeasibleProfileError",
    "BoundaryConditionError",
    "WarpOde",
    "integrate_h0",
    "integrate_fC",
    "LeftParams",
    "RightParams",
    "EpsilonProfile",
    "PartialProfile",
    "ProfilePair",
    "build_left_profile",
    "build_right_profile",
    "assemble_profile",
    "smooth_c1_join",
    "jets_csv",
    "BcReport",
    "check_bc",
    "ProfileMeasurement",
    "measure_profile",
    "sample_verdict",
    "SearchResult",
    "search_parameters",
]

A3 = 0.0  # the left end of the neck interval; only differences of t matter

BC_TOL = 1e-8


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
# Profile ODEs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WarpOde:
    """Dense solutions of the warping ODEs for one (lam, C) pair.

    Exposes vectorized jet evaluations; first/second derivatives use the
    defining relations, so self-consistency checks must difference the dense
    values instead.
    """

    lam: float
    C: float
    t_end: float
    _sol: object

    def h0(self, t):
        return self._sol(np.atleast_1d(np.asarray(t, dtype=float)))[0].reshape(np.shape(t))

    def h0_d1(self, t):
        return np.exp(-0.5 * self.h0(t) ** 2)

    def h0_d2(self, t):
        h = self.h0(t)
        return -h * np.exp(-h ** 2)

    def fc(self, t):
        return self._sol(np.atleast_1d(np.asarray(t, dtype=float)))[1].reshape(np.shape(t))

    def fc_d1(self, t):
        return self._sol(np.atleast_1d(np.asarray(t, dtype=float)))[2].reshape(np.shape(t))

    def fc_d2(self, t):
        return self.C * np.exp(-self.h0(t) ** 2) * self.fc(t)

    def extended(self, t_end: float) -> "WarpOde":
        if t_end <= self.t_end:
            return self
        return _integrate(self.lam, self.C, t_end)


def _integrate(lam: float, C: float, t_end: float, rtol: float = 1e-10) -> WarpOde:
    if not (0.0 < lam < 0.5):
        raise ProfileError(f"slope parameter must lie in (0, 1/2), got {lam}")
    if not (0.0 <= C < 1.0):
        raise ProfileError(f"curvature parameter must lie in [0, 1), got {C}")
    if not (t_end > A3):
        raise ProfileError(f"integration horizon must exceed {A3}, got {t_end}")
    h0_init = math.sqrt(-2.0 * math.log(lam))

    def rhs(_t, y):
        h0, fc, fc1 = y
        e = math.exp(-0.5 * h0 * h0)
        return [e, fc1, C * e * e * fc]

    sol = solve_ivp(rhs, (A3, t_end), [h0_init, 1.0, 0.0], method="RK45",
                    rtol=rtol, atol=1e-13, dense_output=True)
    if not sol.success:
        raise ProfileError(f"profile ODE integration failed: {sol.message}")
    return WarpOde(lam=lam, C=C, t_end=t_end, _sol=sol.sol)


def integrate_h0(lam: float, t_end: float, rtol: float = 1e-10) -> WarpOde:
    """Solve h0' = exp(-h0^2/2) with h0(a3) = sqrt(-2 ln lam)."""
    ode = _integrate(lam, 0.0, t_end, rtol)
    assert abs(float(ode.h0(A3)) - math.sqrt(-2 * math.log(lam))) < 1e-12
    assert abs(float(ode.h0_d1(A3)) - lam) < 1e-10
    return ode


def integrate_fC(C: float, lam: float, t_end: float, rtol: float = 1e-10) -> WarpOde:
    """Solve fC'' = C exp(-h0^2) fC jointly with the h0 equation."""
    if not (0.0 < C < 1.0):
        raise ProfileError(f"curvature parameter must lie in (0, 1), got {C}")
    ode = _integrate(C=C, lam=lam, t_end=t_end, rtol=rtol)
    assert abs(float(ode.fc(A3)) - 1.0) < 1e-12
    assert abs(float(ode.fc_d1(A3))) < 1e-12
    return ode


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

    @classmethod
    def from_b(cls, lam: float, a: float, C: float, b: float) -> "LeftParams":
        """Build with the fiber scale ``b`` given directly (r = b/alpha)."""
        alpha = a * math.sqrt(-2.0 * math.log(lam))
        return cls(lam=lam, a=a, C=C, r=b / alpha)


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

    def eps_d1(self, t):
        x = (np.asarray(t, dtype=float) - self.tau1) / (self.tau2 - self.tau1)
        return (self.eps_end - math.pi / 2) * smoothstep7_d1(x) / (self.tau2 - self.tau1)


# ---------------------------------------------------------------------------
# Pieces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartialProfile:
    """Vectorized jets of one profile piece on [t_lo, t_hi]."""

    t_lo: float
    t_hi: float
    f: Callable
    f1: Callable
    f2: Callable
    h: Callable
    h1: Callable
    h2: Callable


def build_left_profile(params: LeftParams, t1: float, ode: WarpOde | None = None
                       ) -> PartialProfile:
    """Left piece h_l = a*h0, f_l = b*fC on [a3, t1].

    The a3 interface clauses hold by scaling; :func:`check_bc` verifies them
    on the assembled profile.
    """
    if ode is None:
        ode = integrate_fC(params.C, params.lam, t_end=max(1.2 * t1, t1 + 10.0))
    elif ode.t_end < t1:
        ode = ode.extended(1.2 * t1)
    if abs(ode.lam - params.lam) > 1e-12 or abs(ode.C - params.C) > 1e-12:
        raise ProfileError("ODE solution does not match the requested (lambda, C)")
    a, b = params.a, params.b
    return PartialProfile(
        t_lo=params.a3, t_hi=t1,
        f=lambda t: b * ode.fc(t), f1=lambda t: b * ode.fc_d1(t), f2=lambda t: b * ode.fc_d2(t),
        h=lambda t: a * ode.h0(t), h1=lambda t: a * ode.h0_d1(t), h2=lambda t: a * ode.h0_d2(t),
    )


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
    # x <= 0 continues with the initial decay rate so window blends stay sane
    out[x <= 0.0] = -c
    return out


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
        self.v0_reached = v0

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


def build_right_profile(left: PartialProfile, params: RightParams,
                        plateau_frac_cap: float = 0.5) -> PartialProfile:
    """Right piece on [t1, b3]: concave slope run-out for the fiber radius,
    short concave rise then plateau for the collar radius.

    The fiber profile is the :class:`Runout` through the end state
    (beta N sin(R/N), cos(R/N)) at b3 whose exponent is fixed by the left
    piece's join state; the end jets hold to machine precision and the phase
    gap D = 1 - (f/(beta N))^2 - f'^2 stays nonnegative along the whole
    family.  ``params.b3`` must equal the length the run-out needs (the
    search computes it from :func:`solve_runout`).

    The collar radius rises to beta*rho over an initial window and is
    constant afterwards, so h(b3) = beta*rho and h'(b3) = 0 hold exactly
    (callers pick rho slightly above h(t1)/beta).
    """
    t1, b3, bN, X_R = params.t1, params.b3, params.bN, params.angle
    L = b3 - t1
    v0 = float(left.f(t1))
    s0 = float(left.f1(t1))
    hl1 = float(left.h(t1))
    hs1 = float(left.h1(t1))
    cosX, sinX = math.cos(X_R), math.sin(X_R)

    if not (cosX < s0 < 1.0):
        raise InfeasibleProfileError(
            f"slope window empty: f'(t1)={s0} not in (cos(R/N), 1)=({cosX}, 1)",
            {"s0": s0})
    if not (v0 < bN * sinX):
        raise InfeasibleProfileError(
            f"fiber radius too large: f(t1)={v0} >= beta*N*sin(R/N)={bN * sinX}")
    if not (params.beta > hl1 / params.rho):
        raise InfeasibleProfileError(
            f"beta={params.beta} too small: need beta > h(t1)/rho = {hl1 / params.rho}")

    run = solve_runout(v0, s0, bN, X_R)
    if abs(run.length - L) > 1e-6 * max(1.0, L):
        raise InfeasibleProfileError(
            f"b3 - t1 = {L} inconsistent with the run-out length {run.length}",
            {"expected_length": run.length, "kappa": run.kappa})
    fv0 = float(run.f_of_u(run.length)[0])   # radius at t1 per the dense solution
    fs0 = float(run.sigma(fv0))
    fdd0 = float(run.sigma_df(fv0) * fs0)

    def _eval(t, comp):
        t = np.asarray(t, dtype=float)
        u = b3 - t
        out = np.empty(t.shape)
        inside = u <= run.length
        if np.any(inside):
            fv = run.f_of_u(np.clip(u[inside], 0.0, run.length))
            sg = run.sigma(fv)
            vals = (fv, sg, run.sigma_df(fv) * sg)
            out[inside] = vals[comp]
        if np.any(~inside):
            dt = t[~inside] - t1  # negative: 2-jet continuation for window blends
            ext = (fv0 + fs0 * dt + 0.5 * fdd0 * dt * dt,
                   fs0 + fdd0 * dt,
                   np.full(dt.shape, fdd0))
            out[~inside] = ext[comp]
        return out

    def f(t):
        return _eval(t, 0)

    def f1(t):
        return _eval(t, 1)

    def f2(t):
        return _eval(t, 2)

    # ---- collar radius: short concave rise, then plateau --------------------
    rise = params.beta * params.rho - hl1
    if rise <= 0:
        raise InfeasibleProfileError(
            f"need beta*rho > h(t1): beta*rho={params.beta * params.rho}, h(t1)={hl1}")
    j_target = 0.35
    span = rise / (hs1 * j_target)
    if span > plateau_frac_cap * L:
        raise InfeasibleProfileError(
            f"collar rise needs span {span:.3e} > {plateau_frac_cap} L; "
            "reduce rho", {"span": span})
    t_h = t1 + span
    xs_h = np.linspace(0.0, 1.0, 4097)

    def mean_theta(c):
        return float(np.trapezoid(_theta_family(xs_h, c), xs_h))

    lo, hi = mean_theta(400.0), mean_theta(0.0)
    if not (lo < j_target < hi):
        raise InfeasibleProfileError(
            f"collar decay target {j_target} outside ({lo}, {hi})")
    c_h = brentq(lambda c: mean_theta(c) - j_target, 0.0, 400.0, xtol=1e-13)

    t_nodes = t1 + span * xs_h
    sig_nodes = hs1 * _theta_family(xs_h, c_h)
    cum = np.concatenate([[0.0], np.cumsum((sig_nodes[1:] + sig_nodes[:-1]) * 0.5
                                           * np.diff(t_nodes))])
    cum *= rise / cum[-1]  # absorb the quadrature defect: h(t_h) = beta*rho exactly
    h_spline = CubicHermiteSpline(t_nodes, hl1 + cum, sig_nodes)
    h_end = params.beta * params.rho
    hdd1 = hs1 * float(_theta_family_d1(np.array([0.0]), c_h)[0]) / span

    def _h_zones(t):
        t = np.asarray(t, dtype=float)
        below = t < t1          # 2-jet continuation used only by window blends
        above = t >= t_h
        mid = ~(below | above)
        return t, below, mid, above

    def h(t):
        t, below, mid, above = _h_zones(t)
        out = np.empty_like(t)
        dt = t[below] - t1
        out[below] = hl1 + hs1 * dt + 0.5 * hdd1 * dt * dt
        out[mid] = h_spline(t[mid])
        out[above] = h_end
        return out

    def h1(t):
        t, below, mid, above = _h_zones(t)
        out = np.empty_like(t)
        out[below] = hs1 + hdd1 * (t[below] - t1)
        out[mid] = hs1 * _theta_family((t[mid] - t1) / span, c_h)
        out[above] = 0.0
        return out

    def h2(t):
        t, below, mid, above = _h_zones(t)
        out = np.empty_like(t)
        out[below] = hdd1
        out[mid] = hs1 * _theta_family_d1((t[mid] - t1) / span, c_h) / span
        out[above] = 0.0
        return out

    return PartialProfile(t_lo=t1, t_hi=b3, f=f, f1=f1, f2=f2, h=h, h1=h1, h2=h2)


# ---------------------------------------------------------------------------
# Assembled profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfilePair:
    """Complete (f, h) profile on [a3, b3] with markers and provenance.

    The jets are piecewise callables; ``grid`` samples them on the standard
    check grid (uniform plus refinement inside the smoothing windows).
    """

    left: LeftParams
    right: RightParams
    pieces: tuple          # ordered PartialProfile segments covering [a3, b3]
    boundaries: tuple      # segment boundaries (len(pieces)+1 floats)
    windows: tuple = ()    # smoothing windows as (center, half_width)
    eps_b2: float = float("nan")

    @property
    def a3(self) -> float:
        return self.boundaries[0]

    @property
    def t1(self) -> float:
        return self.right.t1

    @property
    def b3(self) -> float:
        return self.boundaries[-1]

    def _dispatch(self, t, attr):
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape)
        edges = self.boundaries
        for i, piece in enumerate(self.pieces):
            lo = edges[i]
            hi = edges[i + 1]
            m = (t >= lo) & (t <= hi) if i == len(self.pieces) - 1 else (t >= lo) & (t < hi)
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

    def grid(self, n: int = 2048, refine: int = 10) -> np.ndarray:
        """Uniform n-point grid on [a3, b3] plus refined smoothing windows."""
        ts = [np.linspace(self.a3, self.b3, n)]
        base = (self.b3 - self.a3) / (n - 1)
        for center, w in self.windows:
            lo = max(self.a3, center - w)
            hi = min(self.b3, center + w)
            m = max(8, min(20480, int(np.ceil((hi - lo) / base * refine))))
            ts.append(np.linspace(lo, hi, m))
        t = np.unique(np.concatenate(ts))
        return t

    def jets(self, t) -> WarpedJet:
        return WarpedJet(t=t, f=self.f(t), f1=self.f1(t), f2=self.f2(t),
                         h=self.h(t), h1=self.h1(t), h2=self.h2(t))

    # -- serialization ------------------------------------------------------

    def to_csv(self, n: int = 2048) -> str:
        return jets_csv(self.jets(self.grid(n)))

    def params_json(self) -> str:
        doc = {
            "schema": "plumbric-profile-params/1",
            "left": {"lambda": self.left.lam, "a": self.left.a, "C": self.left.C,
                     "r": self.left.r, "a3": self.left.a3,
                     "alpha": self.left.alpha, "b": self.left.b},
            "right": {"t1": self.right.t1, "b3": self.right.b3, "beta": self.right.beta,
                      "rho": self.right.rho, "N": self.right.N, "R": self.right.R},
            "markers": {"a3": self.a3, "t1": self.t1, "b3": self.b3,
                        "windows": [list(w) for w in self.windows]},
            "eps_b2": self.eps_b2,
        }
        return json.dumps(doc, sort_keys=True, indent=1)


def jets_csv(jets: WarpedJet) -> str:
    """Profile CSV: one row per sample, columns t, f, f1, f2, h, h1, h2."""
    cols = np.column_stack([jets.t, jets.f, jets.f1, jets.f2, jets.h, jets.h1, jets.h2])
    buf = io.StringIO()
    buf.write("t,f,f1,f2,h,h1,h2\n")
    np.savetxt(buf, cols, delimiter=",", fmt="%.17g")
    return buf.getvalue()


def _blend_piece(left_piece: PartialProfile, right_piece: PartialProfile,
                 center: float, w: float, nodes: int = 2049) -> PartialProfile:
    """Windowed smoothing across ``center`` on [center-w, center+w].

    The second derivative is blended pointwise between the two pieces, so it
    stays within their extremes over the window, then integrated up from the
    left edge.  Two interior bump corrections to the blend weight are solved
    (a 2x2 linear system) so that the integral reproduces the right piece's
    value and slope at the right edge; the weight stays flat at both edges,
    hence the result continues each adjacent piece smoothly.
    """
    lo = center - w
    hi = center + w
    ts = np.linspace(lo, hi, nodes)
    xs = (ts - lo) / (2.0 * w)
    s_nodes = smooth_step(xs)
    bump1 = bump_exp(2.0 * xs) * bump_exp(2.0 * (0.7 - xs))       # support (0, 0.7)
    bump2 = bump_exp(2.0 * (xs - 0.3)) * bump_exp(2.0 * (1 - xs))  # support (0.3, 1)

    def cumtrap(y):
        return np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(ts))])

    def make(attr_v, attr_d1, attr_d2):
        fl, fl1, fl2 = (getattr(left_piece, a) for a in (attr_v, attr_d1, attr_d2))
        fr, fr1, fr2 = (getattr(right_piece, a) for a in (attr_v, attr_d1, attr_d2))
        l2, r2 = fl2(ts), fr2(ts)
        delta2 = r2 - l2
        # Blend weight S + c1 b1 + c2 b2: the two coefficients are solved so
        # that integrating the blended second derivative from the left edge
        # reproduces the right piece's value and slope at the right edge,
        # keeping the weight's edge flatness (bumps vanish to all orders).
        slope_target = float(np.asarray(fr1(hi))) - float(np.asarray(fl1(lo)))
        value_target = (float(np.asarray(fr(hi))) - float(np.asarray(fl(lo)))
                        - float(np.asarray(fl1(lo))) * (hi - lo))
        base = s_nodes * delta2 + l2
        wgt = hi - ts

        def integrals(y):
            return (np.trapezoid(y, ts), np.trapezoid(wgt * y, ts))

        b1_slope, b1_val = integrals(bump1 * delta2)
        b2_slope, b2_val = integrals(bump2 * delta2)
        base_slope, base_val = integrals(base)
        M = np.array([[b1_slope, b2_slope], [b1_val, b2_val]])
        rhs = np.array([slope_target - base_slope, value_target - base_val])
        c, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        weight = np.clip(s_nodes + c[0] * bump1 + c[1] * bump2, 0.0, 1.0)
        beta = weight * delta2 + l2
        sigma = float(np.asarray(fl1(lo))) + cumtrap(beta)
        sigma_sp = CubicHermiteSpline(ts, sigma, beta)
        F_nodes = float(np.asarray(fl(lo))) + cumtrap(sigma)
        F_sp = CubicHermiteSpline(ts, F_nodes, sigma)

        def val(t):
            return F_sp(np.asarray(t, dtype=float))

        def d1(t):
            return sigma_sp(np.asarray(t, dtype=float))

        def d2(t):
            return sigma_sp(np.asarray(t, dtype=float), 1)

        return val, d1, d2

    f, f1, f2 = make("f", "f1", "f2")
    h, h1, h2 = make("h", "h1", "h2")
    return PartialProfile(t_lo=lo, t_hi=center + w,
                          f=f, f1=f1, f2=f2, h=h, h1=h1, h2=h2)


def _a3_extension(left: LeftParams) -> PartialProfile:
    """Collar-side continuation at a3: constant fiber radius, linear collar."""
    alpha, lam, b = left.alpha, left.lam, left.b

    def const(v):
        return lambda t: np.full(np.shape(np.asarray(t, dtype=float)), v, dtype=float)

    return PartialProfile(
        t_lo=-np.inf, t_hi=left.a3,
        f=const(b), f1=const(0.0), f2=const(0.0),
        h=lambda t: alpha + lam * (np.asarray(t, dtype=float) - left.a3),
        h1=const(lam), h2=const(0.0),
    )


def assemble_profile(left_params: LeftParams, right_params: RightParams,
                     left: PartialProfile, right: PartialProfile) -> ProfilePair:
    """Join the raw pieces into a C^1 profile (no smoothing windows yet)."""
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
                       pieces=(left, right),
                       boundaries=(left_params.a3, t1, right_params.b3),
                       eps_b2=eps_b2)


def smooth_c1_join(pair: ProfilePair, marker: str, window: float | None = None
                   ) -> ProfilePair:
    """Smooth the profile across ``marker`` ("t1" or "a3") with a window blend.

    The output agrees with the input outside [marker-w, marker+w] sample for
    sample; inside, first and second derivatives interpolate between the two
    pieces' values (bounded by their extremes up to the blend's cross terms).
    """
    if marker == "t1":
        center = pair.t1
        try:
            idx = pair.boundaries.index(center)
        except ValueError:
            raise ProfileError("t1 is not a piece boundary of this profile") from None
        if idx == 0 or idx == len(pair.boundaries) - 1:
            raise ProfileError("t1 is not an interior piece boundary of this profile")
        left_piece = pair.pieces[idx - 1]
        right_piece = pair.pieces[idx]
        default = 0.05 * min(center - pair.a3, pair.b3 - center)
    elif marker == "a3":
        center = pair.a3
        left_piece = _a3_extension(pair.left)
        right_piece = pair.pieces[0]
        default = 0.05 * (pair.t1 - pair.a3)
    else:
        raise ValueError(f"unknown marker {marker!r} (expected 't1' or 'a3')")
    w = default if window is None else float(window)
    if w <= 0:
        raise ProfileError("smoothing window must be positive")
    lo = center - w
    hi = center + w
    if marker == "t1" and (lo <= pair.a3 or hi >= pair.b3):
        raise ProfileError("smoothing window exceeds the piece domains")
    if marker == "a3" and hi >= pair.t1:
        raise ProfileError("smoothing window exceeds the left piece domain")

    blend = _blend_piece(left_piece, right_piece, center, w)

    pieces = []
    boundaries = [pair.a3]
    for i, piece in enumerate(pair.pieces):
        plo, phi = pair.boundaries[i], pair.boundaries[i + 1]
        if phi <= lo or plo >= hi:
            pieces.append(piece)
            boundaries.append(phi)
            continue
        if plo < lo:
            pieces.append(piece)
            boundaries.append(lo)
        if boundaries[-1] < hi and (not pieces or pieces[-1] is not blend):
            pieces.append(blend)
            boundaries.append(min(hi, pair.b3))
        if phi > hi:
            pieces.append(piece)
            boundaries.append(phi)
    windows = pair.windows + ((center, w),)
    return replace(pair, pieces=tuple(pieces), boundaries=tuple(boundaries), windows=windows)


# ---------------------------------------------------------------------------
# Sample checks: one measurement, one verdict
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BcReport:
    clauses: dict
    tol: float

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.clauses.values())

    @property
    def failures(self) -> list:
        return [name for name, c in self.clauses.items() if not c["passed"]]


def check_bc(jets: WarpedJet, left: LeftParams, right: RightParams, eps_b2: float,
             tol: float = BC_TOL) -> BcReport:
    """Verify the nine interface clauses of a profile sampled from a3 to b3.

    The first and last samples of ``jets`` are the two ends.  Left end (a3):
    the recorded taper end angle, h(a3) = alpha, h'(a3) <= lambda,
    f(a3) = alpha*r, f'(a3) = 0.  Right end (b3): h(b3) = beta*rho,
    h'(b3) = 0, f(b3) = beta*N*sin(R/N), f'(b3) = cos(R/N).
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
        ok = residual <= tol if one_sided else abs(residual) <= tol
        clauses[name] = {"actual": actual, "target": target,
                         "residual": residual, "one_sided": one_sided, "passed": bool(ok)}
    return BcReport(clauses=clauses, tol=tol)


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


def sample_verdict(m: ProfileMeasurement, tol: dict, variant: str) -> tuple:
    """Judge a measurement: the nine-clause report and four check records.

    ``tol`` holds the ``bc``, ``ricci_min``, ``mc_margin`` and ``glue``
    tolerances; ``variant`` is the margin variant the certificate claims.
    """
    bc = check_bc(m.jets, m.left, m.right, m.eps_b2, tol=float(tol["bc"]))
    margin = m.margin_min(variant)
    glue = interface_checks(m.jets, m.left, m.right, m.p, m.q, tol=float(tol["glue"]))
    checks = [
        check_record("bc_nine_clauses", bc.passed,
               max(abs(c["residual"]) for c in bc.clauses.values() if not c["one_sided"]),
               float(tol["bc"]), ",".join(bc.failures) or "all clauses hold"),
        check_record("boundary_ricci_positive", m.ricci_min > float(tol["ricci_min"]),
               m.ricci_min, float(tol["ricci_min"])),
        check_record("neck_mc_margin", margin >= -float(tol["mc_margin"]), margin,
               -float(tol["mc_margin"]), f"variant={variant}"),
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
    diagnostics: dict = field(default_factory=dict)

    @property
    def ricci_min(self) -> float:
        return self.measurement.ricci_min

    @property
    def margin_min_reported(self) -> float:
        return self.measurement.margin_min("reported")


def search_parameters(p: int, q: int, R_over_N: float, lam: float,
                      budget: int = 64,
                      kappa: float | None = None,
                      mc_margin_tol: float = 1e-9,
                      mc_variant: str = "reported",
                      grid_n: int = 2048,
                      config: dict | None = None) -> SearchResult:
    """Search admissible neck-profile parameters for given dimensions.

    The decisive scales: the handoff slope s0 fixes the fiber scale
    b = s0/fC'(t1); global concavity of the right piece bounds the
    destabilizing mean-curvature term by ~s0^2 sin(R/N)/(beta N), so beta is
    sized directly from the margin tolerance; t1 is pushed out until the left
    piece's convexity term C e^{-h0^2} f clears the same budget.  Candidates
    over (t1, s0, mean-slope) grids are then measured once on the full check
    grid (:func:`measure_profile`) and accepted when :func:`sample_verdict`
    passes all four records:

    * all three Ricci components of the boundary metric positive,
    * boundary mean-curvature margin >= -mc_margin_tol,
    * all nine interface clauses within 1e-8,
    * both interface gluing checks.

    Raises :class:`InfeasibleProfileError` carrying the best margins found.
    """
    if p < 3 or q < 3:
        raise ProfileError(f"need p, q >= 3, got p={p}, q={q}")
    if not (0.0 < R_over_N < math.pi / 2):
        raise ProfileError(f"need R/N in (0, pi/2), got {R_over_N}")
    if not (0.0 < lam < 0.5):
        raise ProfileError(f"need lambda < 1/2, got {lam}")
    cfg = dict(config or {})
    N = float(cfg.get("N", 1.0))
    R = R_over_N * N
    cosX, sinX = math.cos(R_over_N), math.sin(R_over_N)
    delta = 0.02 * (1.0 - cosX)

    a = float(cfg.get("a", 0.2))
    C_grid = cfg.get("C_grid", [min(0.95, 0.95 * (q - 1) / (p - 1)),
                                min(0.8, 0.8 * (q - 1) / (p - 1))])
    s0_grid = cfg.get("s0_grid", [0.78, 0.75, 0.72, cosX + 1.1 * delta])
    t1_grid = cfg.get("t1_grid")
    theta_rise_grid = cfg.get("theta_rise_grid", [0.03, 0.1])
    # Concavity bounds the margin deficit by ~ max(f'^2 f)/(beta N)^2; size
    # beta so that bound sits three-fold inside the tolerance.
    slack = float(cfg.get("margin_slack", 3.0))
    bN_floor = slack * 0.4 / max(mc_margin_tol, 1e-12)

    if t1_grid is None:
        t1_grid = [1e5, 1e6, 1e7, 3e7]

    accept_tol = {"bc": BC_TOL, "ricci_min": 0.0, "mc_margin": mc_margin_tol,
                  "glue": COEFF_TOL}
    best = {"margin": -np.inf, "ricci": -np.inf}
    evals = 0

    for C in C_grid:
        ode = integrate_fC(C, lam, t_end=1.2 * max(t1_grid))
        for t1 in t1_grid:
            h0_t1 = float(ode.h0(t1))
            fc_t1 = float(ode.fc(t1))
            fc1_t1 = float(ode.fc_d1(t1))
            for s0 in s0_grid:
                if not (cosX + delta < s0 < 1.0):
                    continue
                b = s0 / fc1_t1
                v0 = b * fc_t1
                # Gates: fiber Ricci at the neck start needs
                # (p-2)/b^2 > C lam^2; the neck-start margin needs
                # b C lam^2 <= (p-1)/b; the join-side convexity must sit
                # inside the stabilizing fiber budget (p-1) D^2 / f.
                if b * b * C * lam * lam > 0.85 * (p - 2):
                    continue
                if b * b * C * lam * lam > 0.8 * (p - 1):
                    continue
                D_t1 = 1.0 - s0 * s0
                if v0 * v0 * C * math.exp(-h0_t1 * h0_t1) > 0.5 * (p - 1) * D_t1 * D_t1:
                    continue
                bN = max(bN_floor, 50.0 * v0)
                beta = bN / N
                try:
                    left_params = LeftParams.from_b(lam, a, C, b)
                except BoundaryConditionError:
                    continue
                hl1 = a * h0_t1
                rho_cap = 0.9 * sinX * hl1 / v0 * N
                if kappa is not None:
                    rho_cap = min(rho_cap, 0.99 * kappa)
                try:
                    run = solve_runout(v0, s0, bN, R_over_N)
                except (ProfileError, ValueError):
                    continue
                b3 = t1 + run.length
                for theta_rise in theta_rise_grid:
                    if evals >= budget:
                        break
                    evals += 1
                    rho = hl1 * (1.0 + theta_rise) / beta
                    if rho >= rho_cap:
                        continue
                    try:
                        right_params = RightParams(t1=t1, b3=b3, beta=beta,
                                                   rho=rho, N=N, R=R)
                        lp = build_left_profile(left_params, t1, ode=ode)
                        rp = build_right_profile(lp, right_params)
                        pair = assemble_profile(left_params, right_params, lp, rp)
                    except (ProfileError, ValueError):
                        continue
                    m = measure_profile(pair.jets(pair.grid(grid_n)), left_params,
                                        right_params, pair.eps_b2, p, q)
                    bc, checks = sample_verdict(m, accept_tol, mc_variant)
                    bc_ok, ric_ok, margin_ok, glue_ok = (c["passed"] for c in checks)
                    if not bc_ok:
                        continue
                    margin = m.margin_min(mc_variant)
                    if ric_ok and margin > best["margin"]:
                        best.update(margin=margin, ricci=m.ricci_min)
                    if ric_ok and margin_ok and glue_ok:
                        return SearchResult(
                            left=left_params, right=right_params, pair=pair,
                            measurement=m, bc=bc,
                            diagnostics={"evaluations": evals,
                                         "margin_variant": mc_variant})
    raise InfeasibleProfileError(
        f"no admissible profile within budget ({evals} candidates); "
        f"best margin {best['margin']:.3e}, best Ricci min {best['ricci']:.3e}",
        {"best_margin": best["margin"], "best_ricci": best["ricci"],
         "evaluations": evals})
