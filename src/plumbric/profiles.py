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
margin by max(f'^2 f)/(beta N)^2 <= s0^2 sin(R/N)/(beta N).  The search
sizes beta N from the tolerance, beta N = max(1.2/mc_margin_tol, 50 f(t1)),
so the worst margin is a fixed fraction of the tolerance (margin/tol near
-0.28 for tolerances down to 1e-12), not a value shown nonnegative.  The join at t1 is
C^1 by solving the fiber scale from the slope target (b = s0/fC'(t1)); f''
jumps there from the left piece's convex value to the run-out's concave one.
The certificate covers this C^1 two-piece profile.

The search's inputs are (p, q, R/N, lambda), the margin tolerance and the
check grid.  Its warp ODE depends on (C, lambda) alone, so a caller may hand
several searches one mapping of ODEs; each ODE steps only as far as some
search has read it.  Each candidate's run-out is
solved once, at the search's own join state, and the right piece is built
from it.  A vertex's collar-ball bound kappa enters no search: the
certificate checks rho < 0.99 kappa.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import RK45, OdeSolution
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
    "WarpOde",
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
ODE_HORIZON = 1.2 * SEARCH_T1[-1]  # t_end of every warp ODE the search integrates
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
# Profile ODEs
# ---------------------------------------------------------------------------


class WarpOde:
    """Dense solution of the warping ODEs for one (lam, C) pair, stepped on demand.

    One RK45 solver runs from a3 towards ``t_end`` and is advanced only when
    an evaluation asks for a t past its last accepted step.  Values come from
    the continuous extension of the steps taken so far, which a later step
    does not change, so every value equals the one a solve to ``t_end``
    gives.  Exposes vectorized jet evaluations; first/second derivatives use
    the defining relations, so self-consistency checks must difference the
    dense values instead.
    """

    def __init__(self, lam: float, C: float, t_end: float, solver: RK45):
        self.lam = lam
        self.C = C
        self.t_end = t_end
        self._solver = solver
        self._ts = [solver.t]
        self._interpolants = []
        self._sol = None

    @property
    def t_covered(self) -> float:
        """The end of the accepted steps: values up to it need no more steps."""
        return self._ts[-1]

    def _advance(self, t: float):
        """Step the solver until its accepted steps reach t or t_end (at
        least one step, so that there is an interpolant)."""
        solver = self._solver
        while (self.t_covered < t or not self._interpolants) and solver.status == "running":
            message = solver.step()
            if solver.status == "failed":
                raise ProfileError(f"profile ODE integration failed: {message}")
            self._ts.append(solver.t)
            self._interpolants.append(solver.dense_output())
            self._sol = None

    def _y(self, t, k: int):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        self._advance(np.max(ts))
        if self._sol is None:
            self._sol = OdeSolution(self._ts, self._interpolants)
        return self._sol(ts)[k].reshape(np.shape(t))

    def h0(self, t):
        return self._y(t, 0)

    def h0_d1(self, t):
        return np.exp(-0.5 * self.h0(t) ** 2)

    def h0_d2(self, t):
        h = self.h0(t)
        return -h * np.exp(-h ** 2)

    def fc(self, t):
        return self._y(t, 1)

    def fc_d1(self, t):
        return self._y(t, 2)

    def fc_d2(self, t):
        return self.C * np.exp(-self.h0(t) ** 2) * self.fc(t)


def integrate_fC(C: float, lam: float, t_end: float) -> WarpOde:
    """Solve fC'' = C exp(-h0^2) fC jointly with h0' = exp(-h0^2/2) on [a3, t_end].

    The solver takes its first step here and the rest as evaluations need
    them; ``t_end`` bounds every step, as the end of a full solve does.
    """
    if not (0.0 < C < 1.0):
        raise ProfileError(f"curvature parameter must lie in (0, 1), got {C}")
    if not (0.0 < lam < 0.5):
        raise ProfileError(f"slope parameter must lie in (0, 1/2), got {lam}")
    if not (t_end > A3):
        raise ProfileError(f"integration horizon must exceed {A3}, got {t_end}")
    h0_init = math.sqrt(-2.0 * math.log(lam))

    def rhs(_t, y):
        h0, fc, fc1 = y
        e = math.exp(-0.5 * h0 * h0)
        return [e, fc1, C * e * e * fc]

    solver = RK45(rhs, float(A3), [h0_init, 1.0, 0.0], float(t_end), rtol=1e-10, atol=1e-13)
    ode = WarpOde(lam=lam, C=C, t_end=t_end, solver=solver)
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


def build_left_profile(params: LeftParams, t1: float, ode: WarpOde) -> PartialProfile:
    """Left piece h_l = a*h0, f_l = b*fC on [a3, t1], read from ``ode``.

    The a3 interface clauses hold by scaling; :func:`check_bc` verifies them
    on the assembled profile.  ``ode`` must solve (params.lam, params.C) and
    cover [a3, t1]; the search integrates it to :data:`ODE_HORIZON`.
    """
    if ode.t_end < t1:
        raise ProfileError(f"ODE solution ends at {ode.t_end}, before t1 = {t1}")
    if abs(ode.lam - params.lam) > 1e-12 or abs(ode.C - params.C) > 1e-12:
        raise ProfileError("ODE solution does not match the requested (lambda, C)")
    a, b = params.a, params.b
    return PartialProfile(
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
                      mc_margin_tol: float, grid_n: int,
                      odes: dict | None = None) -> SearchResult:
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
    * ``fiber_ricci``: fiber Ricci at the neck start, b^2 C lam^2 <= 0.85 (p-2);
    * ``neck_start_margin``: b^2 C lam^2 <= 0.8 (p-1);
    * ``join_convexity``: the left piece's convexity at t1 inside the
      stabilizing fiber budget (p-1) D^2 / f;
    * ``collar_cap``: the collar end rho = h(t1)(1 + THETA_RISE)/beta below
      0.9 sin(R/N) h(t1)/f(t1);
    * ``runout``: a concave run-out exists through the join state.

    The run-out the last gate solves is the one the profile is built from,
    so each candidate that passes the five cheap gates solves one run-out.
    A candidate that passes them all is built and measured once on the full
    check grid (:func:`measure_profile`), and accepted when
    :func:`sample_verdict` passes all four records: the nine interface
    clauses, boundary Ricci > 0, the :data:`MC_VARIANT` mean-curvature margin
    >= -mc_margin_tol and both gluing checks.  Otherwise the build error
    (``build``) or the first failed check id rejects it and the scan goes on.

    Each C's warp ODE is read from ``odes``, keyed on (C, lam), and
    integrated to :data:`ODE_HORIZON` and stored there only when missing; a
    construction passes one mapping to all its searches (default a fresh dict).

    ``diagnostics`` holds ``evaluations`` (candidates built and measured)
    and ``rejected``, one (C, t1, s0, gate) per dropped candidate.  Raises
    :class:`InfeasibleProfileError` with both, and the rejections counted
    by gate, when no candidate is accepted.
    """
    if p < 3 or q < 3:
        raise ProfileError(f"need p, q >= 3, got p={p}, q={q}")
    if not (0.0 < R_over_N < math.pi / 2):
        raise ProfileError(f"need R/N in (0, pi/2), got {R_over_N}")
    if not (0.0 < lam < 0.5):
        raise ProfileError(f"need lambda < 1/2, got {lam}")
    cosX, sinX = math.cos(R_over_N), math.sin(R_over_N)
    delta = 0.02 * (1.0 - cosX)
    bN_floor = BN_TOL / max(mc_margin_tol, MC_TOL_FLOOR)
    odes = {} if odes is None else odes
    rejected = []
    evals = 0

    for C in (min(0.95, 0.95 * (q - 1) / (p - 1)), min(0.8, 0.8 * (q - 1) / (p - 1))):
        ode = odes.get((C, lam))
        if ode is None:
            ode = odes[(C, lam)] = integrate_fC(C, lam, t_end=ODE_HORIZON)
        for t1 in SEARCH_T1:
            h0_t1 = float(ode.h0(t1))
            fc_t1 = float(ode.fc(t1))
            fc1_t1 = float(ode.fc_d1(t1))
            hl1 = SEARCH_A * h0_t1
            for s0 in (0.78, 0.75, 0.72, cosX + 1.1 * delta):
                b = s0 / fc1_t1
                v0 = b * fc_t1
                bN = max(bN_floor, 50.0 * v0)
                rho = hl1 * (1.0 + THETA_RISE) / bN
                D_t1 = 1.0 - s0 * s0
                gates = (
                    ("s0_window", cosX + delta < s0 < 1.0),
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
                        left_params = LeftParams.from_b(lam, SEARCH_A, C, b)
                        right_params = RightParams(t1=t1, b3=t1 + run.length, beta=bN,
                                                   rho=rho, N=1.0, R=R_over_N)
                        lp = build_left_profile(left_params, t1, ode=ode)
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
