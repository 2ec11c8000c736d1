"""The warp ODE solved by RK45, the route ``profiles.integrate_fC`` took
before the left piece became an exact series.

It is kept as an independent cross-check at RK45's own accuracy: the same
right-hand side, start state and tolerances (rtol 1e-10, atol 1e-13) the
program used, with every step taken up front by ``solve_ivp``.
"""

import math

from scipy.integrate import solve_ivp

from plumbric.profiles import A3


def reference_solution(C: float, lam: float, t_end: float, rtol: float = 1e-10):
    """The ``solve_ivp`` result on [A3, t_end]: ``.t`` holds the step points and
    ``.sol`` the dense solution of (h0, fC, fC')."""
    h0_init = math.sqrt(-2.0 * math.log(lam))

    def rhs(_t, y):
        h0, fc, fc1 = y
        e = math.exp(-0.5 * h0 * h0)
        return [e, fc1, C * e * e * fc]

    sol = solve_ivp(rhs, (A3, t_end), [h0_init, 1.0, 0.0], method="RK45",
                    rtol=rtol, atol=1e-13, dense_output=True)
    assert sol.success, sol.message
    return sol
