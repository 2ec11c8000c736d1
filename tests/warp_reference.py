"""The left piece's warp functions in closed form, evaluated by mpmath.

Independent of the series in ``plumbric.profiles``: h0 inverts the erfi clock

    t = sqrt(pi/2) [erfi(h0/sqrt 2) - erfi(s0/sqrt 2)],   s0 = sqrt(-2 ln lam),

and fC = A M1(h0) + B M2(h0) in the Kummer solutions of Hermite's equation
y'' - s y' - C y = 0,

    M1(s) = M(C/2, 1/2, s^2/2),   M2(s) = s M((1+C)/2, 3/2, s^2/2),

with (A, B) fixed by fC(a3) = 1 and fC'(a3) = 0; fC' = exp(-h0^2/2) dfC/ds.
"""

import mpmath as mp

DPS = 35  # working digits


def _basis(C, s):
    """M1, M2 and their s-derivatives at s."""
    z = s * s / 2
    half, three_halves = mp.mpf(1) / 2, mp.mpf(3) / 2
    m1 = mp.hyp1f1(C / 2, half, z)
    m2 = s * mp.hyp1f1((1 + C) / 2, three_halves, z)
    m1d = s * C * mp.hyp1f1(C / 2 + 1, three_halves, z)
    m2d = (mp.hyp1f1((1 + C) / 2, three_halves, z)
           + s * s * (1 + C) / 3 * mp.hyp1f1((3 + C) / 2, mp.mpf(5) / 2, z))
    return m1, m2, m1d, m2d


def kummer_reference(C: float, lam: float, t: float) -> tuple:
    """(h0, fC, fC') at t >= 0, rounded to floats from DPS digits."""
    with mp.workdps(DPS):
        C, lam, t = mp.mpf(C), mp.mpf(lam), mp.mpf(t)
        s0 = mp.sqrt(-2 * mp.log(lam))
        r2 = mp.sqrt(2)
        base = mp.erfi(s0 / r2)

        def clock(s):
            return mp.sqrt(mp.pi / 2) * (mp.erfi(s / r2) - base)

        # Newton from above converges monotonically: the clock is convex and
        # increasing in s, and clock(s0 + u) >= max(u, e^(u^2/2) - 1) / lam.
        y = lam * t
        s = s0 + min(y, mp.sqrt(2 * mp.log1p(y)))
        for _ in range(500):
            step = (clock(s) - t) / mp.exp(s * s / 2)
            s -= step
            if abs(step) <= mp.mpf(10) ** (3 - DPS) * s:
                break
        else:
            raise RuntimeError("the erfi clock did not converge")
        m1, m2, m1d, m2d = _basis(C, s0)
        wronskian = m1 * m2d - m2 * m1d
        A, B = m2d / wronskian, -m1d / wronskian
        m1, m2, m1d, m2d = _basis(C, s)
        fc = A * m1 + B * m2
        fc1 = mp.exp(-s * s / 2) * (A * m1d + B * m2d)
        return float(s), float(fc), float(fc1)
