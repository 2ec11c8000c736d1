"""The profile builders' interpolant and quadrature, bit-equal to scipy's.

* :class:`CubicHermite` -- the piecewise cubic through (x, y) with slopes
  dydx.  Its values equal ``scipy.interpolate.CubicHermiteSpline(x, y,
  dydx)(xq)`` bit for bit, and it raises ``ValueError`` on the same nodes.
  It computes a cubic's coefficients only on the intervals a query falls
  in, not on all n - 1 of them.
* :func:`simpson_table` -- the cumulative Simpson integral of y over x from
  x[0], bit for bit ``concatenate([[0.0], scipy.integrate.cumulative_simpson(
  y, x=x)])``.  It evaluates each sub-integral scipy keeps once, not the two
  per interval scipy evaluates.

Both repeat scipy's floating-point operations in scipy's order, so the
profiles they build do not depend on scipy's ``interpolate`` and
``integrate`` packages, and a process that constructs or verifies never
imports them.  The tests compare both with scipy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CubicHermite", "simpson_table"]

SIMPSON_BLOCK = 4096  # intervals per block of simpson_table's passes (even)


class CubicHermite:
    """Cubic Hermite interpolant through (x, y) with slopes dydx.

    The nodes x are finite and strictly increasing, at least two of them; y
    and dydx are finite and of the same shape.  A query x_q takes the cubic
    of the interval [x_i, x_(i+1)] whose x_i is the last node <= x_q, with i
    clipped to [0, n - 2], so the end cubics extrapolate.  On that interval,
    as in ``CubicHermiteSpline``,

        slope = (y_(i+1) - y_i)/dx,   t = (dydx_i + dydx_(i+1) - 2 slope)/dx,
        c0 = t/dx,   c1 = (slope - dydx_i)/dx - t,   c2 = dydx_i,   c3 = y_i,

    and the value is the power sum ``PPoly`` forms with s = x_q - x_i,
    ((0 + c3) + c2 s) + c1 (s s) + c0 ((s s) s).
    """

    def __init__(self, x, y, dydx):
        x, y, dydx = (np.asarray(a, dtype=np.float64) for a in (x, y, dydx))
        if x.ndim != 1 or x.size < 2:
            raise ValueError("the nodes must be a 1-D array of at least 2 elements")
        if y.shape != x.shape or dydx.shape != x.shape:
            raise ValueError(f"nodes, values and slopes differ in shape: "
                             f"{x.shape}, {y.shape}, {dydx.shape}")
        for name, a in (("nodes", x), ("values", y), ("slopes", dydx)):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"the {name} must be finite")
        if np.any(np.diff(x) <= 0):
            raise ValueError("the nodes must be strictly increasing")
        self.x, self.y, self.dydx = x, y, dydx

    def __call__(self, xq) -> np.ndarray:
        xq = np.asarray(xq, dtype=np.float64)
        x, y, d = self.x, self.y, self.dydx
        i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
        x0, y0, d0 = x[i], y[i], d[i]
        dx = x[i + 1] - x0
        slope = (y[i + 1] - y0) / dx
        t = (d0 + d[i + 1] - 2 * slope) / dx
        s = xq - x0
        ss = s * s
        return np.asarray((0.0 + y0 + d0 * s) + ((slope - d0) / dx - t) * ss
                          + t / dx * (ss * s))


def _simpson_piece(x21, x32, f1, f2, f3):
    """Integral over the interval of width x21 from sample 1 to sample 2 of
    the parabola through samples 1, 2 and 3, with x32 the width from sample 2
    to sample 3 (Cartwright 2017, "Simpson's Rule Cumulative Integration with
    MS Excel and Irregularly-spaced Data", eq. 8), in ``cumulative_simpson``'s
    operation order.  The samples may run right to left: then sample 1 is the
    interval's right end and sample 3 lies left of it."""
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * f1 + coeff2 * f2 + coeff3 * f3)


def simpson_table(y, x) -> np.ndarray:
    """0 followed by the cumulative Simpson integrals of y over x from x[0].

    x is finite and strictly increasing, at least three nodes.  Interval
    [x_k, x_(k+1)] takes the parabola through samples k, k+1, k+2 for even
    k < n - 2 and through samples k+1, k, k-1 otherwise; the sums run left to
    right.  These are the sub-integrals ``cumulative_simpson`` keeps of the two
    it computes per interval.
    """
    y, x = np.asarray(y, dtype=np.float64), np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 3 or y.shape != x.shape:
        raise ValueError(f"need 1-D x and y of one length >= 3, got {x.shape} and {y.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("the nodes must be finite")
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("the nodes must be strictly increasing")
    n = x.size
    sub = np.empty(n - 1)
    # Both passes run block by block, so each block's strided operands and
    # temporaries stay in cache; every entry is its own element-wise
    # expression, so the blocks change no bit.
    for s in range(0, n - 1, SIMPSON_BLOCK):
        e = min(s + SIMPSON_BLOCK, n - 2)  # even k in [s, e)
        sub[s:e:2] = _simpson_piece(dx[s:e:2], dx[s + 1:e + 1:2],
                                    y[s:e:2], y[s + 1:e + 1:2], y[s + 2:e + 2:2])
        o = min(s + SIMPSON_BLOCK, n - 1)  # odd k in [s + 1, o)
        sub[s + 1:o:2] = _simpson_piece(dx[s + 1:o:2], dx[s:o - 1:2],
                                        y[s + 2:o + 1:2], y[s + 1:o:2], y[s:o - 1:2])
    sub[-1:] = _simpson_piece(dx[-1:], dx[-2:-1], y[-1:], y[-2:-1], y[-3:-2])
    out = np.empty(n)
    out[0] = 0.0
    np.cumsum(sub, out=out[1:])
    return out
