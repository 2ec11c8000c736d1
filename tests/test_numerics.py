"""The in-house Hermite evaluator and Simpson table against scipy, bit for bit.

scipy is the reference here only: the package builds its profiles with
:mod:`plumbric.numerics`, and these tests pin that module to
``CubicHermiteSpline``, ``cumulative_simpson`` and ``brentq``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import brentq

from plumbric.numerics import CubicHermite, simpson_table
from plumbric.profiles import (COLLAR_DECAY, COLLAR_MEAN, COLLAR_NODES, RUNOUT_NODES,
                               _theta_family, solve_runout)

DEFECTS = (None, "repeat", "descend", "nan_x", "inf_y", "nan_dydx")


def _nodes(rng, n, offset_exp, gap_exp):
    """n nodes: an offset plus a cumulative sum of positive gaps, which rounds
    to repeated nodes when the gaps are small against the offset."""
    gaps = rng.exponential(size=n) * 10.0 ** gap_exp
    return rng.choice([-1.0, 1.0]) * 10.0 ** offset_exp + np.cumsum(gaps)


def _same(a, b):
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


def _outcome(build):
    try:
        return build()
    except ValueError:
        return ValueError


@given(n=st.one_of(st.integers(2, 40), st.integers(2, 65537)),
       seed=st.integers(0, 2 ** 32 - 1), offset_exp=st.floats(-3.0, 9.0),
       gap_exp=st.floats(-6.0, 6.0), defect=st.sampled_from(DEFECTS))
@settings(max_examples=300, deadline=None)
def test_hermite_equals_cubic_hermite_spline(n, seed, offset_exp, gap_exp, defect):
    rng = np.random.default_rng(seed)
    x = _nodes(rng, n, offset_exp, gap_exp)
    y = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 9)
    dydx = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 3)
    k = int(rng.integers(0, n - 1))
    if defect == "repeat":
        x[k + 1] = x[k]
    elif defect == "descend":
        x[k + 1] = x[k] - 1.0
    elif defect == "nan_x":
        x[k] = math.nan
    elif defect == "inf_y":
        y[k] = math.inf
    elif defect == "nan_dydx":
        dydx[k] = math.nan
    ours = _outcome(lambda: CubicHermite(x, y, dydx))
    ref = _outcome(lambda: CubicHermiteSpline(x, y, dydx))
    assert (ours is ValueError) == (ref is ValueError)
    if ref is ValueError:
        return
    width = x[-1] - x[0]
    inside = rng.uniform(x[0], x[-1], size=64)
    between = x[:-1] + (x[1:] - x[:-1]) * rng.uniform(size=n - 1)
    outside = np.array([x[0] - width, x[0] - 1e-3 * width, x[-1] + 1e-3 * width,
                        x[-1] + width, np.nextafter(x[0], -np.inf), np.nextafter(x[-1], np.inf)])
    for q in (x, between, inside, outside, x[[0, -1]], x[::-1]):
        assert _same(ours(q), ref(q))
    grid = inside.reshape(8, 8)
    assert ours(grid).shape == (8, 8) and _same(ours(grid), ref(grid))


def test_hermite_rejects_what_scipy_rejects():
    for x, y, d in (([0.0], [1.0], [1.0]),                   # one node
                    ([0.0, 1.0], [1.0, 2.0, 3.0], [0.0, 0.0]),  # shapes differ
                    ([[0.0, 1.0]], [[1.0, 2.0]], [[0.0, 0.0]])):  # 2-D nodes
        with pytest.raises(ValueError):
            CubicHermiteSpline(x, y, d)
        with pytest.raises(ValueError):
            CubicHermite(x, y, d)


@given(n=st.one_of(st.integers(3, 40), st.integers(3, 65537)),
       seed=st.integers(0, 2 ** 32 - 1), offset_exp=st.floats(-3.0, 9.0),
       gap_exp=st.floats(-6.0, 6.0))
@settings(max_examples=150, deadline=None)
def test_simpson_table_equals_cumulative_simpson(n, seed, offset_exp, gap_exp):
    rng = np.random.default_rng(seed)
    x = _nodes(rng, n, offset_exp, gap_exp)
    y = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 9)
    ref = _outcome(lambda: np.concatenate([[0.0], cumulative_simpson(y, x=x)]))
    ours = _outcome(lambda: simpson_table(y, x))
    assert (ours is ValueError) == (ref is ValueError)
    if ref is not ValueError:
        assert _same(ours, ref)


@pytest.mark.parametrize("n", list(range(3, 40)) + [RUNOUT_NODES])
def test_simpson_table_on_every_short_length(n):
    rng = np.random.default_rng(n)
    x = np.sort(rng.uniform(-5.0, 5.0, size=n))
    y = np.exp(x) * rng.uniform(0.5, 2.0, size=n)
    assert _same(simpson_table(y, x), np.concatenate([[0.0], cumulative_simpson(y, x=x)]))


def test_simpson_table_rejects_short_or_unordered_nodes():
    for x in ([0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [0.0, math.nan, 1.0]):
        with pytest.raises(ValueError):
            simpson_table(np.ones(len(x)), x)


def test_collar_decay_is_brentqs_root():
    root = brentq(lambda c: float(np.trapezoid(_theta_family(COLLAR_NODES, c), COLLAR_NODES))
                  - COLLAR_MEAN, 0.0, 400.0, xtol=1e-13)
    assert COLLAR_DECAY == root
    assert COLLAR_DECAY.hex() == "0x1.66d2f61a08d94p+0"


@pytest.mark.parametrize("v0,s0,bN,X_R", [(2.0, 0.8, 20.0, math.pi / 4),
                                          (0.37, 0.76, 1.2e9, 1.1),
                                          (4.1e4, 0.72, 2.05e6, 0.9)])
def test_runout_equals_the_scipy_route(v0, s0, bN, X_R):
    # the table and the value curve as the run-out built them through scipy
    run = solve_runout(v0, s0, bN, X_R)
    fs = np.linspace(v0, run.f_end, RUNOUT_NODES)
    cum = np.concatenate([[0.0], cumulative_simpson(1.0 / run.sigma(fs), x=fs)])
    assert run.length == float(cum[-1])
    ref = CubicHermiteSpline((cum[-1] - cum)[::-1], fs[::-1], -run.sigma(fs[::-1]))
    u = np.concatenate([np.linspace(0.0, run.length, 4099), [run.length * (1 + 1e-15)]])
    assert _same(run.f_of_u(u), ref(u))
