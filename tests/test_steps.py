"""The smooth transition functions at the edges of the float range, and the
derivatives of smoothstep7."""

import numpy as np
import pytest

from plumbric.steps import (bump_exp_d1, smooth_step, smooth_step_d1, smoothstep7, smoothstep7_d1,
                            smoothstep7_d2)


@pytest.mark.parametrize("x", [5e-324, np.finfo(float).tiny, 1e-200],
                         ids=["least_subnormal", "least_normal", "square_underflows"])
def test_first_derivative_is_zero_where_the_bump_underflows(x):
    # exp(-1/x) and x*x are both 0 here: the derivative is 0, not 0/0
    assert bump_exp_d1(x) == 0.0
    assert smooth_step_d1(x) == 0.0
    assert smooth_step(x) == 0.0


def test_first_derivative_where_the_bump_is_positive():
    x = np.array([1e-3, 0.25, 0.5, 1.0, 4.0])
    assert np.array_equal(bump_exp_d1(x), np.exp(-1.0 / x) / (x * x))
    assert np.array_equal(bump_exp_d1(np.array([-1.0, 0.0])), [0.0, 0.0])


def test_smoothstep7_derivatives_are_the_polynomials():
    # 35x^4 - 84x^5 + 70x^6 - 20x^7 on [0, 1], constant off it
    x = np.linspace(-0.5, 1.5, 2001)
    poly = np.polynomial.Polynomial([0, 0, 0, 0, 35, -84, 70, -20])
    inside = (x >= 0.0) & (x <= 1.0)
    for fn, ref in ((smoothstep7, poly), (smoothstep7_d1, poly.deriv()),
                    (smoothstep7_d2, poly.deriv(2))):
        got = fn(x)
        assert np.abs(got[inside] - ref(x[inside])).max() <= 1e-12
        assert np.array_equal(got[x < 0.0], np.full((x < 0.0).sum(), got[inside][0]))
        assert np.array_equal(got[x > 1.0], np.full((x > 1.0).sum(), got[inside][-1]))
    assert smoothstep7_d1(np.array([0.0, 1.0])).tolist() == [0.0, 0.0]
    assert smoothstep7_d2(np.array([0.0, 1.0])).tolist() == [0.0, 0.0]
