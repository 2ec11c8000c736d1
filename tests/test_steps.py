"""The smooth transition functions at the edges of the float range."""

import numpy as np
import pytest

from plumbric.steps import bump_exp_d1, smooth_step, smooth_step_d1


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
