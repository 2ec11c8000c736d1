import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plumbric.caps import BlockDiagonalForm, FormStructureError, perelman_form_check
from plumbric.meancurv import interface_forms
from plumbric.warped import WarpedJet


def cap_form(r, R, p, q=2):
    """The b3 gluing form of a neck whose fiber ends on the boundary of the
    geodesic ball of radius R in S^p(r): the fiber radius r sin(t/r) at t = R,
    under a constant collar.  Its fiber block is the cap boundary's second
    fundamental form, (1/r) cot(R/r) on p-1 directions."""
    x = R / r
    jet = WarpedJet(t=np.array([R]), f=np.array([r * math.sin(x)]),
                    f1=np.array([math.cos(x)]), f2=np.array([-math.sin(x) / r]),
                    h=np.ones(1), h1=np.zeros(1), h2=np.zeros(1))
    return interface_forms(jet, p, q)[1]


def coef(form):
    return form.blocks[1][0]


class TestBoundaryForm:
    def test_hemisphere_totally_geodesic(self):
        assert coef(cap_form(1.0, math.pi / 2, 3)) == pytest.approx(0.0, abs=1e-15)

    def test_quarter(self):
        assert coef(cap_form(1.0, math.pi / 4, 3)) == pytest.approx(1.0)

    def test_concave(self):
        assert coef(cap_form(1.0, 3 * math.pi / 4, 3)) == pytest.approx(-1.0)

    def test_multiplicity(self):
        form = cap_form(1.0, 0.3, 5)
        assert [m for _, m in form.blocks] == [1, 4]

    def test_decreasing_in_R(self):
        Rs = np.linspace(0.2, 2.8, 40)
        cs = [coef(cap_form(1.0, R, 3)) for R in Rs]
        assert all(c2 < c1 for c1, c2 in zip(cs, cs[1:]))


class TestGluing:
    def test_two_hemispheres(self):
        f = cap_form(1.0, math.pi / 2, 3)
        assert perelman_form_check(f, f)

    def test_cos_criterion_boundary_case(self):
        # eps1 = 2pi/3, eps2 = pi/3 over the same boundary sphere: sum is 0
        c1 = cap_form(1.0, 2 * math.pi / 3, 3)
        c2 = cap_form(1.0, math.pi / 3, 3)
        assert perelman_form_check(c1, c2)

    def test_two_concave_caps_fail(self):
        f = cap_form(1.0, 3 * math.pi / 4, 3)
        assert not perelman_form_check(f, f)

    def test_structure_mismatch(self):
        f1 = BlockDiagonalForm(((0.5, 2), (0.1, 3)))
        f2 = BlockDiagonalForm(((0.5, 3), (0.1, 2)))
        with pytest.raises(FormStructureError):
            perelman_form_check(f1, f2)


class TestProperties:
    @given(st.floats(0.1, 2.0), st.floats(0.1, 0.9), st.floats(0.1, 10.0))
    @settings(max_examples=100)
    def test_scaling_covariance(self, r, frac, lam):
        # rescaling the metric by lam^2 divides the gluing form by lam
        R = frac * math.pi * r
        assert coef(cap_form(lam * r, lam * R, 4)) == pytest.approx(
            coef(cap_form(r, R, 4)) / lam, rel=1e-10)

    @given(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
           st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
           st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_symmetry_and_monotone(self, coefs1, coefs2, bump):
        f1 = BlockDiagonalForm(tuple((c, 2) for c in coefs1))
        f2 = BlockDiagonalForm(tuple((c, 2) for c in coefs2))
        assert perelman_form_check(f1, f2) == perelman_form_check(f2, f1)
        if perelman_form_check(f1, f2):
            raised = BlockDiagonalForm(tuple((c + bump, 2) for c in coefs1))
            assert perelman_form_check(raised, f2)
