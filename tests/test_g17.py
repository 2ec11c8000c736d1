"""The vectorized ``%.17g`` kernel writes exactly the bytes of ``"%.17g" % x``.

Every test compares the kernel with ``csv_reference.percent_column``, the
``%`` route the CSV writer used before the kernel.  The named cases sit on
the kernel's seams: zeros, subnormals, the edges of its fast range, powers
of ten (where ``log10`` can miss by one and the digits can round up to
10^17), the switch between fixed and scientific notation, ties, and 3-digit
exponents.
"""

import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csv_reference import percent_column
import plumbric
from plumbric import g17
from plumbric.profiles import MC_VARIANT, PROFILE_COLUMNS, csv_blocks, search_parameters


def assert_same_bytes(values):
    x = np.asarray(values, dtype=np.float64)
    got = g17.join_rows([g17.format_column(x)]).split("\n")[:-1]
    want = percent_column(x)
    wrong = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not wrong, wrong[:5]


def neighbours(x, steps=2):
    """x and the ``steps`` doubles on either side of it."""
    out = [np.asarray(x, dtype=np.float64)]
    up = down = out[0]
    with np.errstate(over="ignore"):
        for _ in range(steps):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            out += [up, down]
    return np.concatenate(out)


def both_signs(x):
    return np.concatenate([x, -x])


POWERS = np.array([float(f"1e{k}") for k in range(-323, 309)])


class TestNamedCases:
    def test_zeros_nan_and_infinities(self):
        assert_same_bytes([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf])

    def test_subnormals_and_the_normal_edge(self):
        tiny = np.array([5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308,
                         1e-310, 4.9406564584124654e-320])
        assert_same_bytes(both_signs(neighbours(tiny)))

    def test_largest_doubles(self):
        assert_same_bytes(both_signs(neighbours(np.array([np.finfo(float).max, 1e308]))))

    def test_powers_of_ten_and_their_neighbours(self):
        assert_same_bytes(both_signs(neighbours(POWERS, steps=3)))

    def test_fast_range_edges(self):
        edges = np.array([g17.FAST_MIN, g17.FAST_MAX, 10.0 ** (g17.E_MIN + 1),
                          10.0 ** g17.E_MAX])
        assert_same_bytes(both_signs(neighbours(edges)))

    @pytest.mark.parametrize("e", [-5, -4, 16, 17])
    def test_fixed_and_scientific_switch(self, e):
        mantissas = np.array([1.0, 1.5, math.pi, 9.5, 9.999999999999998, 9.9999999999999999])
        assert_same_bytes(both_signs(neighbours(mantissas * 10.0 ** e)))

    def test_digits_that_round_up_to_a_power_of_ten(self):
        # each double lies below its power of ten, within half a unit of
        # the 17th digit, so "%.17g" prints the power itself
        below = {14: 1e-14, 70: 1e-70, 175: 1e-175, 305: 1e-305}
        assert all(Fraction(v) < Fraction(1, 10 ** k) for k, v in below.items())
        assert percent_column(list(below.values())) == [f"1e-{k}" for k in below]
        assert_same_bytes(both_signs(neighbours(np.array(list(below.values())))))

    def test_ties_round_half_even(self):
        # k/4 near 1e15 has 18 significant digits ending in 5: an exact tie
        ties = 1e15 + np.arange(1, 41) / 4
        assert_same_bytes(both_signs(ties))
        assert percent_column([1e15 + 0.25, 1e15 + 0.75]) == [
            "1000000000000000.2", "1000000000000000.8"]

    def test_three_digit_exponents(self):
        assert_same_bytes(both_signs(neighbours(np.array(
            [1e100, 1.2345678901234567e-100, 9.999999999999999e99, 1e-99, 3e250, 7e-250]))))

    def test_short_digit_strings(self):
        assert_same_bytes(both_signs(np.array(
            [1.0, 0.5, 0.25, 100.0, 1e16, 2.0 ** 53, 123456789.0, 1e-4, 1.5e-5, 12.5])))


class TestRandom:
    def test_bit_patterns_and_magnitudes(self):
        rng = np.random.default_rng(20)
        bits = rng.integers(0, 2 ** 64, 20000, dtype=np.uint64).view(np.float64)
        with np.errstate(over="ignore"):
            spread = rng.standard_normal(20000) * 10.0 ** rng.integers(-310, 309, 20000)
        assert_same_bytes(np.concatenate([bits, spread]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_floats(self, values):
        assert_same_bytes(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
    def test_raw_bit_patterns(self, bits):
        assert_same_bytes(np.array(bits, dtype=np.uint64).view(np.float64))


class TestFallback:
    def test_a_genuine_profile_rarely_falls_back(self, monkeypatch):
        """The columns of a real profile and its margins, with the all-zero
        plateau of h1 and h2, reach the exact formatter only a handful of
        times in 16 384 rows."""
        res = search_parameters(4, 4, math.pi / 4, 0.1, mc_margin_tol=1e-9, grid_n=2048)
        jets = res.pair.jets(res.pair.grid(16384))
        cols = {name: getattr(jets, name) for name in PROFILE_COLUMNS}
        cols["mc_margin"] = np.resize(res.measurement.margins[MC_VARIANT], 16384)
        assert (cols["h1"] == 0).sum() > 16000 and (cols["h2"] == 0).sum() > 16000
        calls = []
        exact = g17._format_exact
        monkeypatch.setattr(g17, "_format_exact", lambda v: calls.append(v) or exact(v))
        text = "".join(b[0] for b in csv_blocks(cols, tuple(cols)))
        assert len(calls) <= 4, calls
        monkeypatch.undo()
        want = zip(*(percent_column(col) for col in cols.values()))
        assert text == ",".join(cols) + "\n" + "".join(",".join(row) + "\n" for row in want)

    def test_every_fallback_value_is_counted(self, monkeypatch):
        calls = []
        exact = g17._format_exact
        monkeypatch.setattr(g17, "_format_exact", lambda v: calls.append(v) or exact(v))
        g17.format_column(np.array([0.0, -0.0, 1.0, np.nan, np.inf, 1e-300, 1e15 + 0.25]))
        assert len(calls) == 4 and 1e-300 in calls and 1e15 + 0.25 in calls


def test_import_builds_no_table():
    code = ("import plumbric, plumbric.g17 as g; "
            "print(g._tables.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(plumbric.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "0"
