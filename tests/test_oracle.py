import functools
import gc
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import oracle_reference
from charts_reference import (doubly_warped_patch, doubly_warped_scalar, euclidean_patch,
                              scaled_patch, sphere_polar, sphere_stereographic)
from plumbric import meancurv, oracle, profiles
from plumbric.charts import cylinder_patch, flat_patch, warped_patch
from plumbric.oracle import (GraphHypersurface, MetricShapeError, NonSPDMetricError,
                             OracleDomainError, MetricPatch, numeric_curvature,
                             numeric_second_fundamental_form)
from plumbric.pipeline import NiceCoordinateSpec, run_construction
from plumbric.profiles import EpsilonProfile
from plumbric.plumbing import tangent_chain
from plumbric.warped import WarpedJet, doubly_warped_ricci

RNG = np.random.default_rng(20240817)


class TestRicciOracle:
    def test_flat(self):
        rep = numeric_curvature(euclidean_patch(4), [0.1, -0.2, 0.3, 0.0])
        assert np.abs(rep.ricci).max() < 1e-12
        assert abs(rep.scalar) < 1e-12

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("r", [0.5, 2.0])
    def test_round_sphere(self, n, r):
        rep = numeric_curvature(sphere_stereographic(n, r), 0.1 * np.arange(1, n + 1))
        expected = n * (n - 1) / r ** 2
        assert rep.scalar == pytest.approx(expected, rel=1e-6)
        # constant curvature: Ricci eigenvalues all (n-1)/r^2
        assert rep.min_ricci_eigenvalue == pytest.approx((n - 1) / r ** 2, rel=1e-5)

    def test_scalar_constant_across_chart(self):
        patch = sphere_polar(3, 1.0)
        pts = np.column_stack([RNG.uniform(0.4, 2.6, 50),
                               RNG.uniform(0.4, 2.6, 50),
                               RNG.uniform(0.4, 2.6, 50)])
        scalars = [numeric_curvature(patch, p).scalar for p in pts]
        assert np.ptp(scalars) / 6.0 < 1e-6

    def test_coordinate_invariance(self):
        s1 = numeric_curvature(sphere_stereographic(3, 1.3), [0.2, -0.1, 0.4]).scalar
        s2 = numeric_curvature(sphere_polar(3, 1.3), [1.0, 1.4, 0.8]).scalar
        assert s1 == pytest.approx(s2, rel=1e-5)

    def test_cylinder(self):
        rep = numeric_curvature(cylinder_patch(3, 2.0), [0.0, 2.2, 1.1, 1.4])
        assert rep.scalar == pytest.approx(3 * 2 / 4.0, rel=1e-6)
        assert rep.min_ricci_eigenvalue == pytest.approx(0.0, abs=1e-8)

    def test_rescaling_law(self):
        patch = sphere_stereographic(3, 1.0)
        lam = 1.7
        rep1 = numeric_curvature(patch, [0.1, 0.2, 0.3])
        rep2 = numeric_curvature(scaled_patch(patch, lam), [0.1, 0.2, 0.3])
        assert rep2.scalar == pytest.approx(rep1.scalar / lam ** 2, rel=1e-8)
        assert rep2.min_ricci_eigenvalue == pytest.approx(
            rep1.min_ricci_eigenvalue / lam ** 2, rel=1e-6)

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("r", [0.5, 2.0])
    def test_round_sphere_in_sheared_chart(self, n, r):
        # the dense reference route on a metric with off-diagonal entries
        patch = _sheared_sphere(n, r)
        point = 0.05 * np.arange(1, n + 1)
        g0 = patch.g(point[np.newaxis])[0]
        assert np.abs(g0 - np.diag(np.diag(g0))).max() > 0.1 * np.abs(g0).max()
        rep = oracle_reference.numeric_curvature(patch, point)
        assert rep.scalar == pytest.approx(n * (n - 1) / r ** 2, rel=1e-6)
        assert rep.min_ricci_eigenvalue == pytest.approx((n - 1) / r ** 2, rel=1e-6)

    def test_near_boundary_error(self):
        with pytest.raises(OracleDomainError):
            numeric_curvature(euclidean_patch(2), [0.9999, 0.0])


def _counting(patch):
    """``patch`` with a ``g`` that records the number of points of each call."""
    calls = []

    def g(x):
        calls.append(len(x))
        return patch.g(x)

    return MetricPatch(dim=patch.dim, domain=patch.domain, g=g), calls


FLAT_GRAPH = GraphHypersurface(axis=0, height=lambda x: np.full(x.shape[:-1], 0.1))


class TestFailBeforeEvaluating:
    """Both oracles reject a point near the boundary before evaluating the
    metric, and after one metric call, before differencing it, a chart that
    does not return one finite, positive diagonal per stencil point."""

    @pytest.mark.parametrize("point", [[0.9999, 0.0], [0.0, -1.0 + 1.5e-3]])
    def test_boundary_point_evaluates_no_metric(self, point):
        patch, calls = _counting(euclidean_patch(2))
        with pytest.raises(OracleDomainError, match="^point .* within 2\\*step"):
            numeric_curvature(patch, point)
        graph = GraphHypersurface(axis=0, height=lambda x: np.full(x.shape[:-1], point[0]))
        with pytest.raises(OracleDomainError, match="^graph point .* within 2\\*step"):
            numeric_second_fundamental_form(patch, graph, point[1:])
        assert calls == []

    @pytest.mark.parametrize("value,error,message", [
        (lambda x: np.broadcast_to([1.0, -1.0], x.shape), NonSPDMetricError,
         "metric matrix is not positive definite on the stencil"),
        # infinite off the point, on the stencil rows with x_1 > 0
        (lambda x: np.where(x[..., 1:] > 0.0, np.inf, np.ones(x.shape)), NonSPDMetricError,
         "metric matrix is not finite on the stencil"),
        (lambda x: np.broadcast_to(np.eye(2), x.shape + (2,)), MetricShapeError,
         r"metric diagonals must have shape \(\d+, 2\), got \(\d+, 2, 2\)"),
        (lambda x: np.ones(x.shape[:-1] + (3,)), MetricShapeError,
         r"metric diagonals must have shape \(\d+, 2\), got \(\d+, 3\)"),
    ], ids=["indefinite", "nonfinite", "matrices", "width"])
    @pytest.mark.parametrize("route", ["ricci", "second_form"])
    def test_bad_metric_is_not_differenced(self, value, error, message, route, monkeypatch):
        patch, calls = _counting(MetricPatch(dim=2, domain=((-1, 1), (-1, 1)), g=value))
        differenced, differences = [], oracle._differences

        def recording(values, h, corners):
            differenced.append(values.ndim)
            return differences(values, h, corners)

        monkeypatch.setattr(oracle, "_differences", recording)
        with pytest.raises(error, match=f"^{message}$"):
            if route == "ricci":
                numeric_curvature(patch, [0.0, 0.0])
            else:
                numeric_second_fundamental_form(patch, FLAT_GRAPH, [0.0])
        assert len(calls) == 1
        # only the graph heights (one value per stencil row of each point)
        # were differenced, as a (points, rows) stack
        assert all(ndim == 2 for ndim in differenced)


def _sheared_sphere(n, r):
    """Round S^n(r) in the stereographic chart pulled back by the linear map
    y -> A y: g_A(y) = A^T g(A y) A, with a fixed invertible A."""
    A = np.eye(n) + 0.4 * np.triu(np.ones((n, n)), 1) - 0.3 * np.tril(np.ones((n, n)), -1)
    base = sphere_stereographic(n, r)

    def g(y):
        return A.T @ (base.g(np.asarray(y, dtype=float) @ A.T)[..., np.newaxis] * A)

    return MetricPatch(dim=n, domain=((-0.5, 0.5),) * n, g=g)


def _einsum_route(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with the second fundamental form's Christoffel
    term contracted by the einsum reference in place of matrix products."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_normal_christoffel", oracle_reference.normal_christoffel)
        return fn(*args, **kwargs)


@st.composite
def diagonal_charts(draw):
    """A random diagonal chart with an interior point and per-coordinate steps:
    a doubly warped product over a line, or a round sphere warped over a flat
    box with a radius that depends on every base coordinate; p, q in 2..9.
    Each chart computes every row from that row alone, by element-wise
    operations, as the certificate's charts do: a BLAS product such as
    ``xb @ w`` can round a row differently with the number of rows, and then
    no stack of points could give a point its one-point bits."""
    p, q = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        f, h = random_warping(rng)[0], random_warping(rng)[0]
        t0 = rng.uniform(0.8, 1.2)
        patch = doubly_warped_patch(f, h, p, q, (t0 - 0.5, t0 + 0.5))
        base = [t0]
    else:
        w = rng.uniform(-0.5, 0.5, p)
        c = rng.uniform(0.5, 2.0)
        patch = warped_patch(flat_patch(((-1.0, 1.0),) * p), lambda xb: c * np.exp(
            sum(w[i] * xb[..., i] + 0.3 * np.sin(xb[..., i]) for i in range(p))), q)
        base = rng.uniform(-0.8, 0.8, p)
    point = np.concatenate([base, rng.uniform(0.3, np.pi - 0.3, patch.dim - len(base))])
    return patch, point, rng.uniform(1e-4, 2e-3, patch.dim)


@st.composite
def dense_metrics(draw):
    """A random metric with every entry nonzero, SPD on its box, a point, and
    an invertible linear map A near the identity."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    B0 = rng.normal(size=(n, n))
    B1 = 0.4 * rng.normal(size=(n, n, n))
    B2 = 0.2 * rng.normal(size=(n, n, n))

    def g(x):
        x = np.asarray(x, dtype=float)
        B = B0 + np.tensordot(x, B1, axes=1) + np.tensordot(np.sin(2.0 * x), B2, axes=1)
        return B @ B.swapaxes(-1, -2) + 0.5 * np.eye(n)

    patch = MetricPatch(dim=n, domain=((-1.0, 1.0),) * n, g=g)
    return patch, rng.uniform(-0.5, 0.5, n), np.eye(n) + 0.2 * rng.uniform(-1.0, 1.0, (n, n))


def _bits(*values) -> bytes:
    return b"".join(np.asarray(v, dtype=float).tobytes() for v in values)


class TestContractionRoutes:
    """The oracle's contractions against the dense references.

    The oracle reads a metric's diagonal and forms each contraction that has
    one nonzero summand as that product; the reference reads the full metric,
    takes Ricci's two traces of the whole (d, d, d, d) Christoffel derivative
    and contracts everything with einsum.  On a diagonal metric each of those
    sums has one nonzero product, and every sum with more than one runs on
    operands of the same layout in both routes, so the routes agree bit for
    bit.  On dense metrics the reference is checked on its own: Ricci is a
    tensor, and its second fundamental form's matrix products equal the
    einsum contraction to roundoff.
    """

    @given(diagonal_charts())
    @settings(max_examples=200, deadline=None)
    def test_diagonal_charts_bit_equal(self, chart):
        patch, point, step = chart
        rep = numeric_curvature(patch, point, step=step)
        ref = oracle_reference.numeric_curvature(patch, point, step=step)
        assert rep.ricci.tobytes() == ref.ricci.tobytes()
        assert (rep.scalar, rep.min_ricci_eigenvalue) == (ref.scalar, ref.min_ricci_eigenvalue)

    @pytest.mark.parametrize("dim", [3, 5, 7, 9])
    def test_certificate_charts_bit_equal(self, dim):
        # The bulk and taper charts of a tangent 2-chain's accepted steps,
        # three points each: where the certificate's bits come from.
        bulk, taper = _chain_oracle_calls(dim)
        assert len(bulk) >= 3 and len(taper) >= 3
        for args, kwargs, rep in bulk[:3]:
            ref = oracle_reference.numeric_curvature(*args, **kwargs)
            assert _bits(rep.ricci, rep.scalar, rep.min_ricci_eigenvalue) == _bits(
                ref.ricci, ref.scalar, ref.min_ricci_eigenvalue)
        for args, kwargs, rep in taper[:3]:
            ref = oracle_reference.numeric_second_fundamental_form(*args, **kwargs)
            assert _bits(rep.form, rep.induced_metric, rep.principal_curvatures) == _bits(
                ref.form, ref.induced_metric, ref.principal_curvatures)

    @given(dense_metrics())
    @settings(max_examples=50, deadline=None)
    def test_dense_metrics_agree(self, metric):
        patch, point, A = metric
        # Ricci of the metric pulled back by y -> A y is A^T Ric(A y) A
        pulled = MetricPatch(dim=patch.dim, domain=((-2.0, 2.0),) * patch.dim,
                             g=lambda y: A.T @ patch.g(y @ A.T) @ A)
        ric = oracle_reference.numeric_curvature(pulled, np.linalg.solve(A, point)).ricci
        ref = A.T @ oracle_reference.numeric_curvature(patch, point).ricci @ A
        assert np.abs(ric - ref).max() <= 1e-6 * np.abs(ref).max()
        hyper = GraphHypersurface(axis=0, height=lambda x: 0.1 * np.sin(x.sum(axis=-1)))
        route = oracle_reference.numeric_second_fundamental_form
        form = route(patch, hyper, point[1:]).form
        ref = _einsum_route(route, patch, hyper, point[1:]).form
        assert np.abs(form - ref).max() <= 1e-8 * np.abs(ref).max()

    def test_no_dense_temporaries(self):
        # Ricci at d = 18 from (rows, d) diagonals and (d, d, d) arrays: a
        # zero-filled (1298, 18, 18) stack is 3.4 MB, one (18,)*4 array 0.84 MB
        res = _search_9_9()
        patch, curve, keep, step = meancurv.bulk_patch(res.pair, 9, 9, d_min=1e-4)
        i = keep[keep.size // 2]
        s0 = max(0.5 * curve.F[i], 3e-4 * res.pair.right.bN)
        point = np.concatenate([[curve.t_tilde[i], s0], np.full(16, math.pi / 2 + 0.1)])
        numeric_curvature(patch, point, step=step)
        tracemalloc.start()
        try:
            numeric_curvature(patch, point, step=step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_stacked_bulk_check_stays_small(self):
        # one chart call on the stencils of three points: the (3894, 18)
        # diagonals are 0.56 MB, and each difference pass holds a few of them
        res = _search_9_9()
        profiles.bulk_scalar_samples(res.pair, 9, 9)
        tracemalloc.start()
        try:
            profiles.bulk_scalar_samples(res.pair, 9, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    @pytest.mark.parametrize("p,q", [(3, 3), (9, 9)])
    def test_taper_minimum_equal(self, p, q):
        # the certificate records only the taper's minimum
        taper = profiles.taper_check(p, q, 0.2, 1.0, 0.6)
        assert taper == _einsum_route(profiles.taper_check, p, q, 0.2, 1.0, 0.6)


@functools.lru_cache(maxsize=None)
def _search_9_9():
    return profiles.search_parameters(9, 9, 1.0, 0.3, mc_margin_tol=1e-9, grid_n=2048)


def _outcome(fn, *args, **kwargs):
    """The one-point call's report, or the named error it raised."""
    try:
        return fn(*args, **kwargs)
    except (OracleDomainError, NonSPDMetricError) as exc:
        return exc


def _outcome_bits(out):
    """A report's arrays and scalars as bytes, or an error's type and message."""
    if isinstance(out, ValueError):
        return type(out), str(out)
    return tuple(np.asarray(v, dtype=float).tobytes() for v in vars(out).values())


@st.composite
def chart_stacks(draw):
    """A diagonal chart, a stack of 1 to 5 points and per-coordinate steps;
    some points lie within three steps of the domain's lower edge in one
    coordinate, so within two steps for some of them."""
    patch, point, step = draw(diagonal_charts())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 5))
    lo, hi = np.asarray(patch.domain, dtype=float).T
    points = rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), (n, patch.dim))
    points[0] = point
    for i in np.flatnonzero(rng.random(n) < 0.4):
        k = rng.integers(patch.dim)
        points[i, k] = lo[k] + rng.uniform(1.0, 3.0) * step[k]
    return patch, points, step


def _graph_over(patch):
    """A graph over the patch's first coordinate, inside its range, computed
    row by row like the charts."""
    lo, hi = patch.domain[0]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return GraphHypersurface(axis=0, height=lambda x: mid + 0.3 * half * np.sin(
        sum(x[..., i] for i in range(x.shape[-1]))))


class TestPointStacks:
    """A stack of points gives every point the outcome of its one-point call,
    to the bit: the chart call, the value checks and the differences are
    stacked, and every multi-summand sum stays a per-point call."""

    @given(chart_stacks())
    @settings(max_examples=100, deadline=None)
    def test_stack_equals_one_point_at_a_time(self, case):
        patch, points, step = case
        graph = _graph_over(patch)
        for fn, args, rows in ((numeric_curvature, (patch,), points),
                               (numeric_second_fundamental_form, (patch, graph), points[:, 1:])):
            stacked = fn(*args, rows, step=step)
            assert len(stacked) == len(rows)
            for x, out in zip(rows, stacked):
                assert _outcome_bits(out) == _outcome_bits(_outcome(fn, *args, x, step=step))
            # a permutation of the stack gives each point the same outcome
            perm = np.random.default_rng(len(rows)).permutation(len(rows))
            permuted = fn(*args, rows[perm], step=step)
            assert [_outcome_bits(out) for out in permuted] == [
                _outcome_bits(stacked[i]) for i in perm]

    @given(chart_stacks(), st.integers(0, 4))
    @settings(max_examples=50, deadline=None)
    def test_indefinite_stencil_drops_only_its_point(self, case, pick):
        patch, points, step = case
        plain = numeric_curvature(patch, points, step=step)
        read = [i for i, out in enumerate(plain) if not isinstance(out, OracleDomainError)]
        if not read:
            return
        bad = read[pick % len(read)]

        def g(x):
            # the first diagonal entry negated on the rows of one point's stencil
            D = patch.g(x)
            mine = (np.abs(x - points[bad]) <= step).all(axis=-1)
            return np.where(mine[:, np.newaxis] & (np.arange(patch.dim) == 0), -D, D)

        outs = numeric_curvature(MetricPatch(dim=patch.dim, domain=patch.domain, g=g),
                                 points, step=step)
        assert _outcome_bits(outs[bad]) == (
            NonSPDMetricError, "metric matrix is not positive definite on the stencil")
        assert [_outcome_bits(out) for i, out in enumerate(outs) if i != bad] == [
            _outcome_bits(out) for i, out in enumerate(plain) if i != bad]

    @pytest.mark.parametrize("first,later,message", [
        (np.nan, 0.0, "metric matrix is not finite on the stencil"),
        (0.0, np.nan, "metric matrix is not positive definite on the stencil"),
    ])
    def test_taper_raises_the_first_failing_point(self, first, later, message):
        # the collar warp fails from t = -0.4 on (the last two of the five
        # samples) with one error, and from t = -0.1 on (the last) with another
        def k(tt):
            tt = np.asarray(tt)
            return np.where(tt > -0.1, later, np.where(tt > -0.4, first, 1.0 + 0.2 * tt))

        ep = EpsilonProfile(a2=-1.0, b2=0.0, eps_end=0.6)
        with pytest.raises(NonSPDMetricError, match=f"^{message}$"):
            meancurv.z2_mean_curvature(ep, k, r=1.0, p=3, q=3)

    def test_stacked_check_keeps_no_frames(self):
        # a dropped sample's error is built, not raised: stored with a
        # traceback it would keep the check's frames in a reference cycle
        res = profiles.search_parameters(3, 3, math.pi / 4 + 0.1, 0.2, mc_margin_tol=1e-9,
                                         grid_n=2048)
        gc.collect()
        gc.disable()
        try:
            scalars, tried = profiles.bulk_scalar_samples(res.pair, 3, 3)
            assert len(scalars) < tried
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestClosedFormBridge:
    def test_round_sphere_as_doubly_warped(self):
        # f = sin t, h = cos t realizes the round sphere; every component is p+q-2
        p = q = 3
        t = math.pi / 4
        jet = WarpedJet(t=t, f=math.sin(t), f1=math.cos(t), f2=-math.sin(t),
                        h=math.cos(t), h1=-math.sin(t), h2=-math.cos(t))
        rt, rh, rf = doubly_warped_ricci(jet, p, q)
        assert rt == pytest.approx(p + q - 2)
        assert rh == pytest.approx(p + q - 2)
        assert rf == pytest.approx(p + q - 2)
        assert doubly_warped_scalar(jet, p, q) == pytest.approx((p + q - 1) * (p + q - 2))

    def test_product_constants(self):
        p, q = 5, 4
        jet = WarpedJet(t=0.0, f=1.3, f1=0.0, f2=0.0, h=0.7, h1=0.0, h2=0.0)
        rt, rh, rf = doubly_warped_ricci(jet, p, q)
        assert rt == pytest.approx(0.0)
        assert rh == pytest.approx((q - 2) / 0.7 ** 2)
        assert rf == pytest.approx((p - 2) / 1.3 ** 2)
        assert doubly_warped_scalar(jet, p, q) == pytest.approx(
            (q - 1) * (q - 2) / 0.7 ** 2 + (p - 1) * (p - 2) / 1.3 ** 2)

    def test_single_warped_slice_vs_oracle(self):
        # h constant, f = r sin(t/r): the fiber factor is a round cap slice
        r0, q = 2.0, 2
        p = 4

        def f(t):
            return r0 * np.sin(np.asarray(t) / r0)

        def h(t):
            return np.ones_like(np.asarray(t, dtype=float))

        patch = doubly_warped_patch(f, h, p, q, (0.4, 1.6))
        t0 = 1.0
        point = np.concatenate([[t0], np.full(q - 1, 1.2), np.full(p - 1, 1.1)])
        rep = numeric_curvature(patch, point)
        jet = WarpedJet(t=t0, f=float(f(t0)), f1=math.cos(t0 / r0),
                        f2=-math.sin(t0 / r0) / r0, h=1.0, h1=0.0, h2=0.0)
        assert doubly_warped_scalar(jet, p, q) == pytest.approx(rep.scalar, rel=1e-6)

    def test_random_jets_componentwise(self):
        # the acceptance criterion runs 100; a fast spot check here
        for _ in range(5):
            _assert_jet_matches_oracle(RNG, p=3, q=3)


def random_warping(rng):
    """Random smooth positive function with analytic jets: exp(trig poly)."""
    a = rng.uniform(-0.3, 0.3, 3)
    w = rng.uniform(0.5, 1.5, 3)
    phi = rng.uniform(0, 2 * np.pi, 3)
    c0 = rng.uniform(-0.2, 0.4)

    def val(t):
        t = np.asarray(t, dtype=float)
        g = c0 + sum(ak * np.sin(wk * t + pk) for ak, wk, pk in zip(a, w, phi))
        return np.exp(g)

    def d1(t):
        t = np.asarray(t, dtype=float)
        g1 = sum(ak * wk * np.cos(wk * t + pk) for ak, wk, pk in zip(a, w, phi))
        return val(t) * g1

    def d2(t):
        t = np.asarray(t, dtype=float)
        g1 = sum(ak * wk * np.cos(wk * t + pk) for ak, wk, pk in zip(a, w, phi))
        g2 = sum(-ak * wk * wk * np.sin(wk * t + pk) for ak, wk, pk in zip(a, w, phi))
        return val(t) * (g1 * g1 + g2)

    return val, d1, d2


def _assert_jet_matches_oracle(rng, p, q, rel=1e-5):
    f, f1, f2 = random_warping(rng)
    h, h1, h2 = random_warping(rng)
    t0 = rng.uniform(0.8, 1.2)
    patch = doubly_warped_patch(f, h, p, q, (t0 - 0.5, t0 + 0.5))
    point = np.concatenate([[t0],
                            rng.uniform(1.0, 2.0, q - 1),
                            rng.uniform(1.0, 2.0, p - 1)])
    rep = numeric_curvature(patch, point)
    jet = WarpedJet(t=t0, f=float(f(t0)), f1=float(f1(t0)), f2=float(f2(t0)),
                    h=float(h(t0)), h1=float(h1(t0)), h2=float(h2(t0)))
    rt, rh, rf = doubly_warped_ricci(jet, p, q)
    g0 = patch.g(point[np.newaxis])[0]
    ric = rep.ricci
    # unit-vector components along the orthogonal coordinate directions
    oracle_rt = ric[0, 0] / g0[0]
    oracle_rh = ric[1, 1] / g0[1]
    oracle_rf = ric[q, q] / g0[q]
    for closed, oracle in ((rt, oracle_rt), (rh, oracle_rh), (rf, oracle_rf)):
        assert abs(closed - oracle) <= rel * (1.0 + abs(closed))
    scal = doubly_warped_scalar(jet, p, q)
    assert abs(scal - rep.scalar) <= rel * (1.0 + abs(scal))


class TestSecondFundamentalForm:
    def test_sphere_equator(self):
        patch = sphere_polar(3, 1.0)
        hs = GraphHypersurface(axis=0, height=lambda x: np.full(x.shape[:-1], np.pi / 2),
                               normal_sign=-1)
        rep = numeric_second_fundamental_form(patch, hs, [1.2, 0.8])
        assert np.abs(rep.principal_curvatures).max() < 1e-8
        assert rep.mean_curvature == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("R", [math.pi / 4, 3 * math.pi / 4])
    def test_cap_boundary(self, R):
        patch = sphere_polar(4, 1.0)
        hs = GraphHypersurface(axis=0, height=lambda x: np.full(x.shape[:-1], R),
                               normal_sign=-1)
        rep = numeric_second_fundamental_form(patch, hs, [1.2, 0.8, 1.5])
        expected = 1.0 / math.tan(R)
        assert rep.principal_curvatures == pytest.approx(
            np.full(3, expected), rel=1e-4)

    def test_singular_induced_metric_error(self):
        # A graph of slope K = 1e9 along both base directions in flat R^3:
        # the induced metric I + K^2 (1, 1)(1, 1)^T rounds to a singular
        # matrix, which the pencil's Cholesky factorization rejects.
        hs = GraphHypersurface(axis=2, height=lambda x: 1e9 * (x[..., 0] + x[..., 1]))
        with pytest.raises(NonSPDMetricError, match="^induced metric matrix"):
            numeric_second_fundamental_form(euclidean_patch(3), hs, [0.0, 0.0])

    def test_flat_circle(self):
        a = 0.5
        patch = euclidean_patch(2, half_width=1.0)
        hs = GraphHypersurface(axis=1,
                               height=lambda x: np.sqrt(a * a - x[..., 0] ** 2),
                               normal_sign=-1)
        rep = numeric_second_fundamental_form(patch, hs, [0.0])
        assert rep.principal_curvatures[0] == pytest.approx(1.0 / a, rel=1e-5)
        assert rep.mean_curvature == pytest.approx(1.0 / a, rel=1e-5)


# Pencil eigenvalues against scipy.linalg.eigh.  The reduction C = L^-1 A L^-T
# rounds each entry of C to a few ulps of its size when B is diagonal (it only
# rescales A, whatever cond(B) is) or well conditioned, so both routes' errors
# are a few d eps max|lambda|: the bound is PENCIL_C d eps max|lambda|.
PENCIL_C = 8.0
EPS = np.finfo(float).eps


def _pencil_bound(ref) -> float:
    return PENCIL_C * ref.size * EPS * np.abs(ref).max()


@st.composite
def pencils(draw):
    """Random symmetric A and SPD B, d in 1..20: B diagonal with cond up to
    1e17, as on the bulk chart, or dense with cond up to 1e2."""
    d = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    M = rng.normal(size=(d, d)) * 10.0 ** rng.uniform(-5, 5)
    if draw(st.booleans()):
        B = np.diag(10.0 ** (rng.uniform(-8, 8) + rng.uniform(0, 17, d)))
    else:
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        B = (Q * 10.0 ** rng.uniform(-1, 1, d)) @ Q.T
        B = 0.5 * (B + B.T)
    return M + M.T, B


@given(pencils())
@settings(max_examples=300, deadline=None)
def test_pencil_eigenvalues_match_scipy(pencil):
    A, B = pencil
    eigs = oracle._pencil_eigenvalues(A, oracle._cholesky(B, "metric"))
    ref = scipy.linalg.eigh(A, B, eigvals_only=True)
    assert np.abs(eigs - ref).max() <= _pencil_bound(ref)


def test_indefinite_pencil_is_a_named_error():
    # returned, not raised: a stacked call stores it as the point's outcome
    err = oracle._cholesky(np.diag([2.0, -1.0, 3.0]), "induced metric")
    assert isinstance(err, NonSPDMetricError)
    assert str(err).startswith("induced metric matrix is not positive")
    assert err.__traceback__ is None and err.__context__ is None


@functools.lru_cache(maxsize=None)
def _chain_oracle_calls(dim):
    """Every bulk and taper oracle point of a tangent 2-chain's construction
    that returned a report, as (args, kwargs, report) with the point's own
    one-point arguments, once per test session."""
    bulk, taper = [], []

    def recording(calls, fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            *head, points = args
            assert np.ndim(points) == 2, "the checks make one stacked call each"
            calls.extend(((*head, x), kwargs, rep) for x, rep in zip(points, out)
                         if not isinstance(rep, ValueError))
            return out
        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(profiles, "numeric_curvature", recording(bulk, oracle.numeric_curvature))
        mp.setattr(meancurv, "numeric_second_fundamental_form",
                   recording(taper, oracle.numeric_second_fundamental_form))
        spec = NiceCoordinateSpec(p=dim, q=dim, R=math.pi / 4, N=1.0, kappa=0.5)
        assert run_construction(tangent_chain(2, dim), spec).passed
    return bulk, taper


@pytest.mark.parametrize("dim", [3, 5, 7, 9])
def test_chain_oracle_eigenvalues_match_scipy(dim):
    # Every bulk and taper oracle call of a tangent 2-chain's construction.
    bulk, taper = _chain_oracle_calls(dim)
    assert bulk and taper
    for (patch, _), _, rep in bulk:
        g0 = np.diag(patch.g(rep.point[np.newaxis])[0])
        ref = scipy.linalg.eigh(rep.ricci, g0, eigvals_only=True)
        assert abs(rep.min_ricci_eigenvalue - ref[0]) <= _pencil_bound(ref)
    for _, _, rep in taper:
        ref = scipy.linalg.eigh(rep.form, rep.induced_metric, eigvals_only=True)
        assert np.abs(rep.principal_curvatures - ref).max() <= _pencil_bound(ref)
        # a zero form gives +0.0, as eigh does: the certificate records the
        # taper minimum, and -0.0 would change its bytes
        zero = ref == 0.0
        assert (np.signbit(rep.principal_curvatures[zero]) == np.signbit(ref[zero])).all()
