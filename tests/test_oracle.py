import functools
import gc
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import oracle_reference
from charts_reference import (affine_warp, doubly_warped_patch, doubly_warped_scalar,
                              euclidean_patch, scaled_patch, sphere_polar, sphere_stereographic)
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
        g0 = oracle_reference.metric_values(patch, point[np.newaxis])[0]
        assert np.abs(g0 - np.diag(np.diag(g0))).max() > 0.1 * np.abs(g0).max()
        rep = oracle_reference.dense_curvature(patch, point)
        assert rep.scalar == pytest.approx(n * (n - 1) / r ** 2, rel=1e-6)
        assert rep.min_ricci_eigenvalue == pytest.approx((n - 1) / r ** 2, rel=1e-6)

    def test_near_boundary_error(self):
        # the closed box is the domain: its edge is evaluated, a point past it is not
        assert numeric_curvature(euclidean_patch(2), [1.0, 0.0]).scalar == 0.0
        with pytest.raises(OracleDomainError):
            numeric_curvature(euclidean_patch(2), [1.0001, 0.0])


def _counting(patch):
    """``patch`` with a ``g`` that records the number of points of each call."""
    calls = []

    def g(x):
        calls.append(len(x))
        return patch.g(x)

    return MetricPatch(dim=patch.dim, domain=patch.domain, g=g), calls


def constant_height(value):
    """The 2-jet of the constant height ``value`` over (n, k) base points."""
    return lambda x: (np.full(len(x), value), np.zeros(x.shape), np.zeros(x.shape + x.shape[-1:]))


FLAT_GRAPH = GraphHypersurface(axis=0, height=constant_height(0.1))


def _jets(diagonal):
    """A chart's 2-jet with the value ``diagonal(x)`` and zero derivatives."""
    def g(x):
        D = np.asarray(diagonal(x), dtype=float)
        return D, np.zeros(D.shape + D.shape[-1:]), np.zeros(D.shape + D.shape[-1:] * 2)
    return g


class TestFailBeforeEvaluating:
    """Both oracles reject a point outside the domain before evaluating the
    metric, and after one metric call, before any contraction, a chart that
    does not return one finite 2-jet with a positive diagonal per point."""

    @pytest.mark.parametrize("point", [[1.0001, 0.0], [0.0, -1.0 - 1.5e-3]])
    def test_boundary_point_evaluates_no_metric(self, point):
        patch, calls = _counting(euclidean_patch(2))
        with pytest.raises(OracleDomainError, match="^point .* outside the chart's domain$"):
            numeric_curvature(patch, point)
        graph = GraphHypersurface(axis=0, height=constant_height(point[0]))
        with pytest.raises(OracleDomainError,
                           match="^graph point .* outside the chart's domain$"):
            numeric_second_fundamental_form(patch, graph, point[1:])
        assert calls == []

    @pytest.mark.parametrize("value,error,message", [
        (_jets(lambda x: np.broadcast_to([1.0, -1.0], x.shape)), NonSPDMetricError,
         "metric matrix is not positive definite at the point"),
        # a finite diagonal with an infinite Hessian entry
        (lambda x: (np.ones(x.shape), np.zeros(x.shape + (2,)),
                    np.full(x.shape + (2, 2), np.inf)), NonSPDMetricError,
         "metric matrix is not finite at the point: value, gradient or Hessian"),
        (lambda x: np.broadcast_to(np.eye(2), x.shape + (2,)), MetricShapeError,
         r"metric jets must have shapes \(\(1, 2\), \(1, 2, 2\), \(1, 2, 2, 2\)\), "
         r"got \(1, 2, 2\)"),
        (_jets(lambda x: np.ones(x.shape[:-1] + (3,))), MetricShapeError,
         r"metric jets must have shapes \(\(1, 2\), \(1, 2, 2\), \(1, 2, 2, 2\)\), "
         r"got \(\(1, 3\), \(1, 3, 3\), \(1, 3, 3, 3\)\)"),
    ], ids=["indefinite", "nonfinite", "matrices", "width"])
    @pytest.mark.parametrize("route", ["ricci", "second_form"])
    def test_bad_metric_is_not_differenced(self, value, error, message, route):
        patch, calls = _counting(MetricPatch(dim=2, domain=((-1, 1), (-1, 1)), g=value))
        with pytest.raises(error, match=f"^{message}$"):
            if route == "ricci":
                numeric_curvature(patch, [0.0, 0.0])
            else:
                numeric_second_fundamental_form(patch, FLAT_GRAPH, [0.0])
        assert calls == [1]


def _sheared_sphere(n, r):
    """Round S^n(r) in the stereographic chart pulled back by the linear map
    y -> A y: g_A(y) = A^T g(A y) A, with a fixed invertible A."""
    A = np.eye(n) + 0.4 * np.triu(np.ones((n, n)), 1) - 0.3 * np.tril(np.ones((n, n)), -1)
    base = sphere_stereographic(n, r)

    def g(y):
        return A.T @ (base.g(np.asarray(y, dtype=float) @ A.T)[0][..., np.newaxis] * A)

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
        t0 = rng.uniform(0.8, 1.2)
        patch = doubly_warped_patch(random_warping(rng), random_warping(rng), p, q,
                                    (t0 - 0.5, t0 + 0.5))
        base = [t0]
    else:
        w = rng.uniform(-0.5, 0.5, p)
        c = rng.uniform(0.5, 2.0)

        def radius(xb):
            # c exp(phi), phi = sum_i w_i x_i + 0.3 sin x_i, and its 2-jet
            R = c * np.exp(sum(w[i] * xb[:, i] + 0.3 * np.sin(xb[:, i]) for i in range(p)))
            d1 = w + 0.3 * np.cos(xb)
            d2 = d1[:, :, None] * d1[:, None, :] + np.eye(p) * (-0.3 * np.sin(xb))[:, :, None]
            return R, R[:, None] * d1, R[:, None, None] * d2

        patch = warped_patch(flat_patch(((-1.0, 1.0),) * p), radius, q)
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


def sine_height(offset, amplitude):
    """The graph x_axis = offset + amplitude sin(sum of the other coordinates),
    with its gradient and Hessian, computed row by row like the charts."""
    def height(x):
        u = sum(x[:, i] for i in range(x.shape[1]))
        ones = np.ones(x.shape[1])
        return (offset + amplitude * np.sin(u), amplitude * np.cos(u)[:, None] * ones,
                -amplitude * np.sin(u)[:, None, None] * np.outer(ones, ones))
    return height


# The finite-difference reference's error on the random diagonal charts, as a
# share of max(1, |exact|): for Ricci its Richardson truncation, O(h^4), plus
# the roundoff of its second differences, O(eps/h^2); for the second
# fundamental form one central difference, O(h^2), plus the same roundoff.
# At the steps below the worst of 400 charts read 6.4e-9 (Ricci) and 6.9e-8
# (form); each bound leaves a factor above 10.
RICCI_STEP, RICCI_BOUND = 2e-3, 1e-7
FORM_STEP, FORM_BOUND = 1e-4, 1e-6


class TestContractionRoutes:
    """The exact oracle against the finite-difference references.

    ``tests/oracle_reference.py`` keeps the finite-difference oracle the exact
    one replaced and the dense route.  The first reads the metric's diagonal
    and forms each contraction that has one nonzero summand as that product;
    the second reads the full metric, takes Ricci's two traces of the whole
    (d, d, d, d) Christoffel derivative and contracts everything with einsum.
    On a diagonal metric the two references agree bit for bit.  The exact
    oracle agrees with them within the references' truncation bound.  On
    dense metrics the dense route is checked on its own: Ricci is a tensor,
    and its second fundamental form's matrix products equal the einsum
    contraction to roundoff.
    """

    @given(diagonal_charts())
    @settings(max_examples=200, deadline=None)
    def test_diagonal_charts_bit_equal(self, chart):
        patch, point, step = chart
        rep = oracle_reference.numeric_curvature(patch, point, step=step)
        ref = oracle_reference.dense_curvature(patch, point, step=step)
        assert rep.ricci.tobytes() == ref.ricci.tobytes()
        assert (rep.scalar, rep.min_ricci_eigenvalue) == (ref.scalar, ref.min_ricci_eigenvalue)

    @given(diagonal_charts())
    @settings(max_examples=100, deadline=None)
    def test_exact_oracle_within_the_difference_bound(self, chart):
        patch, point, _ = chart
        rep = numeric_curvature(patch, point)
        ref = oracle_reference.numeric_curvature(patch, point, step=RICCI_STEP)
        scale = max(1.0, np.abs(rep.ricci).max())
        assert np.abs(rep.ricci - ref.ricci).max() <= RICCI_BOUND * scale
        graph = _graph_over(patch)
        form = numeric_second_fundamental_form(patch, graph, point[1:])
        ref = oracle_reference.numeric_second_fundamental_form(patch, graph, point[1:],
                                                               step=FORM_STEP)
        scale = max(1.0, np.abs(form.form).max())
        assert np.abs(form.form - ref.form).max() <= FORM_BOUND * scale

    @pytest.mark.parametrize("dim", [3, 5, 7, 9])
    def test_certificate_charts_bit_equal(self, dim):
        # Every bulk and taper point of a tangent 2-chain's construction, where
        # the certificate's bits come from: each stacked outcome has the bits
        # of the point's one-point call.
        bulk, taper = _chain_oracle_calls(dim)
        assert len(bulk) >= 4 and len(taper) >= 5
        for args, kwargs, rep in bulk:
            one = numeric_curvature(*args, **kwargs)
            assert _outcome_bits(one) == _outcome_bits(rep)
        for args, kwargs, rep in taper:
            one = numeric_second_fundamental_form(*args, **kwargs)
            assert _outcome_bits(one) == _outcome_bits(rep)

    @given(dense_metrics())
    @settings(max_examples=50, deadline=None)
    def test_dense_metrics_agree(self, metric):
        patch, point, A = metric
        # Ricci of the metric pulled back by y -> A y is A^T Ric(A y) A
        pulled = MetricPatch(dim=patch.dim, domain=((-2.0, 2.0),) * patch.dim,
                             g=lambda y: A.T @ patch.g(y @ A.T) @ A)
        ric = oracle_reference.dense_curvature(pulled, np.linalg.solve(A, point)).ricci
        ref = A.T @ oracle_reference.dense_curvature(patch, point).ricci @ A
        assert np.abs(ric - ref).max() <= 1e-6 * np.abs(ref).max()
        hyper = GraphHypersurface(axis=0, height=sine_height(0.0, 0.1))
        route = oracle_reference.dense_second_fundamental_form
        form = route(patch, hyper, point[1:]).form
        ref = _einsum_route(route, patch, hyper, point[1:]).form
        assert np.abs(form - ref).max() <= 1e-8 * np.abs(ref).max()

    def test_no_dense_temporaries(self):
        # Ricci at d = 18 from (d, d, d) arrays: one (18,)*4 array is 0.84 MB
        res = _search_9_9()
        patch = meancurv.bulk_patch(res.pair, 9, 9)
        point = np.concatenate([_bulk_slice(res.pair), np.full(16, math.pi / 2 + 0.1)])
        numeric_curvature(patch, point)
        tracemalloc.start()
        try:
            numeric_curvature(patch, point)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_stacked_bulk_check_stays_small(self):
        # one chart call on the four points: their (4, 18, 18, 18) Hessians
        # are 0.19 MB, and the 1024-point curve that places them a few times that
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


def _bulk_slice(pair):
    """(t, s) of a bulk point halfway along the boundary curve, where D >= 1e-4."""
    curve = meancurv.build_curve(pair, pair.right.beta, pair.right.N, grid_n=1024)
    keep = np.flatnonzero(curve.D >= 1e-4)
    i = keep[keep.size // 2]
    return [curve.t[i], max(0.5 * curve.F[i], 3e-4 * pair.right.bN)]


@functools.lru_cache(maxsize=None)
def _search_3_3():
    return profiles.search_parameters(3, 3, math.pi / 4, 0.1, mc_margin_tol=1e-9, grid_n=256)


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
    """A diagonal chart and a stack of 1 to 5 points; in some points one
    coordinate lies within 1e-3 of the domain's lower edge, on either side."""
    patch, point, _ = draw(diagonal_charts())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 5))
    lo, hi = np.asarray(patch.domain, dtype=float).T
    points = rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), (n, patch.dim))
    points[0] = point
    for i in np.flatnonzero(rng.random(n) < 0.4):
        k = rng.integers(patch.dim)
        points[i, k] = lo[k] + rng.uniform(-1e-3, 1e-3)
    return patch, points


def _graph_over(patch):
    """A graph over the patch's first coordinate, inside its range, computed
    row by row like the charts."""
    lo, hi = patch.domain[0]
    return GraphHypersurface(axis=0, height=sine_height(0.5 * (lo + hi), 0.15 * (hi - lo)))


class TestPointStacks:
    """A stack of points gives every point the outcome of its one-point call,
    to the bit: the chart call and the value checks are stacked, and
    everything after them runs per point."""

    @given(chart_stacks())
    @settings(max_examples=100, deadline=None)
    def test_stack_equals_one_point_at_a_time(self, case):
        patch, points = case
        graph = _graph_over(patch)
        for fn, args, rows in ((numeric_curvature, (patch,), points),
                               (numeric_second_fundamental_form, (patch, graph), points[:, 1:])):
            stacked = fn(*args, rows)
            assert len(stacked) == len(rows)
            for x, out in zip(rows, stacked):
                assert _outcome_bits(out) == _outcome_bits(_outcome(fn, *args, x))
            # a permutation of the stack gives each point the same outcome
            perm = np.random.default_rng(len(rows)).permutation(len(rows))
            permuted = fn(*args, rows[perm])
            assert [_outcome_bits(out) for out in permuted] == [
                _outcome_bits(stacked[i]) for i in perm]

    @given(chart_stacks(), st.integers(0, 4))
    @settings(max_examples=50, deadline=None)
    def test_indefinite_stencil_drops_only_its_point(self, case, pick):
        patch, points = case
        plain = numeric_curvature(patch, points)
        read = [i for i, out in enumerate(plain) if not isinstance(out, OracleDomainError)]
        if not read:
            return
        bad = read[pick % len(read)]

        def g(x):
            # the first diagonal entry negated at one point
            D, dD, d2D = patch.g(x)
            mine = (x == points[bad]).all(axis=-1)
            return np.where(mine[:, np.newaxis] & (np.arange(patch.dim) == 0), -D, D), dD, d2D

        outs = numeric_curvature(MetricPatch(dim=patch.dim, domain=patch.domain, g=g), points)
        assert _outcome_bits(outs[bad]) == (
            NonSPDMetricError, "metric matrix is not positive definite at the point")
        assert [_outcome_bits(out) for i, out in enumerate(outs) if i != bad] == [
            _outcome_bits(out) for i, out in enumerate(plain) if i != bad]

    @pytest.mark.parametrize("first,later,message", [
        (np.nan, 0.0, "metric matrix is not finite at the point: value, gradient or Hessian"),
        (0.0, np.nan, "metric matrix is not positive definite at the point"),
    ])
    def test_taper_raises_the_first_failing_point(self, first, later, message):
        # the collar warp fails from t = -0.4 on (the last two of the five
        # samples) with one error, and from t = -0.1 on (the last) with another
        def k(tt):
            k0 = np.where(tt > -0.1, later, np.where(tt > -0.4, first, 1.0 + 0.2 * tt))
            return k0, np.full(tt.shape, 0.2), np.zeros(tt.shape)

        ep = EpsilonProfile(a2=-1.0, b2=0.0, eps_end=0.6)
        with pytest.raises(NonSPDMetricError, match=f"^{message}$"):
            meancurv.z2_mean_curvature(ep, k, r=1.0, p=3, q=3)

    def test_stacked_check_keeps_no_frames(self):
        # a point's error is built, not raised: stored with a traceback it
        # would keep the call's frames in a reference cycle
        res = _search_9_9()
        patch = meancurv.bulk_patch(res.pair, 9, 9)
        inside = np.concatenate([_bulk_slice(res.pair), np.full(16, math.pi / 2 + 0.1)])
        outside = inside.copy()
        outside[0] = res.pair.b3 * 1.5
        gc.collect()
        gc.disable()
        try:
            outs = numeric_curvature(patch, np.stack([inside, outside]))
            assert isinstance(outs[1], OracleDomainError)
            assert gc.collect() == 0
        finally:
            gc.enable()


def _differenced_jets(patch, x, h, axes):
    """Central differences, with step h_k along each coordinate k of ``axes``,
    of the chart's diagonal and gradient at the points x: estimates of
    dD[:, k] and d2D[:, k]."""
    dD, d2D = [], []
    for k in axes:
        e = np.zeros(x.shape[1])
        e[k] = h[k]
        (Dp, gp, _), (Dm, gm, _) = patch.g(x + e), patch.g(x - e)
        dD.append((Dp - Dm) / (2.0 * h[k]))
        d2D.append((gp - gm) / (2.0 * h[k]))
    return np.stack(dD, axis=1), np.stack(d2D, axis=1)


def _close(exact, estimate, rel):
    return np.abs(exact - estimate).max() <= rel * max(1.0, np.abs(exact).max())


class TestChartJets:
    """The certificate's charts return the derivatives of their own values:
    each gradient and Hessian row against central differences of the
    diagonal and the gradient, at step 1e-6 of each coordinate's scale.  The
    differences err by O(h^2) times third derivatives plus O(eps/h), at most
    3.1e-9 of the scale here; the bound is JET_REL."""

    JET_REL = 1e-7

    @pytest.mark.parametrize("p,q", [(3, 3), (4, 6)])
    def test_taper_chart(self, p, q):
        ep = EpsilonProfile(a2=-1.0, b2=0.0, eps_end=0.6)
        patch = meancurv.z2_patch(ep, affine_warp(0.2), 1.0, p, q)
        x = np.full((5, patch.dim), math.pi / 2 + 0.1)
        x[:, 0] = np.linspace(-0.9, -0.1, 5)   # both sides of the taper's flat ends
        x[:, 1] = np.linspace(0.5, 1.5, 5)
        _D, dD, d2D = patch.g(x)
        est = _differenced_jets(patch, x, np.full(patch.dim, 1e-6), range(patch.dim))
        assert _close(dD, est[0], self.JET_REL) and _close(d2D, est[1], self.JET_REL)

    def test_bulk_chart(self):
        # Along s and the angles the bulk chart is a chart; along its first
        # coordinate a point is named by t while the jets are in t~, so there
        # the second derivative is the difference in t of the first, times
        # dt/dt~ = sqrt(E/D).
        pair = _search_3_3().pair
        patch = meancurv.bulk_patch(pair, 3, 3)
        t = np.linspace(pair.t1, pair.t1 + 0.02 * (pair.b3 - pair.t1), 6)[1:]
        jets = pair.jets(t)
        assert (jets.h2 != 0.0).all()   # on the collar rise
        x = np.full((5, patch.dim), math.pi / 2 + 0.1)
        x[:, 0], x[:, 1] = t, 0.4 * pair.right.bN
        _D, dD, d2D = patch.g(x)
        h = np.concatenate([[1e-6 * pair.t1, 1e-6 * pair.right.bN], np.full(patch.dim - 2, 1e-6)])
        est = _differenced_jets(patch, x, h, range(1, patch.dim))
        assert _close(dD[:, 1:], est[0], self.JET_REL) and _close(d2D[:, 1:], est[1], self.JET_REL)
        D, E = meancurv._neck_terms(jets.f, jets.f1, jets.f2, pair.right.bN)[:2]
        d_t = _differenced_jets(patch, x, h, [0])[1][:, 0, 0]
        # h'' is of order 1e-15 on the rise: relative to its own size
        second = d2D[:, 0, 0]
        assert np.abs(second - d_t * np.sqrt(E / D)[:, None]).max() <= (
            self.JET_REL * np.abs(second).max())


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

        f_jet = (f, lambda t: np.cos(t / r0), lambda t: -np.sin(t / r0) / r0)
        h_jet = (np.ones_like, np.zeros_like, np.zeros_like)
        patch = doubly_warped_patch(f_jet, h_jet, p, q, (0.4, 1.6))
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
    patch = doubly_warped_patch((f, f1, f2), (h, h1, h2), p, q, (t0 - 0.5, t0 + 0.5))
    point = np.concatenate([[t0],
                            rng.uniform(1.0, 2.0, q - 1),
                            rng.uniform(1.0, 2.0, p - 1)])
    rep = numeric_curvature(patch, point)
    jet = WarpedJet(t=t0, f=float(f(t0)), f1=float(f1(t0)), f2=float(f2(t0)),
                    h=float(h(t0)), h1=float(h1(t0)), h2=float(h2(t0)))
    rt, rh, rf = doubly_warped_ricci(jet, p, q)
    g0 = patch.g(point[np.newaxis])[0][0]
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
        hs = GraphHypersurface(axis=0, height=constant_height(np.pi / 2), normal_sign=-1)
        rep = numeric_second_fundamental_form(patch, hs, [1.2, 0.8])
        assert np.abs(rep.principal_curvatures).max() < 1e-8
        assert rep.mean_curvature == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("R", [math.pi / 4, 3 * math.pi / 4])
    def test_cap_boundary(self, R):
        patch = sphere_polar(4, 1.0)
        hs = GraphHypersurface(axis=0, height=constant_height(R), normal_sign=-1)
        rep = numeric_second_fundamental_form(patch, hs, [1.2, 0.8, 1.5])
        expected = 1.0 / math.tan(R)
        assert rep.principal_curvatures == pytest.approx(
            np.full(3, expected), rel=1e-4)

    def test_singular_induced_metric_error(self):
        # A graph of slope K = 1e9 along both base directions in flat R^3:
        # the induced metric I + K^2 (1, 1)(1, 1)^T rounds to a singular
        # matrix, which the pencil's Cholesky factorization rejects.
        hs = GraphHypersurface(axis=2, height=lambda x: (
            1e9 * (x[:, 0] + x[:, 1]), np.full(x.shape, 1e9), np.zeros((len(x), 2, 2))))
        with pytest.raises(NonSPDMetricError, match="^induced metric matrix"):
            numeric_second_fundamental_form(euclidean_patch(3), hs, [0.0, 0.0])

    def test_flat_circle(self):
        a = 0.5
        patch = euclidean_patch(2, half_width=1.0)
        def circle(x):
            # y = sqrt(a^2 - x^2): y' = -x/y, y'' = -a^2/y^3
            y = np.sqrt(a * a - x[:, 0] ** 2)
            return y, (-x[:, 0] / y)[:, None], (-a * a / y ** 3)[:, None, None]

        hs = GraphHypersurface(axis=1, height=circle, normal_sign=-1)
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
        g0 = np.diag(patch.g(rep.point[np.newaxis])[0][0])
        ref = scipy.linalg.eigh(rep.ricci, g0, eigvals_only=True)
        assert abs(rep.min_ricci_eigenvalue - ref[0]) <= _pencil_bound(ref)
    for _, _, rep in taper:
        ref = scipy.linalg.eigh(rep.form, rep.induced_metric, eigvals_only=True)
        assert np.abs(rep.principal_curvatures - ref).max() <= _pencil_bound(ref)
        # a zero form gives +0.0, as eigh does: the certificate records the
        # taper minimum, and -0.0 would change its bytes
        zero = ref == 0.0
        assert (np.signbit(rep.principal_curvatures[zero]) == np.signbit(ref[zero])).all()
