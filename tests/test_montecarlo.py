"""Tests for circulant-embedding simulation and its Monte Carlo checks."""

import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from gpchaos import montecarlo as mc
from gpchaos.chaos import chaos_spectrum, integrated_chaos_norms, parse_functional
from gpchaos.errors import DomainError, EmbeddingFailure, NotDifferentiable
from gpchaos.kernels import SquaredExponential, parse_kernel

SQEXP = parse_kernel("sqexp")
MATERN52 = parse_kernel("matern52")
MATERN12 = parse_kernel("matern12")
RQ = parse_kernel("rq:alpha=2,ell=1")

# Closed-form targets for E[(average of F(X_t) over [0,1])^2] on sqexp,
# from 2 * point_norm * int_0^1 (1-u) rho(u)^n du evaluated exactly.
H1_INTEGRATED = 0.8615277067962963
H2_INTEGRATED = 1.527911309881829
H11_INTEGRATED = 0.43233235838169365


def _stack(kernel, grid_points, n_paths, seed):
    xs, xds = [], []
    for path in mc.sample_paths(kernel, grid_points, n_paths, seed):
        xs.append(path.x)
        xds.append(path.xdot)
    return np.array(xs), np.array(xds)


class TestEmbeddingPlan:
    def test_embedding_size_grows_until_tail_decays(self):
        assert mc.build_embedding_plan(SQEXP, 512).embedding_size == 4096
        assert mc.build_embedding_plan(SQEXP, 2048).embedding_size == 16384

    def test_matern_tail_needs_more_padding(self):
        plan = mc.build_embedding_plan(MATERN52, 2048)
        assert plan.embedding_size == 32768

    def test_compact_support_stays_at_minimum_size(self):
        # Wendland covariance vanishes past one support length, so the
        # periodization tail is already zero at the smallest embedding.
        plan = mc.build_embedding_plan(parse_kernel("wendland:k=4"), 2048)
        assert plan.embedding_size == 8192

    def test_plan_reproduces_covariance(self):
        plan = mc.build_embedding_plan(SQEXP, 512)
        m = plan.embedding_size
        for tau in (0.0, 0.25, 0.5, 1.0):
            rec = np.sum(plan.eigenvalues * np.cos(plan.angular_frequencies * tau)) / m
            assert_allclose(rec, math.exp(-tau * tau), atol=1e-12)

    def test_plan_reproduces_derivative_moments(self):
        plan = mc.build_embedding_plan(SQEXP, 512)
        m = plan.embedding_size
        lam = plan.angular_frequencies
        var_xdot = np.sum(plan.eigenvalues * lam**2) / m
        assert_allclose(var_xdot, 2.0, atol=1e-9)
        cross = np.sum(plan.eigenvalues * lam * np.sin(lam * 0.5)) / m
        assert_allclose(cross, math.exp(-0.25), atol=1e-10)

    def test_fields(self):
        plan = mc.build_embedding_plan(SQEXP, 512)
        assert plan.kernel == "sqexp:ell=1"
        assert plan.grid_points == 512
        assert plan.grid_step == 1.0 / 511.0
        assert plan.sigma == math.sqrt(2.0)
        assert plan.eigenvalues.shape == (4096,)
        assert plan.eigenvalues.min() >= 0.0

    def test_clipping_is_roundoff_scale(self):
        plan = mc.build_embedding_plan(SQEXP, 2048)
        assert plan.clipped > 0
        assert plan.min_eigenvalue < 0.0
        assert abs(plan.min_eigenvalue) < 1e-10 * plan.eigenvalues.max()
        assert any("clipped" in note for note in plan.notes)

    def test_nondecaying_covariance_fails(self):
        with pytest.raises(EmbeddingFailure):
            mc.build_embedding_plan(parse_kernel("cosine"), 512)
        with pytest.raises(EmbeddingFailure):
            mc.build_embedding_plan(parse_kernel("periodic:T=2,ell=0.8"), 512)

    def test_indefinite_function_fails(self):
        class NotPSD(SquaredExponential):
            def r(self, t):
                t = np.asarray(t, dtype=float)
                out = (1.0 - 3.0 * t * t) * np.exp(-t * t)
                return out if out.ndim else float(out)

        with pytest.raises(EmbeddingFailure):
            mc.build_embedding_plan(NotPSD(1.0), 256)

    def test_rough_kernel_rejected(self):
        with pytest.raises(NotDifferentiable):
            mc.build_embedding_plan(MATERN12, 512)

    def test_support_lists_the_nonzero_eigenvalues(self):
        plan = mc.build_embedding_plan(SQEXP, 512)
        assert_array_equal(plan.support, np.flatnonzero(plan.eigenvalues))
        assert plan.support.size == 27

    def test_bad_grid_rejected(self):
        for grid in (1, 0, -4, 2.5):
            with pytest.raises(DomainError):
                mc.build_embedding_plan(SQEXP, grid)


class TestSamplePaths:
    def test_path_fields(self):
        paths = list(mc.sample_paths(SQEXP, 128, 3, seed=5))
        assert [p.path_index for p in paths] == [0, 1, 2]
        for p in paths:
            assert p.length == 128
            assert p.grid_step == 1.0 / 127.0
            assert p.seed == 5
            assert p.x.shape == (128,)
            assert p.xdot.shape == (128,)

    def test_same_seed_same_paths(self):
        xa, xda = _stack(SQEXP, 128, 4, seed=11)
        xb, xdb = _stack(SQEXP, 128, 4, seed=11)
        assert_array_equal(xa, xb)
        assert_array_equal(xda, xdb)

    def test_different_seed_different_paths(self):
        xa, _ = _stack(SQEXP, 128, 2, seed=11)
        xb, _ = _stack(SQEXP, 128, 2, seed=12)
        assert np.abs(xa - xb).max() > 1e-3

    def test_prefix_stability(self):
        # Path k is a function of (seed, k) alone, so asking for more paths
        # never changes the ones already drawn.
        x6, xd6 = _stack(SQEXP, 128, 6, seed=3)
        x3, xd3 = _stack(SQEXP, 128, 3, seed=3)
        assert_array_equal(x6[:3], x3)
        assert_array_equal(xd6[:3], xd3)

    def test_prebuilt_plan_matches(self):
        plan = mc.build_embedding_plan(SQEXP, 128)
        xa, _ = _stack(SQEXP, 128, 2, seed=9)
        xs = [p.x for p in mc.sample_paths(SQEXP, 128, 2, seed=9, plan=plan)]
        assert_array_equal(np.array(xs), xa)

    def test_marginal_law(self):
        x, xd = _stack(SQEXP, 256, 4000, seed=21)
        n = x.shape[0]
        # var X = 1, var dX = -r''(0) = 2, corr(X, dX) at equal times = 0
        assert abs(x[:, 0].var(ddof=1) - 1.0) < 4 * math.sqrt(2.0 / n)
        assert abs(xd[:, 0].var(ddof=1) - 2.0) < 4 * math.sqrt(2.0 * 4.0 / n)
        cov0 = np.mean(x[:, 0] * xd[:, 0])
        assert abs(cov0) < 4 * math.sqrt(2.0 / n)

    def test_covariance_envelope(self):
        x, _ = _stack(SQEXP, 256, 4000, seed=22)
        n = x.shape[0]
        dt = 1.0 / 255.0
        for lag in (16, 64, 128, 255):
            target = math.exp(-((lag * dt) ** 2))
            got = np.mean(x[:, 0] * x[:, lag])
            se = math.sqrt((1.0 + target * target) / n)
            assert abs(got - target) < 4.5 * se

    def test_cross_covariance_sign(self):
        # Cov(X_0, dX_tau) = r'(tau) < 0 for sqexp, and the reflected pair
        # Cov(dX_0, X_tau) = -r'(tau) carries the opposite sign.
        x, xd = _stack(SQEXP, 256, 4000, seed=23)
        n = x.shape[0]
        lag = 128
        tau = lag / 255.0
        r1 = -2.0 * tau * math.exp(-tau * tau)
        se = math.sqrt((2.0 + r1 * r1) / n)
        assert abs(np.mean(x[:, 0] * xd[:, lag]) - r1) < 4.5 * se
        assert abs(np.mean(xd[:, 0] * x[:, lag]) + r1) < 4.5 * se

    def test_bad_run_args(self):
        with pytest.raises(DomainError):
            list(mc.sample_paths(SQEXP, 128, 0, seed=1))
        with pytest.raises(DomainError):
            list(mc.sample_paths(SQEXP, 128, 2, seed=-1))


def _pre_support_pair_block(plan, seed, pair_start, pair_stop):
    """The sampler before support-only draws: 2m normals and two m-point
    inverse FFTs per path pair."""
    m = plan.embedding_size
    count = pair_stop - pair_start
    amp = np.sqrt(plan.eigenvalues * m)
    z = np.empty((count, m), dtype=complex)
    for i, pair in enumerate(range(pair_start, pair_stop)):
        draws = np.random.Generator(
            np.random.Philox(key=[seed, pair])
        ).standard_normal(2 * m)
        z[i] = draws[:m] + 1j * draws[m:]
    spectral = amp * z
    n = plan.grid_points
    field_x = np.fft.ifft(spectral, axis=1)[:, :n]
    field_d = np.fft.ifft(1j * plan.angular_frequencies * spectral, axis=1)[:, :n]
    x = np.empty((2 * count, n))
    xdot = np.empty((2 * count, n))
    x[0::2] = field_x.real
    x[1::2] = field_x.imag
    xdot[0::2] = field_d.real
    xdot[1::2] = field_d.imag
    return x, xdot


class TestSynthesisRoutes:
    def test_route_follows_the_cost_model(self):
        # K n against m log2 m: rq has 1,269 of 131,072 modes at grid 512,
        # matern52 1,139 of 32,768 at grid 2048.
        direct = mc.build_embedding_plan(RQ, 512)
        fft = mc.build_embedding_plan(MATERN52, 2048)
        assert direct.direct_synthesis
        assert not fft.direct_synthesis
        for plan in (direct, fft):
            k, n, m = plan.support.size, plan.grid_points, plan.embedding_size
            assert (k * n < m * math.log2(m)) == plan.direct_synthesis

    @pytest.mark.parametrize("spec,grid", [("rq:alpha=2,ell=1", 512), ("matern52", 2048)])
    def test_routes_agree_on_the_same_draws(self, spec, grid):
        plan = mc.build_embedding_plan(parse_kernel(spec), grid)
        draws = mc._support_draws(plan, 7, 3, 7)
        assert draws.shape == (4, 2 * plan.support.size)
        direct_x, direct_xdot = mc._direct_paths(plan, draws)
        fft_x, fft_xdot = mc._fft_paths(plan, draws)
        assert direct_x.shape == fft_x.shape == (8, grid)
        assert_allclose(direct_x, fft_x, rtol=0.0, atol=1e-12)
        assert_allclose(direct_xdot, fft_xdot, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("spec,grid", [("sqexp", 512), ("matern52", 2048)])
    def test_value_only_blocks_are_the_x_half(self, spec, grid):
        plan = mc.build_embedding_plan(parse_kernel(spec), grid)
        assert plan.direct_synthesis == (spec == "sqexp")
        chunk = mc._pair_chunk(plan.embedding_size)
        for lo, hi in ((0, chunk), (3, 5)):
            x, xdot = mc._pair_block(plan, 11, lo, hi)
            x_only, none = mc._pair_block(plan, 11, lo, hi, values_only=True)
            assert none is None and xdot.shape == x.shape
            assert_array_equal(x_only, x)

    def test_value_only_functionals_match_the_full_synthesis(self):
        # H:2 alone runs value-only; next to H:1@xdot it needs dX
        h2 = parse_functional("H:2")
        alone = mc.mc_integrated_functionals([h2], SQEXP, 30, 512, seed=4)[0]
        full = mc.mc_integrated_functionals(
            [h2, parse_functional("H:1@xdot")], SQEXP, 30, 512, seed=4
        )[0]
        assert alone == full

    def test_draws_are_keyed_on_seed_and_pair(self):
        plan = mc.build_embedding_plan(SQEXP, 512)
        block = mc._support_draws(plan, 5, 2, 6)
        for i, pair in enumerate(range(2, 6)):
            alone = np.random.Generator(np.random.Philox(key=[5, pair])).standard_normal(54)
            assert_array_equal(block[i], alone)

    def test_full_support_reproduces_the_pre_support_sampler(self):
        plan = mc.build_embedding_plan(parse_kernel("matern32"), 512)
        assert plan.support.size == plan.embedding_size
        assert not plan.direct_synthesis
        for lo, hi in ((0, 3), (5, 6)):
            x, xdot = mc._pair_block(plan, 13, lo, hi)
            old_x, old_xdot = _pre_support_pair_block(plan, 13, lo, hi)
            assert_array_equal(x, old_x)
            assert_array_equal(xdot, old_xdot)

    def test_direct_route_marginal_law(self):
        x, xd = _stack(RQ, 256, 4000, seed=24)
        assert mc.build_embedding_plan(RQ, 256).direct_synthesis
        n = x.shape[0]
        # var X = 1, var dX = -r''(0) = 1/ell^2 = 1, corr(X, dX) = 0
        assert abs(x[:, 0].var(ddof=1) - 1.0) < 4 * math.sqrt(2.0 / n)
        assert abs(xd[:, 0].var(ddof=1) - 1.0) < 4 * math.sqrt(2.0 / n)
        assert abs(np.mean(x[:, 0] * xd[:, 0])) < 4 * math.sqrt(1.0 / n)

    def test_direct_route_covariance_at_lag(self):
        x, xd = _stack(RQ, 256, 4000, seed=25)
        n = x.shape[0]
        dt = 1.0 / 255.0
        for lag in (16, 64, 128, 255):
            target = RQ.r(lag * dt)
            got = np.mean(x[:, 0] * x[:, lag])
            se = math.sqrt((1.0 + target * target) / n)
            assert abs(got - target) < 4.5 * se
        # Cov(X_0, dX_tau) = r'(tau)
        r1 = RQ.r_prime(128 * dt)
        se = math.sqrt((1.0 + r1 * r1) / n)
        assert abs(np.mean(x[:, 0] * xd[:, 128]) - r1) < 4.5 * se


def _scalar_crossings(x, level):
    """Oracle: the one-row counter before the block counter existed."""
    s = np.sign(np.asarray(x, dtype=float) - level)
    nonzero = np.flatnonzero(s)
    if nonzero.size == 0:
        return 0
    first = nonzero[0]
    if first > 0:
        s[:first] = -s[first]
    idx = np.arange(s.size)
    idx[s == 0.0] = 0
    idx = np.maximum.accumulate(idx)
    filled = s[idx]
    return int(np.count_nonzero(filled[1:] != filled[:-1]))


# Small integer values make exact ties, leading ties and all-tie rows common.
_TIE_BLOCKS = st.tuples(st.integers(1, 6), st.integers(1, 12)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]))
)


class TestCountCrossings:
    @given(block=_TIE_BLOCKS, level=st.sampled_from([0.0, 1.0, -1.0, 0.5]))
    def test_block_counter_matches_scalar_oracle(self, block, level):
        counts = mc._crossing_counts(block, level)
        assert counts.shape == (block.shape[0],)
        for row, count in zip(block, counts):
            assert count == _scalar_crossings(row, level)
            assert mc.count_crossings(row, level) == count

    def test_block_counter_on_all_tie_and_leading_tie_rows(self):
        block = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        assert_array_equal(mc._crossing_counts(block, 0.0), [0.0, 1.0, 1.0])

    def test_sine_has_two_crossings_per_period(self):
        t = np.linspace(0.0, 1.0, 2048)
        assert mc.count_crossings(np.sin(2.0 * math.pi * 3.0 * t)) == 6

    def test_constant_path(self):
        assert mc.count_crossings(np.ones(64), level=0.0) == 0
        assert mc.count_crossings(np.zeros(64), level=0.0) == 0

    def test_touch_is_not_a_crossing(self):
        assert mc.count_crossings(np.array([1.0, 0.0, 1.0])) == 0
        assert mc.count_crossings(np.array([-1.0, 0.0, -2.0])) == 0

    def test_grid_value_at_level_inherits_the_previous_side(self):
        assert mc.count_crossings(np.array([1.0, 0.0, -1.0])) == 1
        assert mc.count_crossings(np.array([1.0, 0.0, 0.0, -1.0])) == 1

    def test_leading_tie_counts_the_departure(self):
        assert mc.count_crossings(np.array([0.0, 1.0, 1.0])) == 1
        assert mc.count_crossings(np.array([0.0, -1.0, 1.0])) == 2

    def test_alternating(self):
        assert mc.count_crossings(np.array([1.0, -1.0, 1.0, -1.0])) == 3

    def test_nonzero_level(self):
        path = np.array([0.0, 2.0, 0.0, 2.0])
        assert mc.count_crossings(path, level=1.0) == 3
        assert mc.count_crossings(path, level=3.0) == 0

    def test_accepts_path_sample(self):
        path = next(iter(mc.sample_paths(SQEXP, 256, 1, seed=2)))
        by_sample = mc.count_crossings(path, level=0.0)
        by_array = mc.count_crossings(path.x, level=0.0)
        assert by_sample == by_array

    def test_input_not_mutated(self):
        arr = np.array([1.0, 0.0, -1.0])
        saved = arr.copy()
        mc.count_crossings(arr)
        assert_array_equal(arr, saved)

    def test_decimation_never_gains_crossings(self):
        # Counting on every second grid point can only drop sign changes.
        x, _ = _stack(SQEXP, 513, 200, seed=31)
        for row in x:
            assert mc.count_crossings(row[::2]) <= mc.count_crossings(row)
            assert mc.count_crossings(row[::2], 0.8) <= mc.count_crossings(row, 0.8)


class TestCrossingStatistics:
    def test_matches_rice_mean(self):
        stats = mc.crossing_statistics(SQEXP, 0.0, n_paths=6000, grid_points=512, seed=41)
        rice = mc.rice_crossing_mean(SQEXP, 0.0)
        assert_allclose(rice, math.sqrt(2.0) / math.pi, rtol=1e-15)
        assert abs(stats.mean - rice) < 4 * stats.std_error

    def test_moment_consistency(self):
        stats = mc.crossing_statistics(SQEXP, 0.0, n_paths=500, grid_points=256, seed=42)
        assert stats.second_moment >= stats.mean**2
        assert stats.variance >= 0.0
        assert_allclose(stats.std_error, math.sqrt(stats.variance / 500), rtol=1e-12)
        assert stats.kernel == "sqexp:ell=1"
        assert stats.level == 0.0
        assert stats.n_paths == 500
        assert stats.grid_points == 256
        assert stats.seed == 42

    def test_worker_count_is_invisible(self):
        one = mc.crossing_statistics(SQEXP, 0.0, n_paths=300, grid_points=256, seed=43, workers=1)
        four = mc.crossing_statistics(SQEXP, 0.0, n_paths=300, grid_points=256, seed=43, workers=4)
        assert one == four

    def test_level_damps_the_mean(self):
        low = mc.crossing_statistics(SQEXP, 0.0, n_paths=2000, grid_points=256, seed=44)
        high = mc.crossing_statistics(SQEXP, 1.5, n_paths=2000, grid_points=256, seed=44)
        assert high.mean < low.mean
        rice_high = mc.rice_crossing_mean(SQEXP, 1.5)
        assert_allclose(rice_high, math.sqrt(2.0) / math.pi * math.exp(-1.125), rtol=1e-15)
        assert abs(high.mean - rice_high) < 4 * high.std_error

    def test_refinement_grid_sequence(self):
        ladder = [
            mc.crossing_statistics(SQEXP, 0.0, n_paths=3000, grid_points=g, seed=45)
            for g in (128, 256, 512)
        ]
        assert [s.grid_points for s in ladder] == [128, 256, 512]
        rice = mc.rice_crossing_mean(SQEXP, 0.0)
        for stats in ladder:
            assert abs(stats.mean - rice) < 4 * stats.std_error

    def test_matern_rice_mean(self):
        assert_allclose(
            mc.rice_crossing_mean(MATERN52, 0.0), math.sqrt(5.0 / 3.0) / math.pi, rtol=1e-15
        )
        with pytest.raises(NotDifferentiable):
            mc.rice_crossing_mean(MATERN12, 0.0)


class TestIntegratedFunctionals:
    def test_constant_functional_is_exact(self):
        out = mc.mc_integrated_functionals(
            [parse_functional("H:0")], SQEXP, n_paths=50, grid_points=128, seed=51
        )[0]
        assert_allclose(out.mean, 1.0, rtol=1e-13)
        assert_allclose(out.second_moment, 1.0, rtol=1e-13)
        assert out.std_error < 1e-12

    def test_hermite_second_moments_match_chaos(self):
        functionals = [parse_functional(s) for s in ("H:1", "H:2", "H2:1,1")]
        outs = mc.mc_integrated_functionals(
            functionals, SQEXP, n_paths=20000, grid_points=512, seed=52
        )
        targets = (H1_INTEGRATED, H2_INTEGRATED, H11_INTEGRATED)
        for out, target in zip(outs, targets):
            assert abs(out.second_moment - target) < 4 * out.std_error

    def test_centered_functionals_have_zero_mean(self):
        out = mc.mc_integrated_functionals(
            [parse_functional("H:1")], SQEXP, n_paths=8000, grid_points=256, seed=53
        )[0]
        assert abs(out.mean) < 4 * out.mean_std_error

    def test_derivative_axis(self):
        out = mc.mc_integrated_functionals(
            [parse_functional("H:1@xdot")], SQEXP, n_paths=20000, grid_points=512, seed=54
        )[0]
        target = 1.0 - math.exp(-1.0)
        assert abs(out.second_moment - target) < 4 * out.std_error

    def test_sign_functional_brackets_chaos_sum(self):
        out = mc.mc_integrated_functionals(
            [parse_functional("sign")], SQEXP, n_paths=20000, grid_points=512, seed=55
        )[0]
        spectrum = chaos_spectrum(parse_functional("sign"), SQEXP, n_max=40)
        partial = math.fsum(spectrum.integrated_norms.values())
        # Time averaging only shrinks per-order mass, so the dropped tail of
        # the integrated series is at most the pointwise tail bound.
        low = partial - 4 * out.std_error
        high = partial + spectrum.truncation_tail_bound + 4 * out.std_error
        assert low <= out.second_moment <= high

    def test_plural_call_matches_singular_calls(self):
        functionals = [parse_functional(s) for s in ("H:2", "sign", "ind:0.5")]
        outs = mc.mc_integrated_functionals(
            functionals, SQEXP, n_paths=400, grid_points=128, seed=56
        )
        for functional, out in zip(functionals, outs):
            alone = mc.mc_integrated_functionals(
                [functional], SQEXP, n_paths=400, grid_points=128, seed=56
            )[0]
            assert alone == out

    def test_worker_count_is_invisible(self):
        functionals = [parse_functional("H:1"), parse_functional("abs")]
        one = mc.mc_integrated_functionals(
            functionals, SQEXP, n_paths=300, grid_points=128, seed=57, workers=1
        )
        three = mc.mc_integrated_functionals(
            functionals, SQEXP, n_paths=300, grid_points=128, seed=57, workers=3
        )
        assert one == three

    def test_report_fields(self):
        out = mc.mc_integrated_functionals(
            [parse_functional("abs")], MATERN52, n_paths=100, grid_points=128, seed=58
        )[0]
        assert out.functional == "abs"
        assert out.kernel == MATERN52.spec_string()
        assert out.n_paths == 100
        assert out.grid_points == 128
        assert out.seed == 58


class TestMSDerivativeResidual:
    def test_small_h_expansion(self):
        # For sqexp the residual expands as 3 h^2 - (5/3) h^4 + O(h^6).
        h = 0.01
        got = mc.ms_derivative_residual(SQEXP, h)
        assert_allclose(got, 3.0 * h * h - (5.0 / 3.0) * h**4, rtol=1e-6)

    def test_leading_order_uses_fourth_derivative(self):
        h = 0.01
        got = mc.ms_derivative_residual(MATERN52, h)
        assert_allclose(got, MATERN52.r4_zero() / 4.0 * h * h, rtol=0.05)

    def test_decreases_to_zero(self):
        values = [mc.ms_derivative_residual(SQEXP, h) for h in (0.1, 0.05, 0.025)]
        assert values[0] > values[1] > values[2] > 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            mc.ms_derivative_residual(SQEXP, 0.0)
        with pytest.raises(DomainError):
            mc.ms_derivative_residual(SQEXP, -0.1)
        with pytest.raises(NotDifferentiable):
            mc.ms_derivative_residual(MATERN12, 0.01)

    def test_mc_check_matches_analytic(self):
        chk = mc.ms_derivative_check(SQEXP, 0.05, n_paths=6000, grid_points=512, seed=61)
        assert abs(chk.mc_estimate - chk.analytic) < 4 * chk.std_error

    def test_mc_check_snaps_h_to_the_grid(self):
        chk = mc.ms_derivative_check(SQEXP, 0.03, n_paths=50, grid_points=512, seed=62)
        assert chk.h_requested == 0.03
        assert_allclose(chk.h, 15.0 / 511.0, rtol=1e-15)
        assert chk.analytic == mc.ms_derivative_residual(SQEXP, chk.h)

    def test_mc_check_h_beyond_span(self):
        with pytest.raises(DomainError):
            mc.ms_derivative_check(SQEXP, 2.0, n_paths=10, grid_points=128, seed=63)


class TestBinaryDump:
    def test_round_trip(self):
        paths = list(mc.sample_paths(SQEXP, 64, 4, seed=71))
        buf = io.BytesIO()
        assert mc.write_paths_binary(paths, buf) == 4
        buf.seek(0)
        step, x, xd = mc.read_paths_binary(buf)
        assert step == paths[0].grid_step
        assert x.shape == (4, 64)
        assert_array_equal(x, np.array([p.x for p in paths]))
        assert_array_equal(xd, np.array([p.xdot for p in paths]))

    def test_round_trip_via_file(self, tmp_path):
        target = tmp_path / "paths.gprg"
        paths = list(mc.sample_paths(SQEXP, 32, 2, seed=72))
        mc.write_paths_binary(paths, str(target))
        step, x, xd = mc.read_paths_binary(str(target))
        assert step == paths[0].grid_step
        assert_array_equal(x[1], paths[1].x)

    def test_header_magic(self):
        buf = io.BytesIO()
        mc.write_paths_binary(list(mc.sample_paths(SQEXP, 16, 1, seed=73)), buf)
        assert buf.getvalue()[:4] == b"GPRG"

    def test_rejects_empty_and_ragged(self):
        with pytest.raises(DomainError):
            mc.write_paths_binary([], io.BytesIO())
        a = next(iter(mc.sample_paths(SQEXP, 16, 1, seed=74)))
        b = next(iter(mc.sample_paths(SQEXP, 32, 1, seed=74)))
        with pytest.raises(DomainError):
            mc.write_paths_binary([a, b], io.BytesIO())

    def test_rejects_bad_magic_and_truncation(self):
        with pytest.raises(DomainError):
            mc.read_paths_binary(io.BytesIO(b"NOPE" + b"\x00" * 28))
        buf = io.BytesIO()
        mc.write_paths_binary(list(mc.sample_paths(SQEXP, 16, 2, seed=75)), buf)
        clipped = io.BytesIO(buf.getvalue()[:-8])
        with pytest.raises(DomainError):
            mc.read_paths_binary(clipped)


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("GPCHAOS_WORKERS", "3")
        assert mc._worker_count(None) == 3
        assert mc._worker_count(2) == 2

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("GPCHAOS_WORKERS", raising=False)
        assert mc._worker_count(None) == 1

    def test_bad_values(self, monkeypatch):
        monkeypatch.setenv("GPCHAOS_WORKERS", "soon")
        with pytest.raises(DomainError):
            mc._worker_count(None)
        monkeypatch.setenv("GPCHAOS_WORKERS", "0")
        with pytest.raises(DomainError):
            mc._worker_count(None)
