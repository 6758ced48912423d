"""Tests for circulant-embedding simulation and its Monte Carlo checks."""

import math
import os
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal
from scipy.fft import next_fast_len

from gpchaos import kernels
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


def _chunk_count(plan, n_paths):
    """The sampler chunks of path pairs that a run of n_paths paths spans."""
    return len(range(0, (n_paths + 1) // 2, mc._pair_chunk(plan)))


def _draws(plan, seed, pair_start, pair_stop):
    rows = np.empty((pair_stop - pair_start, 2 * plan.support.size))
    return mc._support_draws(seed, pair_start, rows)


def _direct_paths(plan, draws, columns=None):
    count, rows = draws.shape[0], plan._direct_basis[3].shape[0]
    width = plan.grid_points if columns is None else len(columns)
    x, xdot = np.empty((2, 2 * count, width))
    mc._direct_paths(plan, draws, np.empty((count, 2 * rows)), np.empty((2 * count, rows)),
                     np.empty((2 * count, rows)), x, xdot, columns)
    return x, xdot


def _band_paths(plan, draws):
    count, k = draws.shape[0], plan.support.size
    x, xdot = np.empty((2, 2 * count, plan.grid_points))
    mc._band_paths(plan, draws, np.empty((count, k), dtype=complex),
                   np.empty((count, plan.band_length), dtype=complex), x, xdot)
    return x, xdot


def _pair_block(plan, seed, pair_start, pair_stop, values_only=False, columns=None):
    """One block in a workspace of its own."""
    space = mc._Workspace(plan, pair_stop - pair_start, values_only, columns)
    return mc._pair_block(plan, seed, pair_start, pair_stop, space)


class TestEmbeddingPlan:
    def test_embedding_size_grows_until_the_wrap_bias_vanishes(self):
        assert mc.build_embedding_plan(SQEXP, 512).embedding_size == 4096
        assert mc.build_embedding_plan(SQEXP, 2048).embedding_size == 16384

    def test_rq_plan_is_sized_by_its_wrap_bias(self):
        # the wraps add 9.3e-9 to r''(0) at m = 2^15 and 1.5e-10 at 2^16,
        # against a tolerance of 1e-9
        plan = mc.build_embedding_plan(RQ, 512)
        m = plan.embedding_size
        assert m == 65536
        c = np.fft.irfft(plan.eigenvalues, m)[:512]
        assert np.abs(c - RQ.r(np.arange(512) * plan.grid_step)).max() <= 1e-9

    @pytest.mark.parametrize("alpha,noted", [(1.5, False), (1, True)])
    def test_periodization_note_quotes_a_bias_above_tolerance(self, alpha, noted):
        # both plans stop at the size cap, with a bias of 1.2e-10 at alpha =
        # 1.5 and 6.0e-9 at alpha = 1, against a tolerance of 1e-9
        kernel = parse_kernel(f"rq:alpha={alpha}")
        plan = mc.build_embedding_plan(kernel, 2048)
        lags = np.arange(1, mc.PERIODIZATION_WRAPS + 1) * (plan.embedding_size * plan.grid_step)
        bias = 2.0 * math.fsum(kernel.r_second(lags))
        assert plan.embedding_size == 8192 << mc.GROWTH_CAP
        assert plan.periodization_bias == pytest.approx(bias, rel=1e-12)
        tol = 1e-9 * max(1.0, abs(kernel.r2_zero()))
        notes = [note for note in plan.notes if "periodization" in note]
        assert (abs(bias) > tol) is noted
        assert len(notes) == noted
        assert all(f"bias {plan.periodization_bias:.3e}" in note for note in notes)

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

    # the benchmark plans, and sqexp at grid 16, whose m = 128 lags are less
    # than one lag tile
    @pytest.mark.parametrize("spec,grid", [("sqexp", 512), ("matern52", 2048),
                                           ("rq:alpha=2,ell=1", 512), ("sqexp", 16)])
    def test_eigenvalues_are_the_even_real_part_of_the_row_fft(self, spec, grid):
        # the row on lags 0 ... m/2 with wraps j = -W ... W on both sides of
        # each lag, mirrored, and the wraps' value at lag 0 out of bin 0; the
        # eigenvalues are its real FFT's m/2 + 1 bins, mirrored: exactly even,
        # and its complex FFT to rounding, which is real to rounding
        kernel = parse_kernel(spec)
        plan = mc.build_embedding_plan(kernel, grid)
        m, dt = plan.embedding_size, plan.grid_step
        t = np.arange(m // 2 + 1) * dt
        half_row = np.zeros(t.size)  # the whole half row at once, wrap by wrap
        for j in range(-mc.PERIODIZATION_WRAPS, mc.PERIODIZATION_WRAPS + 1):
            half_row += kernel.r(np.abs(t + j * (m * dt)))
        row = np.concatenate([half_row, half_row[-2:0:-1]])
        shift = m * (row[0] - kernel.r(0.0))
        full = np.fft.fft(row)
        full[0] -= shift
        assert np.abs(full.imag).max() <= 1e-12 * full.real.max()
        full = full.real
        assert_array_equal(plan.eigenvalues[1:], plan.eigenvalues[:0:-1])
        kept = plan.eigenvalues > 0.0
        assert_allclose(plan.eigenvalues[kept], full[kept], rtol=0.0, atol=1e-12 * full.max())
        assert plan.min_eigenvalue == pytest.approx(full.min(), abs=1e-12 * full.max())
        # the row built in lag tiles is that row to the bit
        half = np.fft.rfft(row)
        half[0] -= shift
        mirrored = np.concatenate([half.real, half.real[-2:0:-1]])
        assert plan.min_eigenvalue == mirrored.min()
        assert plan.clipped == np.count_nonzero(mirrored < 0.0)
        floored = np.where(mirrored < mc.EIGENVALUE_FLOOR * mirrored.max(), 0.0, mirrored)
        assert_array_equal(plan.eigenvalues, floored)
        assert_array_equal(plan.angular_frequencies, 2.0 * np.pi * np.fft.fftfreq(m, dt))

    @pytest.mark.parametrize("grid", [256, 2048])
    @pytest.mark.parametrize("spec", ["rq:alpha=0.6", "rq:alpha=1"])
    def test_heavy_tailed_plan_samples_the_law_of_r(self, spec, grid):
        # the plan's covariance c, the inverse FFT of its eigenvalues, is r on
        # the grid, and its derivative variance is -r''(0).  A window of wraps
        # from -8P to 9P left a spike at lag 0 (c - r of 6.7e-3 at alpha = 0.6)
        # whose share of the derivative variance grows like 1 / dt^2 (2.664 and
        # 108.6 times -r''(0) at alpha = 0.6)
        kernel = parse_kernel(spec)
        plan = mc.build_embedding_plan(kernel, grid)
        m = plan.embedding_size
        var_xdot = np.sum(plan.angular_frequencies ** 2 * plan.eigenvalues) / m
        assert var_xdot == pytest.approx(-kernel.r2_zero(), rel=1e-5)
        c = np.fft.ifft(plan.eigenvalues).real[:grid]
        assert np.abs(c - kernel.r(np.arange(grid) * plan.grid_step)).max() <= 1e-6

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
        assert len(paths) == 3
        for p in paths:
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
    """The sampler before support-only draws: 2m normals per path pair from
    the block's stream, keyed on (seed, pair_start), and two m-point
    inverse FFTs."""
    m = plan.embedding_size
    draws = np.random.Generator(
        np.random.Philox(key=[seed, pair_start])
    ).standard_normal((pair_stop - pair_start, 2 * m))
    return _m_point_paths(plan, draws[:, :m] + 1j * draws[:, m:])


def _m_point_paths(plan, z):
    """Paths of complex normals z on all m modes by two m-point inverse FFTs."""
    count, m = z.shape
    spectral = np.sqrt(plan.eigenvalues * m) * z
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


def _support_oracle(plan, draws):
    """The m-point oracle on a block of support draws."""
    k = plan.support.size
    z = np.zeros((draws.shape[0], plan.embedding_size), dtype=complex)
    z[:, plan.support] = draws[:, :k] + 1j * draws[:, k:]
    return _m_point_paths(plan, z)


# Plans of the benchmark and the acceptance criteria, and matern32, whose
# full support makes the band the whole embedding (L = m).
_ROUTE_PLANS = [
    ("rq:alpha=2,ell=1", 512),
    ("matern52", 2048),
    ("sqexp", 512),
    ("sqexp", 256),
    ("sqexp", 2048),
    ("matern32", 512),
]


class TestSynthesisRoutes:
    def test_route_follows_the_cost_model(self):
        # K n against c L log2 L: sqexp has 27 modes in a band of 27 at grid
        # 512 (L = 539), matern52 1,139 in a band of 1,139 at grid 2048
        # (L = 3,200 of m = 32,768) and rq 635 at grid 512 (L = 1,152 of
        # m = 65,536).
        # rq:alpha=0.5 has full support, 65,536 modes: direct would be the
        # cheaper route but its basis would take 512 MiB.
        cases = _ROUTE_PLANS + [("rq:alpha=0.5,ell=1", 256)]
        plans = {(spec, grid): mc.build_embedding_plan(parse_kernel(spec), grid)
                 for spec, grid in cases}
        assert plans["sqexp", 512].direct_synthesis
        assert plans["sqexp", 2048].direct_synthesis
        assert not plans["matern52", 2048].direct_synthesis
        assert not plans["rq:alpha=2,ell=1", 512].direct_synthesis
        assert not plans["rq:alpha=0.5,ell=1", 256].direct_synthesis
        assert plans["matern52", 2048].band_length == 3200
        assert plans["matern32", 512].band_length == plans["matern32", 512].embedding_size
        for plan in plans.values():
            k, n, band = plan.support.size, plan.grid_points, plan.band_length
            signed = np.where(plan.support < plan.embedding_size // 2, plan.support,
                              plan.support - plan.embedding_size)
            width = signed.max() - signed.min() + 1
            assert band == min(plan.embedding_size, next_fast_len(n + width - 1))
            cost = mc.SYNTHESIS_COST_RATIO * band * math.log2(band)
            assert (k * n <= mc.DIRECT_BASIS_LIMIT and k * n < cost) == plan.direct_synthesis

    def test_next_fast_len_matches_scipy(self):
        # band synthesis sizes its FFTs by the package's own 11-smooth search.
        # Every 11-smooth s up to 2^17 + 1000 and s + 1 hold each distinct
        # answer, and the search from s + 1 tries the whole gap to the next s
        smooth = [1]
        for p in (2, 3, 5, 7, 11):
            for s in list(smooth):
                while s * p <= (1 << 17) + 1000:
                    s *= p
                    smooth.append(s)
        targets = sorted({t for s in smooth for t in (s, s + 1)})
        assert [mc._next_fast_len(t) for t in targets] == [next_fast_len(t) for t in targets]

    @pytest.mark.parametrize("spec,grid", _ROUTE_PLANS)
    def test_routes_agree_on_the_same_draws(self, spec, grid):
        plan = mc.build_embedding_plan(parse_kernel(spec), grid)
        draws = _draws(plan, 7, 3, 7)
        assert draws.shape == (4, 2 * plan.support.size)
        oracle_x, oracle_xdot = _support_oracle(plan, draws)
        for route in (_direct_paths, _band_paths):
            x, xdot = route(plan, draws)
            assert x.shape == xdot.shape == (8, grid)
            assert_allclose(x, oracle_x, rtol=0.0, atol=1e-12)
            assert_allclose(xdot, oracle_xdot, rtol=0.0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(["sqexp", "matern52", "rq:alpha=2,"]),
        ell=st.floats(0.2, 3.0),
        grid=st.integers(2, 300),
        holes=st.booleans(),
    )
    def test_band_route_equals_the_direct_route(self, family, ell, grid, holes):
        prefix = family if family.endswith(",") else family + ":"
        plan = mc.build_embedding_plan(parse_kernel(f"{prefix}ell={ell}"), grid)
        if holes and plan.support.size > 2:
            # a support with gaps inside its band
            eigenvalues = plan.eigenvalues.copy()
            eigenvalues[plan.support[1::3]] = 0.0
            plan = replace(plan, eigenvalues=eigenvalues,
                           support=np.flatnonzero(eigenvalues))
        draws = _draws(plan, 3, 0, 3)
        direct = _direct_paths(plan, draws)
        band = _band_paths(plan, draws)
        for got, want in zip(band, direct):
            assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_direct_basis_spans_the_distinct_frequencies(self):
        # sqexp at grid 512 draws 27 modes at signed frequencies -13..13
        plan = mc.build_embedding_plan(SQEXP, 512)
        index, amp, rates, basis = plan._direct_basis
        assert plan.support.size == 27
        assert basis.shape == (2 * 14, 512) and index.shape == amp.shape == (4 * 14,)
        # the -0 slot holds no mode
        assert amp[14] == 0.0 and rates[0] == 0.0

    @pytest.mark.parametrize("case", ["asymmetric", "nyquist"])
    def test_direct_route_on_unpaired_modes_matches_the_m_point_oracle(self, case):
        if case == "asymmetric":
            # modes +1 and +3 lose their partners -1 and -3
            plan = mc.build_embedding_plan(SQEXP, 128)
            eigenvalues = plan.eigenvalues.copy()
            eigenvalues[[plan.embedding_size - 1, plan.embedding_size - 3]] = 0.0
            plan = replace(plan, eigenvalues=eigenvalues, support=np.flatnonzero(eigenvalues))
            assert {1, 3} <= set(plan.support)
        else:  # full support: the Nyquist mode -m/2 has no +m/2 partner
            plan = mc.build_embedding_plan(parse_kernel("matern32"), 32)
            assert plan.support.size == plan.embedding_size
        assert plan.direct_synthesis
        draws = _draws(plan, 8, 0, 5)
        for got, want in zip(_direct_paths(plan, draws), _support_oracle(plan, draws)):
            assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("spec,grid", [("sqexp", 512), ("matern52", 512)])
    def test_column_blocks_are_columns_of_the_full_rows(self, spec, grid):
        plan = mc.build_embedding_plan(parse_kernel(spec), grid)
        assert plan.direct_synthesis == (spec == "sqexp")
        columns = [0, 26, grid - 1]
        full = _pair_block(plan, 6, 2, 9)
        narrow = _pair_block(plan, 6, 2, 9, columns=columns)
        for got, want in zip(narrow, full):
            assert got.shape == (14, 3)
            assert_allclose(got, want[:, columns], rtol=0.0, atol=1e-12)
        x, xdot = _direct_paths(plan, _draws(plan, 6, 2, 9), columns)
        assert_allclose(x, full[0][:, columns], rtol=0.0, atol=1e-12)
        assert_allclose(xdot, full[1][:, columns], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("spec,grid", [("sqexp", 512), ("matern52", 2048)])
    def test_value_only_blocks_are_the_x_half(self, spec, grid):
        plan = mc.build_embedding_plan(parse_kernel(spec), grid)
        assert plan.direct_synthesis == (spec == "sqexp")
        chunk = mc._pair_chunk(plan)
        for lo, hi in ((0, chunk), (3, 5)):
            x, xdot = _pair_block(plan, 11, lo, hi)
            x_only, none = _pair_block(plan, 11, lo, hi, values_only=True)
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

    def test_draws_are_keyed_on_seed_and_block_start(self):
        # a block's rows are read in order from the stream of (seed, its
        # first pair), so a shorter block draws their prefix
        plan = mc.build_embedding_plan(SQEXP, 512)
        stream = np.random.Generator(np.random.Philox(key=[5, 2])).standard_normal(4 * 54)
        assert_array_equal(_draws(plan, 5, 2, 6), stream.reshape(4, 54))
        assert_array_equal(_draws(plan, 5, 2, 3), stream[None, :54])
        assert not np.array_equal(_draws(plan, 5, 3, 4), _draws(plan, 5, 2, 4)[1:])

    def test_full_support_reproduces_the_pre_support_sampler(self):
        plan = mc.build_embedding_plan(parse_kernel("matern32"), 512)
        assert plan.support.size == plan.embedding_size
        assert not plan.direct_synthesis
        for lo, hi in ((0, 3), (5, 6)):
            x, xdot = _pair_block(plan, 13, lo, hi)
            old_x, old_xdot = _pre_support_pair_block(plan, 13, lo, hi)
            assert_allclose(x, old_x, rtol=0.0, atol=1e-12)
            assert_allclose(xdot, old_xdot, rtol=0.0, atol=1e-12)

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


# A direct and a band plan, each run over three blocks, the last one short
# and ending on a single path.
_REUSE_PLANS = [("sqexp", 128), ("matern52", 512)]


def _three_block_run(spec, grid):
    plan = mc.build_embedding_plan(parse_kernel(spec), grid)
    n_paths = 2 * (2 * mc._pair_chunk(plan) + 3) + 1
    assert _chunk_count(plan, n_paths) == 3
    return plan, n_paths


def _block_paths(plan, seed, n_paths, workers):
    """Every path of a run, as the sampler's blocks hand them over at
    ``workers`` workers."""
    def copies(plan, rows):
        return lambda x, xdot: (x.copy(), xdot.copy())

    blocks = mc._blocks(plan, seed, n_paths, copies, workers)
    return [np.concatenate(rows) for rows in zip(*blocks)]


class TestWorkspaceReuse:
    @pytest.mark.parametrize("spec,grid", _REUSE_PLANS)
    def test_path_depends_on_seed_and_index_alone(self, spec, grid):
        # a block's draws are keyed on its first pair, so a run that stops
        # inside a block, or on one path of a pair, draws a prefix of it
        plan, n_paths = _three_block_run(spec, grid)
        assert plan.direct_synthesis == (spec == "sqexp")
        chunk = mc._pair_chunk(plan)
        x, xdot = _block_paths(plan, 8, n_paths, 1)
        assert x.shape == (n_paths, grid)
        for count in (1, 2, 2 * chunk - 1, 2 * chunk + 1, 4 * chunk + 2, n_paths):
            for workers in (1, 2):
                got_x, got_xdot = _block_paths(plan, 8, count, workers)
                assert_array_equal(got_x, x[:count])
                assert_array_equal(got_xdot, xdot[:count])

    @pytest.mark.parametrize("spec,grid", _REUSE_PLANS)
    def test_sampled_rows_survive_later_blocks(self, spec, grid):
        plan, n_paths = _three_block_run(spec, grid)
        assert plan.direct_synthesis == (spec == "sqexp")
        held = list(mc.sample_paths(parse_kernel(spec), grid, n_paths, seed=9, plan=plan))
        chunk, n_pairs = mc._pair_chunk(plan), (n_paths + 1) // 2
        for lo in range(0, n_pairs, chunk):
            hi = min(lo + chunk, n_pairs)
            x, xdot = _pair_block(plan, 9, lo, hi)  # a workspace of its own
            for i, path in enumerate(held[2 * lo:2 * hi]):
                assert_array_equal(path.x, x[i])
                assert_array_equal(path.xdot, xdot[i])

    # rq at grid 256 is a wide direct plan: its 2F = 1,274 row basis makes
    # block products large enough for OpenBLAS to thread if let
    @pytest.mark.parametrize("spec,grid", _REUSE_PLANS + [("rq:alpha=2,ell=1", 256)])
    def test_worker_count_is_invisible_over_three_blocks(self, spec, grid):
        plan, n_paths = _three_block_run(spec, grid)
        kernel = parse_kernel(spec)
        functionals = [parse_functional(f) for f in ("H:1", "H:3", "H2:1,1", "H:2@xdot", "sign")]
        runs = [
            (mc.crossing_statistics(kernel, 0.3, n_paths, grid, 71, workers=w, plan=plan),
             mc.mc_integrated_functionals(functionals, kernel, n_paths, grid, 71, workers=w,
                                          plan=plan),
             mc.ms_derivative_check(kernel, 0.05, n_paths, grid, 71, workers=w))
            for w in (1, 2, 4)
        ]
        assert runs[0] == runs[1] == runs[2]


class TestFusedPass:
    """A ``level`` adds the crossing count to a functionals pass."""

    @pytest.mark.parametrize("spec,grid", _REUSE_PLANS)
    def test_fused_pass_equals_the_separate_passes(self, spec, grid):
        plan, n_paths = _three_block_run(spec, grid)
        kernel = parse_kernel(spec)
        for specs in (("H:1", "H:2"), ("H:3", "H2:1,1", "H:2@xdot", "ind:0.5")):
            functionals = [parse_functional(f) for f in specs]
            for workers in (1, 2):
                fused = mc.mc_integrated_functionals(
                    functionals, kernel, n_paths, grid, 72, workers=workers, plan=plan, level=0.4)
                alone = mc.mc_integrated_functionals(
                    functionals, kernel, n_paths, grid, 72, workers=workers, plan=plan)
                crossings = mc.crossing_statistics(
                    kernel, 0.4, n_paths, grid, 72, workers=workers, plan=plan)
                assert fused == alone + [crossings]

    def test_single_statistic_passes_do_no_extra_work(self, monkeypatch):
        calls = {"hermite": 0, "crossings": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(mc, "hermite", counting("hermite", mc.hermite))
        monkeypatch.setattr(mc, "_crossing_counts", counting("crossings", mc._crossing_counts))
        plan = mc.build_embedding_plan(SQEXP, 128)
        chunk = mc._pair_chunk(plan)
        n_paths = 2 * chunk + 1  # two blocks: 2 * chunk rows, then one
        # a row tile holds TILE_BYTES // (4 n) rows: 256 at n = 128, so the
        # first block of 850 rows runs in 4 tiles and the second in 1
        tile = mc.TILE_BYTES // (4 * 128)
        tiles = math.ceil(2 * chunk / tile) + 1
        assert (2 * chunk, tile, tiles) == (850, 256, 5)
        mc.crossing_statistics(SQEXP, 0.0, n_paths, 128, 73, plan=plan)
        assert calls == {"hermite": 0, "crossings": tiles}
        mc.mc_integrated_functionals([parse_functional("sign")], SQEXP, n_paths, 128, 73,
                                     plan=plan)
        assert calls == {"hermite": 0, "crossings": tiles}
        mc.mc_integrated_functionals([parse_functional("H:2")], SQEXP, n_paths, 128, 73,
                                     plan=plan)
        assert calls == {"hermite": tiles, "crossings": tiles}

    @pytest.mark.parametrize("spec,grid", [("sqexp", 512), ("matern52", 2048)])
    def test_tiles_change_no_value(self, spec, grid, monkeypatch):
        # row tiles of 1, 2, 3 and 5 rows (and lag tiles of a few lags)
        # against tiles that hold a whole block and a whole row; the last
        # block is short and odd, so most tile sizes leave a short last tile
        kernel = parse_kernel(spec)
        chunk = mc._pair_chunk(mc.build_embedding_plan(kernel, grid))
        n_paths = 2 * chunk + 4 * (chunk // 4) + 1
        functionals = [parse_functional(f) for f in ("H:1", "H:3", "sign", "H2:1,1")]
        columns, moments = [], mc._moments

        def recording(values):  # each path's values too, as a sum can hide a changed bit
            columns.append(values.copy())
            return moments(values)

        monkeypatch.setattr(mc, "_moments", recording)
        runs = []
        for tile_bytes in (4 * grid, 8 * grid, 12 * grid, 20 * grid, 16 * mc.BLOCK_BYTES):
            monkeypatch.setattr(mc, "TILE_BYTES", tile_bytes)
            monkeypatch.setattr(kernels, "TILE_BYTES", tile_bytes)  # the plan's lag tiles
            for workers in (1, 2):
                runs.append(mc.mc_integrated_functionals(functionals, kernel, n_paths, grid, 75,
                                                         workers=workers, level=0.0))
        assert len(runs[0]) == 5
        assert all(run == runs[0] for run in runs[1:])
        for i in range(5, len(columns)):
            assert_array_equal(columns[i], columns[i % 5])

    def test_nothing_to_estimate_is_a_domain_error(self):
        with pytest.raises(DomainError, match="no functional"):
            mc.mc_integrated_functionals([], SQEXP, 4, 64, 0)

    def test_ms_derivative_check_takes_a_plan(self):
        plan = mc.build_embedding_plan(SQEXP, 256)
        assert (mc.ms_derivative_check(SQEXP, 0.05, 300, 256, 74, plan=plan)
                == mc.ms_derivative_check(SQEXP, 0.05, 300, 256, 74))


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

    @pytest.mark.parametrize("level", [0.0, 0.8])
    def test_tie_free_sampled_block_matches_scalar_oracle(self, level):
        x, _ = _stack(SQEXP, 256, 40, seed=17)
        assert not (x == level).any()
        counts = mc._crossing_counts(x, level)
        assert counts.sum() > 0
        assert_array_equal(counts, [_scalar_crossings(row, level) for row in x])

    def test_one_tied_row_sends_the_whole_block_through_the_tie_rule(self):
        x, _ = _stack(SQEXP, 256, 6, seed=18)
        x[2, 100] = 0.0  # an exact tie in one row; the others have none
        assert np.count_nonzero(x == 0.0) == 1
        counts = mc._crossing_counts(x, 0.0)
        assert_array_equal(counts, [_scalar_crossings(row, 0.0) for row in x])

    def test_negative_zero_at_level_zero_is_a_tie(self):
        assert mc.count_crossings(np.array([1.0, -0.0, 1.0])) == 0
        assert mc.count_crossings(np.array([-0.0, -1.0, -1.0])) == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_path_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            mc.count_crossings(np.array([1.0, bad, -1.0]))

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
        assert isinstance(stats, mc.Moments)
        assert stats.second_moment >= stats.mean**2
        assert stats.variance >= 0.0
        assert_allclose(stats.std_error, math.sqrt(stats.variance / 500), rtol=1e-12)

    def test_worker_count_is_invisible(self):
        plan = mc.build_embedding_plan(SQEXP, 256)
        n_paths = 2 * mc._pair_chunk(plan) + 300
        assert _chunk_count(plan, n_paths) == 2
        one = mc.crossing_statistics(SQEXP, 0.0, n_paths, 256, seed=43, workers=1, plan=plan)
        four = mc.crossing_statistics(SQEXP, 0.0, n_paths, 256, seed=43, workers=4, plan=plan)
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
        assert out.second_std_error < 1e-12

    def test_hermite_second_moments_match_chaos(self):
        functionals = [parse_functional(s) for s in ("H:1", "H:2", "H2:1,1")]
        outs = mc.mc_integrated_functionals(
            functionals, SQEXP, n_paths=20000, grid_points=512, seed=52
        )
        targets = (H1_INTEGRATED, H2_INTEGRATED, H11_INTEGRATED)
        for out, target in zip(outs, targets):
            assert abs(out.second_moment - target) < 4 * out.second_std_error

    def test_centered_functionals_have_zero_mean(self):
        out = mc.mc_integrated_functionals(
            [parse_functional("H:1")], SQEXP, n_paths=8000, grid_points=256, seed=53
        )[0]
        assert abs(out.mean) < 4 * out.std_error

    def test_derivative_axis(self):
        out = mc.mc_integrated_functionals(
            [parse_functional("H:1@xdot")], SQEXP, n_paths=20000, grid_points=512, seed=54
        )[0]
        target = 1.0 - math.exp(-1.0)
        assert abs(out.second_moment - target) < 4 * out.second_std_error

    def test_sign_functional_brackets_chaos_sum(self):
        out = mc.mc_integrated_functionals(
            [parse_functional("sign")], SQEXP, n_paths=20000, grid_points=512, seed=55
        )[0]
        spectrum = chaos_spectrum(parse_functional("sign"), SQEXP, n_max=40)
        partial = math.fsum(spectrum.integrated_norms.values())
        # Time averaging only shrinks per-order mass, so the dropped tail of
        # the integrated series is at most the pointwise tail bound.
        low = partial - 4 * out.second_std_error
        high = partial + spectrum.truncation_tail_bound + 4 * out.second_std_error
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
        plan = mc.build_embedding_plan(SQEXP, 128)
        n_paths = 2 * mc._pair_chunk(plan) + 1  # the last pair has one path
        assert _chunk_count(plan, n_paths) == 2
        one, three = (
            mc.mc_integrated_functionals(
                functionals, SQEXP, n_paths, 128, seed=57, workers=workers, plan=plan
            )
            for workers in (1, 3)
        )
        assert one == three

    def test_report_fields(self):
        outs = mc.mc_integrated_functionals(
            [parse_functional("abs"), parse_functional("H:1")], MATERN52, n_paths=100,
            grid_points=128, seed=58,
        )
        assert len(outs) == 2
        for out in outs:
            assert isinstance(out, mc.Moments)
            assert_allclose(out.std_error, math.sqrt(out.variance / 100), rtol=1e-12)
            assert out.second_moment >= out.mean**2
        assert outs[0].mean > 0.0  # |X| averages to a positive number

    def test_moments_of_known_values(self):
        values = np.array([1.0, 2.0, 4.0, 5.0])
        got = mc._moments(values)
        # the squares 1, 4, 16, 25 have mean 11.5 and sample variance 123
        assert got == mc.Moments(
            mean=3.0, second_moment=11.5, variance=10.0 / 3.0,
            std_error=math.sqrt(10.0 / 12.0), second_std_error=math.sqrt(123.0 / 4.0),
        )
        one = mc._moments(np.array([2.5]))
        assert (one.variance, one.std_error, one.second_std_error) == (0.0, 0.0, 0.0)


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
        h, chk = mc.ms_derivative_check(SQEXP, 0.05, n_paths=6000, grid_points=512, seed=61)
        assert abs(chk.mean - mc.ms_derivative_residual(SQEXP, h)) < 4 * chk.std_error

    def test_mc_check_snaps_h_to_the_grid(self):
        h, chk = mc.ms_derivative_check(SQEXP, 0.03, n_paths=50, grid_points=512, seed=62)
        assert_allclose(h, 15.0 / 511.0, rtol=1e-15)
        # the residuals are taken at the snapped lag of 15 grid steps
        direct = [((p.x[15] - p.x[0]) / h - p.xdot[0]) ** 2
                  for p in mc.sample_paths(SQEXP, 512, 50, seed=62)]
        assert_allclose(chk.mean, np.mean(direct), rtol=1e-12)

    def test_mc_check_h_beyond_span(self):
        with pytest.raises(DomainError):
            mc.ms_derivative_check(SQEXP, 2.0, n_paths=10, grid_points=128, seed=63)


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


@pytest.fixture
def blas_count():
    """The getter of numpy's OpenBLAS thread count, set to 2 for the test
    so that a hold left in place would show, and restored afterwards."""
    controls = mc._openblas_thread_controls()
    if not controls:
        pytest.skip("numpy calls no OpenBLAS with a settable thread count")
    get, put = controls
    before = get()
    put(2)
    try:
        if get() != 2:
            pytest.skip("this OpenBLAS runs on one thread only")
        yield get
    finally:
        put(before)


def _count_probe(get, seen, fail_at=None):
    """A path statistic that records the BLAS thread count at each block,
    and raises at block ``fail_at``."""
    def statistic(plan, rows):
        def per_path(x, xd):
            seen.append(get())
            if len(seen) == fail_at:
                raise ArithmeticError("probe")
            return x[:, :1]
        return per_path
    return statistic


class TestOneBlasThread:
    """Every pass runs OpenBLAS on one thread and leaves the count as it
    found it."""

    PLAN = mc.build_embedding_plan(SQEXP, 128)

    def _paths(self, blocks):
        return 2 * blocks * mc._pair_chunk(self.PLAN)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_pass_holds_one_thread_and_restores_the_count(self, blas_count, workers):
        seen = []
        mc._path_moments(self.PLAN, 3, self._paths(4), _count_probe(blas_count, seen), workers)
        assert seen == [1, 1, 1, 1]
        assert blas_count() == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_pass_that_raises_restores_the_count(self, blas_count, workers):
        seen = []
        with pytest.raises(ArithmeticError):
            mc._path_moments(self.PLAN, 3, self._paths(4),
                             _count_probe(blas_count, seen, fail_at=2), workers)
        assert blas_count() == 2

    def test_sample_paths_consumer_sees_the_count_it_set(self, blas_count):
        paths = mc.sample_paths(SQEXP, 128, self._paths(3), 5, plan=self.PLAN)
        for i, _ in enumerate(paths):  # user code between yields, over two blocks
            assert blas_count() == 2
            if i == self._paths(1) + 2:
                break
        paths.close()
        assert blas_count() == 2

    def test_overlapping_passes_from_user_threads_restore_the_count(self, blas_count):
        kernel, grid, n_paths = SQEXP, 128, self._paths(6) + 1
        functionals = [parse_functional("H:2"), parse_functional("H2:1,1")]
        expected = mc.mc_integrated_functionals(functionals, kernel, n_paths, grid, 8,
                                                workers=1, plan=self.PLAN)
        start, results = threading.Barrier(4), []

        def user():
            start.wait(timeout=30)
            for workers in (2, 1, 2):
                results.append(mc.mc_integrated_functionals(
                    functionals, kernel, n_paths, grid, 8, workers=workers, plan=self.PLAN))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=user) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 12
        assert blas_count() == 2

    def test_a_pass_sets_no_environment_variable(self, blas_count, monkeypatch):
        # a fresh hold, so the library lookup itself runs inside the check
        monkeypatch.setattr(mc, "_ONE_BLAS_THREAD", mc._OneBlasThread())
        before = dict(os.environ)
        mc.crossing_statistics(SQEXP, 0.0, self._paths(2), 128, 4, workers=2, plan=self.PLAN)
        assert dict(os.environ) == before  # no OPENBLAS_* or OMP_* variable among them

    def test_overlapping_holds_save_once_and_restore_last(self, monkeypatch):
        count, calls = [3], []

        def put(n):
            calls.append(n)
            count[0] = n

        monkeypatch.setattr(mc, "_openblas_thread_controls", lambda: (lambda: count[0], put))
        hold = mc._OneBlasThread()
        with hold:
            with hold:  # a second pass entering while the first runs
                assert count == [1]
            assert count == [1]
        assert count == [3] and calls == [1, 3]
        monkeypatch.setattr(mc, "_openblas_thread_controls", lambda: ())
        with mc._OneBlasThread():  # no OpenBLAS found: nothing to hold
            pass
        assert calls == [1, 3]
