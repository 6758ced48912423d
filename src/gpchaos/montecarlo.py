"""Joint path sampling of (X, dX) and Monte Carlo oracles.

Paths are drawn by circulant embedding in the spectral domain: the
covariance row is periodized, its FFT gives the embedding eigenvalues, and
multiplying each spectral amplitude by i*lambda produces the derivative
channel, so (X, dX) carry their exact joint law on the grid (up to reported
eigenvalue clipping).  Normals are drawn only on the eigen-support (the
modes whose floored eigenvalue is non-zero); the grid values are then
synthesized either directly from a K x n Fourier basis or by a zero-filled
inverse FFT, whichever the plan's sizes make cheaper.  Every path is a
deterministic function of (seed, path_index) no matter how work is
scheduled.
"""

from __future__ import annotations

import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chaos import Functional
from .errors import DomainError, EmbeddingFailure
from .kernels import Kernel
from .specfun import hermite

__all__ = [
    "EmbeddingPlan",
    "build_embedding_plan",
    "PathSample",
    "sample_paths",
    "count_crossings",
    "CrossingStats",
    "crossing_statistics",
    "rice_crossing_mean",
    "MCMoments",
    "mc_integrated_functionals",
    "ms_derivative_residual",
    "MSDerivativeCheck",
    "ms_derivative_check",
    "write_paths_binary",
    "read_paths_binary",
]

# Periodization wraps of the covariance row on each side.
PERIODIZATION_WRAPS = 8

# Relative negativity of embedding eigenvalues tolerated before failure,
# and the floor below which eigenvalues are zeroed.
EMBEDDING_FAILURE_TOL = 1e-8
EIGENVALUE_FLOOR = 1e-12

# Doublings of the embedding size allowed while chasing covariance tails.
GROWTH_CAP = 6

_BINARY_MAGIC = b"GPRG"
_BINARY_VERSION = 1


def _worker_count(workers=None) -> int:
    if workers is not None:
        count = int(workers)
    else:
        env = os.environ.get("GPCHAOS_WORKERS", "")
        try:
            count = int(env) if env else 1
        except ValueError:
            raise DomainError(f"GPCHAOS_WORKERS={env!r} is not an integer") from None
    if count < 1:
        raise DomainError(f"worker count {count} must be at least 1")
    return count


# ---------------------------------------------------------------------------
# embedding plan


@dataclass(frozen=True)
class EmbeddingPlan:
    """Spectral data for sampling (X, dX) on a fixed grid.

    ``eigenvalues`` is the FFT of the periodized covariance row after
    flooring and ``support`` the indices of its non-zero entries, the only
    modes the sampler draws; ``clipped`` counts negative eigenvalues that
    were zeroed and ``min_eigenvalue`` records the worst value before
    clipping.
    """

    kernel: str
    grid_points: int
    grid_step: float
    embedding_size: int
    sigma: float
    eigenvalues: np.ndarray
    support: np.ndarray
    angular_frequencies: np.ndarray
    clipped: int
    min_eigenvalue: float
    notes: tuple

    @property
    def direct_synthesis(self) -> bool:
        """True when K x n direct synthesis is cheaper than an m-point FFT."""
        m = self.embedding_size
        return self.support.size * self.grid_points < m * math.log2(m)

    @cached_property
    def _direct_basis(self) -> tuple:
        """Real (2K, n) maps, one contiguous array each, from a pair's draws
        [re | im] to the real x and to the real dX grid values; the
        [im | -re] row gives the imaginary ones.

        Column j of the x map is the amplitude times the inverse-DFT entry
        exp(2 pi i k j / m) / m of each support mode k; the dX map
        multiplies that by i*lambda_k.
        """
        k = self.support
        m = self.embedding_size
        # reduce k*j mod m in integers so the phase stays exact at large m
        phase = np.outer(k, np.arange(self.grid_points)) % m
        rows = np.exp((2j * math.pi / m) * phase)
        rows *= (np.sqrt(self.eigenvalues[k] * m) / m)[:, None]
        deriv = rows * (1j * self.angular_frequencies[k])[:, None]
        return tuple(np.concatenate([f.real, -f.imag]) for f in (rows, deriv))


def build_embedding_plan(kernel: Kernel, grid_points: int) -> EmbeddingPlan:
    """Periodize r, double the embedding until the wrap-around tail of
    (r, r', r'') is negligible, and check the eigenvalues are usable."""
    if int(grid_points) != grid_points or grid_points < 2:
        raise DomainError(f"grid_points={grid_points} must be an integer >= 2")
    n = int(grid_points)
    dt = 1.0 / (n - 1)
    r2 = kernel.r2_zero()  # the joint law needs the derivative channel
    sigma = math.sqrt(-r2)
    tail_tol = 1e-9 * max(1.0, abs(r2))

    def tail(size):
        period = size * dt
        total = 0.0
        for j in (1, 2):
            s = j * period
            total += abs(kernel.r(s)) + abs(kernel.r_prime(s)) + abs(kernel.r_second(s))
        return total

    m = 1 << max(3, math.ceil(math.log2(4 * (n - 1))))
    notes = []
    doublings = 0
    while tail(m) > tail_tol and doublings < GROWTH_CAP:
        m *= 2
        doublings += 1
    if tail(m) > tail_tol:
        notes.append(
            f"covariance tail {tail(m):.3e} above tolerance {tail_tol:.3e} "
            f"at the size cap; periodization bias is not controlled"
        )

    period = m * dt
    t_row = np.arange(m) * dt
    row = np.zeros(m)
    for j in range(-PERIODIZATION_WRAPS, PERIODIZATION_WRAPS + 1):
        row += kernel.r(np.abs(t_row + j * period))
    eig = np.fft.fft(row).real
    eig_max = float(eig.max())
    eig_min = float(eig.min())
    if eig_max <= 0.0:
        raise EmbeddingFailure(f"embedding of {kernel.spec_string()} has no positive eigenvalues")
    if eig_min < -EMBEDDING_FAILURE_TOL * eig_max:
        raise EmbeddingFailure(
            f"embedding of {kernel.spec_string()} at {m} points has eigenvalue "
            f"{eig_min:.3e} below -{EMBEDDING_FAILURE_TOL:g} * max ({eig_max:.3e})"
        )
    clipped = int(np.count_nonzero(eig < 0.0))
    if clipped:
        notes.append(
            f"clipped {clipped} negative eigenvalues (worst {eig_min:.3e} "
            f"against max {eig_max:.3e})"
        )
    eig = np.where(eig < EIGENVALUE_FLOOR * eig_max, 0.0, eig)
    lam = 2.0 * math.pi * np.fft.fftfreq(m, d=dt)
    return EmbeddingPlan(
        kernel=kernel.spec_string(),
        grid_points=n,
        grid_step=dt,
        embedding_size=m,
        sigma=sigma,
        eigenvalues=eig,
        support=np.flatnonzero(eig),
        angular_frequencies=lam,
        clipped=clipped,
        min_eigenvalue=eig_min,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# path generation


@dataclass(frozen=True)
class PathSample:
    grid_step: float
    length: int
    x: np.ndarray
    xdot: np.ndarray
    seed: int
    path_index: int


def _check_run_args(n_paths, seed):
    if int(n_paths) != n_paths or n_paths < 1:
        raise DomainError(f"n_paths={n_paths} must be a positive integer")
    if int(seed) != seed or seed < 0:
        raise DomainError(f"seed={seed} must be a nonnegative integer")
    return int(n_paths), int(seed)


def _pair_chunk(embedding_size: int) -> int:
    # fixed by the plan alone so chunk boundaries (and hence array
    # stacking) never depend on the worker count
    return max(1, (1 << 21) // embedding_size)


def _support_draws(plan: EmbeddingPlan, seed: int, pair_start: int, pair_stop: int):
    """Standard normals on the eigen-support, one row [re | im] of 2K per
    path pair, each row a function of (seed, pair) alone."""
    k = plan.support.size
    bits = np.random.Philox(key=[seed, pair_start])
    normals = np.random.Generator(bits)
    # a fresh stream's state; re-keying it is cheaper than a new generator
    fresh = bits.state
    draws = np.empty((pair_stop - pair_start, 2 * k))
    for row, pair in zip(draws, range(pair_start, pair_stop)):
        fresh["state"]["key"] = np.array([seed, pair], dtype=np.uint64)
        bits.state = fresh
        normals.standard_normal(out=row)
    return draws


def _direct_paths(plan: EmbeddingPlan, draws, values_only=False):
    """Paths of a pair block by K x n direct synthesis: the real part of
    each pair's field is the even path, the imaginary part the odd one."""
    count = draws.shape[0]
    k = plan.support.size
    signed = np.empty((2 * count, 2 * k))
    signed[0::2] = draws
    signed[1::2, :k] = draws[:, k:]
    signed[1::2, k:] = -draws[:, :k]
    x_basis, xdot_basis = plan._direct_basis
    return signed @ x_basis, None if values_only else signed @ xdot_basis


def _fft_paths(plan: EmbeddingPlan, draws, values_only=False):
    """Paths of a pair block by a zero-filled m-point inverse FFT."""
    count = draws.shape[0]
    m = plan.embedding_size
    k = plan.support.size
    spectral = np.zeros((count, m), dtype=complex)
    z = draws[:, :k] + 1j * draws[:, k:]
    spectral[:, plan.support] = np.sqrt(plan.eigenvalues[plan.support] * m) * z
    n = plan.grid_points

    def paths(spectrum):  # rows 2i and 2i+1: real and imaginary part of pair i
        field = np.fft.ifft(spectrum, axis=1)[:, :n]
        return np.stack([field.real, field.imag], axis=1).reshape(2 * count, n)

    x = paths(spectral)
    return x, None if values_only else paths(1j * plan.angular_frequencies * spectral)


def _pair_block(plan: EmbeddingPlan, seed: int, pair_start: int, pair_stop: int,
                values_only=False):
    """Paths [2*pair_start, 2*pair_stop) as (x, xdot) blocks: one complex
    field per pair, the real part feeding the even path and the imaginary
    part the odd one.  ``values_only`` leaves xdot None."""
    draws = _support_draws(plan, seed, pair_start, pair_stop)
    synthesize = _direct_paths if plan.direct_synthesis else _fft_paths
    return synthesize(plan, draws, values_only)


def _blocks(plan, seed, n_paths, statistic, workers=1, values_only=False):
    """Yield ``statistic(x_block, xdot_block)`` for paths 0..n_paths-1 in
    path order, one block per chunk of path pairs.

    Chunks are fixed by the plan, so blocks (and anything reduced from
    them) are bit-identical at any worker count.  With several workers the
    statistic runs in the worker threads, so only its results are held.
    With ``values_only`` dX is never synthesized and xdot_block is None.
    """
    chunk = _pair_chunk(plan.embedding_size)
    n_pairs = (n_paths + 1) // 2
    starts = range(0, n_pairs, chunk)

    def run(lo):
        hi = min(lo + chunk, n_pairs)
        x, xdot = _pair_block(plan, seed, lo, hi, values_only)
        keep = min(2 * hi, n_paths) - 2 * lo
        return statistic(x[:keep], None if xdot is None else xdot[:keep])

    if workers == 1 or len(starts) == 1:
        yield from map(run, starts)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(run, starts)


def _per_path_values(plan, seed, n_paths, statistic, workers=None, values_only=False):
    """Evaluate a per-path statistic for paths 0..n_paths-1, in order.

    ``statistic(x_block, xdot_block)`` maps path blocks to a 1-D array.
    """
    blocks = _blocks(plan, seed, n_paths, statistic, _worker_count(workers), values_only)
    parts = [np.asarray(part, dtype=float) for part in blocks]
    return np.concatenate(parts) if parts else np.empty(0)


def sample_paths(kernel: Kernel, grid_points: int, n_paths: int, seed: int, plan=None):
    """Yield PathSample objects for path_index = 0..n_paths-1."""
    n_paths, seed = _check_run_args(n_paths, seed)
    if plan is None:
        plan = build_embedding_plan(kernel, grid_points)
    index = 0
    for x, xdot in _blocks(plan, seed, n_paths, lambda x, xd: (x, xd)):
        for row, drow in zip(x, xdot):
            yield PathSample(
                grid_step=plan.grid_step,
                length=plan.grid_points,
                x=row.copy(),
                xdot=drow.copy(),
                seed=seed,
                path_index=index,
            )
            index += 1


# ---------------------------------------------------------------------------
# crossings


def count_crossings(path, level: float = 0.0) -> int:
    """Sign changes of x - level across adjacent grid points.

    Tie rule: a grid value exactly at the level inherits the sign of the
    previous excursion (a touch is not a crossing); a path that starts on
    the level takes the opposite of its first excursion, so leaving the
    level counts as one crossing.  Ties have probability zero for the
    sampled laws; the rule only pins down determinism.
    """
    x = path.x if isinstance(path, PathSample) else np.asarray(path, dtype=float)
    return int(_crossing_counts(x[None, :], level)[0])


def _crossing_counts(x_block, level):
    """count_crossings for every row of a block, as floats."""
    s = np.sign(x_block - level)
    if not s.all():  # grid values exactly at the level: apply the tie rule
        cols = np.arange(s.shape[1])
        # leading ties take the opposite of the first excursion's sign (an
        # all-tie row has first = 0 and sign 0, and stays all zero)
        first = np.argmax(s != 0.0, axis=1)[:, None]
        s = np.where(cols < first, -np.take_along_axis(s, first, axis=1), s)
        # forward-fill interior ties with the previous nonzero sign
        idx = np.maximum.accumulate(np.where(s != 0.0, cols, 0), axis=1)
        s = np.take_along_axis(s, idx, axis=1)
    return np.count_nonzero(s[:, 1:] != s[:, :-1], axis=1).astype(float)


@dataclass(frozen=True)
class CrossingStats:
    kernel: str
    level: float
    n_paths: int
    grid_points: int
    seed: int
    mean: float
    variance: float
    std_error: float
    second_moment: float


def _moment_stats(values: np.ndarray):
    n = values.size
    mean = math.fsum(values.tolist()) / n
    second = math.fsum((values * values).tolist()) / n
    if n > 1:
        deviation = values - mean
        variance = math.fsum((deviation * deviation).tolist()) / (n - 1)
    else:
        variance = 0.0
    return mean, second, variance


def crossing_statistics(
    kernel: Kernel, level: float, n_paths: int, grid_points: int, seed: int, workers=None,
    plan=None,
) -> CrossingStats:
    n_paths, seed = _check_run_args(n_paths, seed)
    if plan is None:
        plan = build_embedding_plan(kernel, grid_points)
    counts = _per_path_values(
        plan, seed, n_paths, lambda x, xd: _crossing_counts(x, level), workers,
        values_only=True,
    )
    mean, second, variance = _moment_stats(counts)
    return CrossingStats(
        kernel=plan.kernel,
        level=float(level),
        n_paths=n_paths,
        grid_points=plan.grid_points,
        seed=seed,
        mean=mean,
        variance=variance,
        std_error=math.sqrt(variance / n_paths),
        second_moment=second,
    )


def rice_crossing_mean(kernel: Kernel, level: float = 0.0) -> float:
    """Expected level crossings on [0,1] of a unit-variance stationary
    Gaussian path: (1/pi) sqrt(-r''(0)) exp(-level^2/2)."""
    r2 = kernel.r2_zero()
    return math.sqrt(-r2) / math.pi * math.exp(-0.5 * level * level)


# ---------------------------------------------------------------------------
# integrated functionals


def _evaluate_functional(func: Functional, x, xdot_normalized):
    if func.kind == "H2":
        return hermite(func.a, x) * hermite(func.b, xdot_normalized)
    v = xdot_normalized if func.axis == "xdot" else x
    if func.kind == "H":
        return hermite(func.m, v)
    if func.kind == "sign":
        return np.sign(v)
    if func.kind == "abs":
        return np.abs(v)
    return (v > func.level).astype(float)  # ind


@dataclass(frozen=True)
class MCMoments:
    functional: str
    kernel: str
    n_paths: int
    grid_points: int
    seed: int
    mean: float
    second_moment: float
    std_error: float
    mean_std_error: float


def mc_integrated_functionals(
    functionals, kernel: Kernel, n_paths: int, grid_points: int, seed: int, workers=None,
    plan=None,
):
    """Monte Carlo moments of int_0^1 Lambda(X_t, dX_t/sigma) dt for each
    functional, sharing one set of paths.

    ``std_error`` is the standard error of the second moment, the quantity
    the chaos pipeline predicts; ``mean_std_error`` goes with the mean.
    A prebuilt ``plan`` is used as is, as in ``sample_paths``.
    """
    functionals = list(functionals)
    n_paths, seed = _check_run_args(n_paths, seed)
    if plan is None:
        plan = build_embedding_plan(kernel, grid_points)

    values_only = all(f.kind != "H2" and f.axis != "xdot" for f in functionals)

    def statistic(x, xd):
        xn = None if values_only else xd / plan.sigma
        rows = [
            np.trapezoid(_evaluate_functional(f, x, xn), dx=plan.grid_step, axis=1)
            for f in functionals
        ]
        return np.concatenate(rows)  # len(functionals) blocks per chunk

    stacked = _per_path_values(
        plan,
        seed,
        n_paths,
        lambda x, xd: statistic(x, xd).reshape(len(functionals), -1).T.ravel(),
        workers,
        values_only,
    )
    per_func = stacked.reshape(-1, len(functionals)).T
    out = []
    for f, values in zip(functionals, per_func):
        mean, second, variance = _moment_stats(values)
        squares = values * values
        _, _, var_sq = _moment_stats(squares)
        out.append(
            MCMoments(
                functional=f.spec_string(),
                kernel=plan.kernel,
                n_paths=n_paths,
                grid_points=plan.grid_points,
                seed=seed,
                mean=mean,
                second_moment=second,
                std_error=math.sqrt(var_sq / n_paths),
                mean_std_error=math.sqrt(variance / n_paths),
            )
        )
    return out


# ---------------------------------------------------------------------------
# mean-square derivative


def ms_derivative_residual(kernel: Kernel, h: float) -> float:
    """Analytic residual E[((X_{t+h}-X_t)/h - dX_t)^2] for lag h > 0:
    (2 - 2 r(h))/h^2 + 2 r'(h)/h - r''(0)."""
    if not h > 0.0:
        raise DomainError(f"h={h} must be positive")
    r2 = kernel.r2_zero()
    return (2.0 - 2.0 * kernel.r(h)) / (h * h) + 2.0 * kernel.r_prime(h) / h - r2


@dataclass(frozen=True)
class MSDerivativeCheck:
    kernel: str
    h_requested: float
    h: float
    n_paths: int
    grid_points: int
    seed: int
    analytic: float
    mc_estimate: float
    std_error: float


def ms_derivative_check(
    kernel: Kernel, h: float, n_paths: int, grid_points: int, seed: int, workers=None
) -> MSDerivativeCheck:
    """Compare the analytic residual with sampled difference quotients.

    h is snapped to the nearest positive grid lag; both the analytic value
    (at the snapped h) and the Monte Carlo estimate refer to that lag.
    """
    if not h > 0.0:
        raise DomainError(f"h={h} must be positive")
    n_paths, seed = _check_run_args(n_paths, seed)
    plan = build_embedding_plan(kernel, grid_points)
    lag = max(1, int(round(h / plan.grid_step)))
    if lag >= plan.grid_points:
        raise DomainError(f"h={h} exceeds the grid span")
    h_eff = lag * plan.grid_step

    def statistic(x, xd):
        quotient = (x[:, lag] - x[:, 0]) / h_eff
        return (quotient - xd[:, 0]) ** 2

    values = _per_path_values(plan, seed, n_paths, statistic, workers)
    mean, _, variance = _moment_stats(values)
    return MSDerivativeCheck(
        kernel=plan.kernel,
        h_requested=float(h),
        h=h_eff,
        n_paths=n_paths,
        grid_points=plan.grid_points,
        seed=seed,
        analytic=ms_derivative_residual(kernel, h_eff),
        mc_estimate=mean,
        std_error=math.sqrt(variance / n_paths),
    )


# ---------------------------------------------------------------------------
# binary path dumps


def write_paths_binary(paths, file) -> int:
    """Dump paths (header GPRG, version, grid step, counts; then row-major
    float64 x then xdot per path).  Returns the number of paths written."""
    samples = list(paths)
    if not samples:
        raise DomainError("no paths to write")
    length = samples[0].length
    step = samples[0].grid_step
    for s in samples:
        if s.length != length or s.grid_step != step:
            raise DomainError("paths in one dump must share grid step and length")

    def emit(handle):
        handle.write(_BINARY_MAGIC)
        handle.write(struct.pack("<IdQQ", _BINARY_VERSION, step, len(samples), length))
        for s in samples:
            handle.write(np.ascontiguousarray(s.x, dtype="<f8").tobytes())
            handle.write(np.ascontiguousarray(s.xdot, dtype="<f8").tobytes())

    if hasattr(file, "write"):
        emit(file)
    else:
        with open(file, "wb") as handle:
            emit(handle)
    return len(samples)


def read_paths_binary(file):
    """Inverse of write_paths_binary: (grid_step, x, xdot) with arrays of
    shape (n_paths, length)."""

    def consume(handle):
        magic = handle.read(4)
        if magic != _BINARY_MAGIC:
            raise DomainError(f"bad magic {magic!r}; expected {_BINARY_MAGIC!r}")
        version, step, n_paths, length = struct.unpack("<IdQQ", handle.read(28))
        if version != _BINARY_VERSION:
            raise DomainError(f"unsupported dump version {version}")
        data = np.frombuffer(handle.read(16 * n_paths * length), dtype="<f8")
        if data.size != 2 * n_paths * length:
            raise DomainError("truncated path dump")
        data = data.reshape(n_paths, 2, length)
        return step, data[:, 0, :].copy(), data[:, 1, :].copy()

    if hasattr(file, "read"):
        return consume(file)
    with open(file, "rb") as handle:
        return consume(handle)
