"""Joint path sampling of (X, dX) and Monte Carlo oracles.

Paths are drawn by circulant embedding in the spectral domain: the
covariance row is periodized on an even window of wraps, less their value
at lag 0 (taken out of bin 0, so the row holds r(0) there), its FFT gives
the embedding eigenvalues, and multiplying each spectral amplitude by
i*lambda produces the derivative channel, so (X, dX) carry their exact
joint law on the grid (up to reported eigenvalue clipping).  Normals are
drawn only on the eigen-support (the modes whose floored eigenvalue is
non-zero); the grid values are then synthesized either directly from a
real cosine and sine basis over the support's distinct |frequencies| or by
a chirp-z transform of the band of signed frequencies that holds the
support, whichever the plan's sizes make cheaper.  Paths are made in
blocks of path pairs whose bounds the plan alone fixes, and a block's
normals come from one Philox stream keyed on (seed, the block's first
pair), so every path is a deterministic function of (seed, path_index) on
a given plan, however many paths are asked for and however work is
scheduled.
"""

from __future__ import annotations

import itertools
import math
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, EmbeddingFailure, whole
from .kernels import TILE_BYTES, Kernel, _even_row_spectrum
from .specfun import hermite

__all__ = [
    "EmbeddingPlan",
    "build_embedding_plan",
    "PathSample",
    "sample_paths",
    "count_crossings",
    "Moments",
    "crossing_statistics",
    "rice_crossing_mean",
    "mc_integrated_functionals",
    "ms_derivative_residual",
    "ms_derivative_check",
]

# Periodization wraps of the covariance row on each side.
PERIODIZATION_WRAPS = 8

# Relative negativity of embedding eigenvalues tolerated before failure,
# and the floor below which eigenvalues are zeroed.
EMBEDDING_FAILURE_TOL = 1e-8
EIGENVALUE_FLOOR = 1e-12

# Doublings of the embedding size allowed while chasing covariance tails.
GROWTH_CAP = 6

# Direct synthesis runs when K n < SYNTHESIS_COST_RATIO * L log2 L: the
# one-thread break-even of the (2F, n) basis product (_OneBlasThread), which
# two timing sweeps of 35 plans on a 2-core box put at 21.0 and 22.9
# (BENCH_25.json).
SYNTHESIS_COST_RATIO = 22.0

# Largest K n of a direct route: its (2F, n) basis over F <= K distinct
# |frequencies| holds 16 F n <= 16 K n bytes, so this caps it at 32 MiB (a
# full-support rq:alpha=0.5 plan at grid 256, F = 32,769, would otherwise
# pick a 128 MiB basis).
DIRECT_BASIS_LIMIT = 1 << 21

# Bytes a block of path pairs may spend on what each pair synthesizes: its
# band of L complex values or its two rows of n doubles, whichever is more.
# A worker's workspace then stays near cache size, whatever the embedding
# size m.  Fixed from a block-size sweep on a 2-core box with 2 MiB of L2
# per core (BENCH_21.json).  Blocks are also the unit of the normals'
# stream (_support_draws), so changing this changes every sampled path.
BLOCK_BYTES = 1 << 20

# A plan's row is built on lag tiles of kernels.TILE_BYTES.  A statistic's row
# tile takes 2 TILE_BYTES per (rows, n) array, 64 rows at n = 512: 32-row tiles
# cost more in per-call overhead than they save (BENCH_28.json).  Each row's values
# are its own, whatever rows share its tile, so tiles change no value and TILE_BYTES
# is not part of the stream layout.


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


def _openblas_thread_controls() -> tuple:
    """``(get, set)`` of the thread count of the OpenBLAS that numpy calls,
    or ``()`` when none is found.

    The symbols are looked up through numpy's own extension module, whose
    dependencies hold the BLAS it was linked against, so another OpenBLAS
    in the process (scipy's, say) is never the one found.  numpy's wheels
    ship scipy-openblas with 64-bit integers (``scipy_openblas_*64_``); a
    plain OpenBLAS exports ``openblas_*``.
    """
    import ctypes  # on first use, like the lookup itself

    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return ()
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return ()


class _OneBlasThread:
    """Holds numpy's OpenBLAS at one thread while any sampler pass runs.

    A pass's only parallelism is its worker pool.  Left at its default,
    OpenBLAS would also spread each small block product over every core,
    which costs about as much CPU again for little wall time, sometimes
    stalls, and makes two workers slower than one.  The count is
    process-wide, so passes that overlap (from several user threads) share
    one hold: the first to enter saves the count and sets 1, the last to
    leave restores it.  The library is looked up on first entry; where numpy
    calls another BLAS, entering does nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._controls = None
        self._holders = 0
        self._saved = 0

    def __enter__(self):
        with self._lock:
            if self._controls is None:
                self._controls = _openblas_thread_controls()
            if self._controls and not self._holders:
                get, put = self._controls
                self._saved = get()
                put(1)
            self._holders += 1

    def __exit__(self, *exc):
        with self._lock:
            self._holders -= 1
            if self._controls and not self._holders:
                self._controls[1](self._saved)


_ONE_BLAS_THREAD = _OneBlasThread()


def _next_fast_len(target: int) -> int:
    """The least 2^a 3^b 5^c 7^d 11^e >= target, a length pocketfft transforms
    fast, by trial division of target, target + 1, ..."""
    for n in itertools.count(target):
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n


# ---------------------------------------------------------------------------
# embedding plan


@dataclass(frozen=True)
class EmbeddingPlan:
    """Spectral data for sampling (X, dX) on a fixed grid.

    ``eigenvalues`` is the FFT of the covariance row, periodized on an
    even window of wraps with their value at lag 0 taken out of bin 0, after
    flooring, and ``support`` the indices of its non-zero entries, the only
    modes the sampler draws; ``clipped`` counts negative eigenvalues that
    were zeroed, ``min_eigenvalue`` records the worst value before clipping
    and ``periodization_bias`` what the wraps add to the covariance's r''(0).
    """

    grid_points: int
    grid_step: float
    embedding_size: int
    sigma: float
    eigenvalues: np.ndarray
    support: np.ndarray
    angular_frequencies: np.ndarray
    clipped: int
    min_eigenvalue: float
    periodization_bias: float
    notes: tuple

    @cached_property
    def _signed_support(self) -> np.ndarray:
        """The support's signed frequencies, in [-m/2, m/2)."""
        m = self.embedding_size
        return (self.support + m // 2) % m - m // 2

    @cached_property
    def band_length(self) -> int:
        """L, the FFT length of band synthesis: enough for a linear
        convolution of the support's band with n grid values, never above m."""
        band = int(self._signed_support.max() - self._signed_support.min()) + 1
        return min(self.embedding_size, _next_fast_len(self.grid_points + band - 1))

    @cached_property
    def direct_synthesis(self) -> bool:
        """True when K x n direct synthesis is cheaper than band synthesis,
        whose FFTs of length L cost about SYNTHESIS_COST_RATIO * L log2 L,
        and its basis fits DIRECT_BASIS_LIMIT."""
        work = self.support.size * self.grid_points
        length = self.band_length
        return (work <= DIRECT_BASIS_LIMIT
                and work < SYNTHESIS_COST_RATIO * length * math.log2(length))

    @cached_property
    def _direct_basis(self) -> tuple:
        """Direct synthesis data over the F distinct frequencies f = |k| of
        the support's signed frequencies k: the real (2F, n) basis
        [cos; sin] of 2 pi f j / m, and the fold from a pair's draws
        [re | im] onto its 2F coefficients in that basis.

        Mode k adds a_k z_k exp(2 pi i k j / m) / m to a pair's field, with
        a_k = sqrt(eigenvalue * m) and z_k = re_k + i im_k.  Each f has a +f
        slot (which also holds k = 0) and a -f slot (which also holds the
        Nyquist mode -m/2); a slot with no support mode keeps amplitude 0.
        Returns the draw columns [re+ | re- | im+ | im-] of the 4F slots,
        their amplitudes a_k / m, the rates [omega | -omega] with omega =
        |lambda_k| of each f, and the basis.
        """
        signed = self._signed_support
        m = self.embedding_size
        k = self.support.size
        freq = np.abs(signed)
        ordered = np.sort(freq)  # np.unique would import numpy.ma, 15 ms
        freqs = ordered[np.concatenate([[True], ordered[1:] != ordered[:-1]])]
        slot = np.searchsorted(freqs, freq) + np.where(signed < 0, freqs.size, 0)
        index = np.zeros(2 * freqs.size, dtype=np.intp)
        index[slot] = np.arange(k)
        amp = np.zeros(2 * freqs.size)
        amp[slot] = np.sqrt(self.eigenvalues[self.support] * m) / m
        omega = np.zeros(freqs.size)
        omega[slot % freqs.size] = np.abs(self.angular_frequencies[self.support])
        # reduce f*j mod m in integers so the phase stays exact at large m
        angle = (2.0 * math.pi / m) * (np.outer(freqs, np.arange(self.grid_points)) % m)
        return (np.concatenate([index, index + k]), np.tile(amp, 2),
                np.concatenate([omega, -omega]), np.concatenate([np.cos(angle), np.sin(angle)]))

    @cached_property
    def _band_chirps(self) -> tuple:
        """Chirp-z (Bluestein) data for band synthesis, with w = exp(2 pi i / m).

        Grid value j of a band spectrum c_b at signed frequency k0 + b is
        w^(j^2/2 + k0 j) / m * sum_b [c_b w^(b^2/2)] w^(-(j-b)^2/2), a
        convolution done with length-L FFTs.  Returns the band position of
        each support mode, the x and dX amplitudes times w^(b^2/2), the FFT
        of the kernel w^(-d^2/2) and the output chirp with its 1/m.  As m is
        even the kernel has period m, so L = m aliases nothing.
        """
        m = self.embedding_size
        n = self.grid_points
        k0 = int(self._signed_support.min())
        length = self.band_length

        def chirp(q):  # w^(q/2), with q reduced mod 2m in integers
            return np.exp((1j * math.pi / m) * (q % (2 * m)))

        k = self.support
        position = self._signed_support - k0
        amp = np.sqrt(self.eigenvalues[k] * m) * chirp(position * position)
        lag = np.arange(length)
        lag = np.where(lag < n, lag, lag - length)  # d and d - L share a slot
        kernel = np.fft.fft(chirp(-lag * lag))
        j = np.arange(n)
        post = chirp(j * j + 2 * k0 * j) / m
        return position, amp, amp * (1j * self.angular_frequencies[k]), kernel, post


def build_embedding_plan(kernel: Kernel, grid_points: int) -> EmbeddingPlan:
    """Take the eigenvalues from the even row of kernels._even_row_spectrum
    at PERIODIZATION_WRAPS wraps, and check they are usable.  That row holds
    r(0) and slope 0 at lag 0, so the wraps' one error there is the bias
    2 sum_{j >= 1} r''(j m dt) = c''(0) - r''(0) of its covariance c, whose
    half bounds max |c - r| on [0, 1] to leading order: m doubles until the
    bias is negligible."""
    n = whole(grid_points, f"grid_points={grid_points} must be an integer >= 2", low=2)
    dt = 1.0 / (n - 1)
    r2 = kernel.r2_zero()  # the joint law needs the derivative channel
    bias_tol = 1e-9 * max(1.0, abs(r2))

    def bias(size):  # c''(0) - r''(0) at embedding size `size`
        lags = np.arange(1, PERIODIZATION_WRAPS + 1) * (size * dt)
        return 2.0 * float(np.sum(kernel.r_second(lags)))

    m = 1 << max(3, math.ceil(math.log2(4 * (n - 1))))
    for _ in range(GROWTH_CAP):
        if abs(bias(m)) <= bias_tol:
            break
        m *= 2
    wrap_bias, notes = bias(m), []
    if abs(wrap_bias) > bias_tol:
        notes.append(f"periodization bias {wrap_bias:.3e} in r''(0) above tolerance "
                     f"{bias_tol:.3e} at the size cap; it is not controlled")

    # an even row's FFT is real and even, so the real parts of the m/2 + 1
    # bins of its real FFT, mirrored, are all of it
    half = _even_row_spectrum(kernel, m, dt, PERIODIZATION_WRAPS).real
    eig = np.empty(m)
    eig[:half.size], eig[half.size:] = half, half[-2:0:-1]
    del half
    eig_max, eig_min = float(eig.max()), float(eig.min())
    if eig_max <= 0.0:
        raise EmbeddingFailure(f"embedding of {kernel.spec_string()} has no positive eigenvalues")
    if eig_min < -EMBEDDING_FAILURE_TOL * eig_max:
        raise EmbeddingFailure(
            f"embedding of {kernel.spec_string()} at {m} points has eigenvalue "
            f"{eig_min:.3e} below -{EMBEDDING_FAILURE_TOL:g} * max ({eig_max:.3e})"
        )
    clipped = int(np.count_nonzero(eig < 0.0))
    if clipped:
        notes.append(f"clipped {clipped} negative eigenvalues (worst {eig_min:.3e} "
                     f"against max {eig_max:.3e})")
    eig[eig < EIGENVALUE_FLOOR * eig_max] = 0.0
    lam = np.fft.fftfreq(m, d=dt)
    lam *= 2.0 * math.pi
    return EmbeddingPlan(grid_points=n, grid_step=dt, embedding_size=m, sigma=math.sqrt(-r2),
                         eigenvalues=eig, support=np.flatnonzero(eig), angular_frequencies=lam,
                         clipped=clipped, min_eigenvalue=eig_min, periodization_bias=wrap_bias,
                         notes=tuple(notes))


# ---------------------------------------------------------------------------
# path generation


@dataclass(frozen=True)
class PathSample:
    x: np.ndarray
    xdot: np.ndarray


def _run_plan(kernel, grid_points, n_paths, seed, plan):
    """The checked ``(n_paths, seed)`` of a sampling run and its plan; a
    prebuilt ``plan`` is used as is."""
    n_paths = whole(n_paths, f"n_paths={n_paths} must be a positive integer", low=1)
    seed = whole(seed, f"seed={seed} must be a nonnegative integer")
    return n_paths, seed, build_embedding_plan(kernel, grid_points) if plan is None else plan


def _pair_chunk(plan: EmbeddingPlan) -> int:
    # fixed by the plan alone so chunk boundaries (and hence the normals'
    # streams and array stacking) never depend on the worker count
    return max(1, BLOCK_BYTES // (16 * max(plan.grid_points, plan.band_length)))


class _Workspace:
    """The arrays one worker refills for every block of up to ``pairs``
    path pairs: the support draws, the synthesis route's scratch and the x
    and dX rows, which the direct route makes only at the grid ``columns``
    when some are given.  A shorter last block uses their leading rows."""

    def __init__(self, plan: EmbeddingPlan, pairs: int, values_only: bool, columns=None):
        n, k = plan.grid_points, plan.support.size
        self.draws = np.empty((pairs, 2 * k))
        self.columns = columns
        if plan.direct_synthesis:
            rows = plan._direct_basis[3].shape[0]  # 2F
            self.folded = np.empty((pairs, 2 * rows))
            self.coef = np.empty((2 * pairs, rows))
            self.dcoef = None if values_only else np.empty((2 * pairs, rows))
            n = n if columns is None else len(columns)
        else:
            self.spectral = np.empty((pairs, k), dtype=complex)
            self.buffer = np.empty((pairs, plan.band_length), dtype=complex)
        self.x = np.empty((2 * pairs, n))
        self.xdot = None if values_only else np.empty((2 * pairs, n))


def _support_draws(seed: int, pair_start: int, out):
    """Fill ``out`` with standard normals on the eigen-support, one row
    [re | im] of 2K per path pair from pair_start on, and return it.  The
    rows are read in order from one Philox stream keyed on (seed,
    pair_start), so a block that stops early draws a prefix of the rows of
    one that starts at the same pair."""
    return np.random.Generator(np.random.Philox(key=[seed, pair_start])).standard_normal(out=out)


def _direct_paths(plan: EmbeddingPlan, draws, folded, coef, dcoef, x, xdot, columns=None):
    """Fill x, and xdot unless it is None, with the paths of a pair block at
    the grid ``columns`` (all of them by default) by direct synthesis: the
    real part of each pair's field is the even path, the imaginary part the
    odd one.  ``folded`` holds 4F values per pair, ``coef`` and ``dcoef``
    2F per path."""
    index, amp, rates, basis = plan._direct_basis
    f = rates.size // 2
    np.multiply(draws[:, index], amp, out=folded)
    re_plus, re_minus, im_plus, im_minus = (folded[:, i * f:(i + 1) * f] for i in range(4))
    # a mode at +-f adds a (re + i im)(cos +- i sin) to a pair's field
    np.add(re_plus, re_minus, out=coef[0::2, :f])
    np.subtract(im_minus, im_plus, out=coef[0::2, f:])
    np.add(im_plus, im_minus, out=coef[1::2, :f])
    np.subtract(re_plus, re_minus, out=coef[1::2, f:])
    if columns is not None:
        basis = basis[:, columns]
    np.matmul(coef, basis, out=x)
    if xdot is not None:  # d/dt (C cos wt + S sin wt) = w S cos wt - w C sin wt
        np.multiply(coef[:, f:], rates[:f], out=dcoef[:, :f])
        np.multiply(coef[:, :f], rates[f:], out=dcoef[:, f:])
        np.matmul(dcoef, basis, out=xdot)


def _band_paths(plan: EmbeddingPlan, draws, spectral, buffer, x, xdot):
    """Fill x, and xdot unless it is None, with the paths of a pair block by
    chirp-z synthesis of the support band.  ``spectral`` holds K and
    ``buffer`` L complex values per pair."""
    k = plan.support.size
    position, x_amp, xdot_amp, kernel, post = plan._band_chirps
    field = buffer[:, :plan.grid_points]
    for amp, out in ((x_amp, x), (xdot_amp, xdot)):
        if out is None:
            continue
        spectral.real = draws[:, :k]
        spectral.imag = draws[:, k:]
        np.multiply(amp, spectral, out=spectral)
        buffer.fill(0.0)
        for row, values in zip(buffer, spectral):  # a 2-D scatter is far slower
            row[position] = values
        np.fft.fft(buffer, axis=1, out=buffer)
        buffer *= kernel
        np.fft.ifft(buffer, axis=1, out=buffer)
        field *= post
        out[0::2] = field.real  # rows 2i and 2i+1: real and imaginary part of pair i
        out[1::2] = field.imag


def _pair_block(plan: EmbeddingPlan, seed: int, pair_start: int, pair_stop: int,
                space: _Workspace):
    """Paths [2*pair_start, 2*pair_stop) as (x, xdot) views of the
    workspace, at the workspace's grid columns: one complex field per pair,
    the real part feeding the even path and the imaginary part the odd one.
    xdot is None when the workspace has no dX rows."""
    count = pair_stop - pair_start
    draws = _support_draws(seed, pair_start, space.draws[:count])
    x = space.x[:2 * count]
    xdot = None if space.xdot is None else space.xdot[:2 * count]
    if plan.direct_synthesis:
        _direct_paths(plan, draws, space.folded[:count], space.coef[:2 * count],
                      None if xdot is None else space.dcoef[:2 * count], x, xdot, space.columns)
        return x, xdot
    _band_paths(plan, draws, space.spectral[:count], space.buffer[:count], x, xdot)
    if space.columns is None:
        return x, xdot
    # the band route makes whole rows
    return x[:, space.columns], None if xdot is None else xdot[:, space.columns]


def _blocks(plan, seed, n_paths, statistic, workers=1, values_only=False, columns=None):
    """Yield the statistic of paths 0..n_paths-1 in path order, one block
    per chunk of path pairs.

    ``statistic(plan, rows)`` returns the map ``(x_block, xdot_block) ->
    result`` for blocks of at most ``rows`` paths, and may keep scratch
    arrays for it.  The blocks are views of a workspace that later blocks
    overwrite, so a result that views them is only good until the caller
    asks for the next one.  Chunks are fixed by the plan, so blocks (and
    anything reduced from them) are bit-identical at any worker count.

    Each worker takes a free workspace and statistic for every block.  All
    of them are allocated here, on the calling thread, so the blocks never
    land in a worker thread's malloc arena, which glibc does not trim; only
    the results are held.  With ``values_only`` dX is never synthesized and xdot_block
    is None.  With ``columns`` the blocks hold only those grid columns.

    OpenBLAS runs on one thread while a block is made (see _OneBlasThread).
    A single worker lets go of that hold between blocks, as its caller may
    run user code there (sample_paths); a pool holds it from before its first
    block until it has shut down, so its blocks are for callers that run none.
    """
    chunk = _pair_chunk(plan)
    n_pairs = (n_paths + 1) // 2
    starts = range(0, n_pairs, chunk)
    pairs = min(chunk, n_pairs)
    count = min(workers, len(starts))
    free = queue.SimpleQueue()
    for _ in range(count):
        free.put((_Workspace(plan, pairs, values_only, columns), statistic(plan, 2 * pairs)))

    def run(lo):
        space, block_statistic = free.get()
        try:
            hi = min(lo + chunk, n_pairs)
            x, xdot = _pair_block(plan, seed, lo, hi, space)
            keep = min(2 * hi, n_paths) - 2 * lo
            return block_statistic(x[:keep], None if xdot is None else xdot[:keep])
        finally:
            free.put((space, block_statistic))

    if count == 1:
        for lo in starts:
            with _ONE_BLAS_THREAD:
                result = run(lo)
            yield result
    else:
        with _ONE_BLAS_THREAD, ThreadPoolExecutor(max_workers=count) as pool:
            yield from pool.map(run, starts)


def _path_moments(plan, seed, n_paths, statistic, workers, values_only=False,
                  columns=None) -> list:
    """Moments of each column of a statistic's values over paths
    0..n_paths-1; ``statistic(plan, rows)`` maps a block of at most ``rows``
    paths to one row per path (see _blocks)."""
    blocks = _blocks(plan, seed, n_paths, statistic, _worker_count(workers), values_only,
                     columns)
    return [_moments(values) for values in np.concatenate(list(blocks)).T]


@dataclass(frozen=True)
class Moments:
    """Sample moments of a per-path value over a run's paths.

    ``std_error`` is the standard error of the mean and
    ``second_std_error`` that of the second moment; ``variance`` is the
    unbiased sample variance (0 for one path).
    """

    mean: float
    second_moment: float
    variance: float
    std_error: float
    second_std_error: float


def _moments(values: np.ndarray) -> Moments:
    # numpy's pairwise sums, in path order, so the same values at any worker
    # count; kept off BLAS (np.dot), whose threads _OneBlasThread does not hold here
    n = values.size

    def mean_and_variance(v):
        mean = float(v.sum()) / n
        if n == 1:
            return mean, 0.0
        deviation = v - mean
        return mean, float(np.square(deviation, out=deviation).sum()) / (n - 1)

    mean, variance = mean_and_variance(values)
    second, second_variance = mean_and_variance(values * values)
    return Moments(mean, second, variance, math.sqrt(variance / n),
                   math.sqrt(second_variance / n))


def sample_paths(kernel: Kernel, grid_points: int, n_paths: int, seed: int, plan=None):
    """Yield a PathSample for each of paths 0..n_paths-1, in order."""
    n_paths, seed, plan = _run_plan(kernel, grid_points, n_paths, seed, plan)
    for x, xdot in _blocks(plan, seed, n_paths, lambda plan, rows: lambda x, xd: (x, xd)):
        for row, drow in zip(x, xdot):
            yield PathSample(row.copy(), drow.copy())


# ---------------------------------------------------------------------------
# crossings


def count_crossings(path, level: float = 0.0) -> int:
    """Sign changes of x - level across adjacent grid points.

    Tie rule, applied only when some grid value equals the level: a value
    exactly at the level inherits the sign of the previous excursion (a
    touch is not a crossing); a path that starts on the level takes the
    opposite of its first excursion, so leaving the level counts as one
    crossing.  Ties have probability zero for the sampled laws; the rule
    only pins down determinism.  A path with a non-finite value is
    rejected: NaN is on neither side of the level.
    """
    x = path.x if isinstance(path, PathSample) else np.asarray(path, dtype=float)
    if not np.isfinite(x).all():
        raise DomainError("count_crossings needs a finite path")
    if not math.isfinite(level):
        raise DomainError(f"level={level} must be finite")
    return int(_crossing_counts(x[None, :], level)[0])


def _crossing_counts(x_block, level, side=None, change=None):
    """count_crossings for every row of a finite block, as uint32.

    ``side`` (shaped like the block) and ``change`` (one column fewer) are
    boolean scratch arrays, allocated when not given."""
    if np.equal(x_block, level, out=side).any():  # values at the level: apply the tie rule
        s = np.sign(x_block - level)
        cols = np.arange(s.shape[1])
        # leading ties take the opposite of the first excursion's sign (an
        # all-tie row has first = 0 and sign 0, and stays all zero)
        first = np.argmax(s != 0.0, axis=1)[:, None]
        s = np.where(cols < first, -np.take_along_axis(s, first, axis=1), s)
        # forward-fill interior ties with the previous nonzero sign
        idx = np.maximum.accumulate(np.where(s != 0.0, cols, 0), axis=1)
        s = np.take_along_axis(s, idx, axis=1)
    else:  # no ties: which side of the level is enough, at a byte a point
        s = np.greater(x_block, level, out=side)
    # a uint32 sum is exact for any row shorter than 2^32 points, and runs
    # about twice as fast as count_nonzero's intp sum
    changes = np.not_equal(s[:, 1:], s[:, :-1], out=change)
    return changes.sum(axis=1, dtype=np.uint32)


def crossing_statistics(
    kernel: Kernel, level: float, n_paths: int, grid_points: int, seed: int, workers=None,
    plan=None,
) -> Moments:
    """Moments of the number of level crossings per path on [0, 1]."""
    return _estimate([], level, kernel, n_paths, grid_points, seed, workers, plan)[0]


def rice_crossing_mean(kernel: Kernel, level: float = 0.0) -> float:
    """Expected level crossings on [0,1] of a unit-variance stationary
    Gaussian path: (1/pi) sqrt(-r''(0)) exp(-level^2/2)."""
    if not math.isfinite(level):
        raise DomainError(f"level={level} must be finite")
    r2 = kernel.r2_zero()
    return math.sqrt(-r2) / math.pi * math.exp(-0.5 * level * level)


# ---------------------------------------------------------------------------
# integrated functionals


def mc_integrated_functionals(
    functionals, kernel: Kernel, n_paths: int, grid_points: int, seed: int, workers=None,
    plan=None, level=None,
) -> list:
    """Moments of int_0^1 Lambda(X_t, dX_t/sigma) dt, one per functional in
    the order given, from one set of paths.  The chaos pipeline predicts the
    second moment.  A ``level`` appends the Moments of each path's crossings
    of it, counted in the same pass; they equal crossing_statistics'.
    """
    return _estimate(list(functionals), level, kernel, n_paths, grid_points, seed, workers, plan)


def _estimate(functionals, level, kernel, n_paths, grid_points, seed, workers, plan):
    """Moments of each functional's integral and then, unless ``level`` is
    None, of the crossing count, from one sampler pass; dX and every scratch
    array are made only when a value needs them."""
    if level is not None and not math.isfinite(level):
        raise DomainError(f"level={level} must be finite")
    if not functionals and level is None:
        raise DomainError("no functional and no crossing level to estimate")
    n_paths, seed, plan = _run_plan(kernel, grid_points, n_paths, seed, plan)
    values_only = all(f.kind != "H2" and f.axis != "xdot" for f in functionals)
    orders = {"x": set(), "xdot": set()}
    for f in functionals:
        if f.kind == "H2":
            orders["x"].add(f.a)
            orders["xdot"].add(f.b)
        elif f.kind == "H":
            orders[f.axis].add(f.m)

    def statistic(plan, rows):
        # trapezoid weights on [0, 1]: the integral of a row is its own dot
        # product, whatever rows share its tile
        n = plan.grid_points
        weights = np.full(n, plan.grid_step)
        weights[[0, -1]] = 0.5 * plan.grid_step
        tile = max(1, TILE_BYTES // (4 * n))
        size = min(rows, tile)
        # a tile's Hermite rungs of each channel with orders, dX / sigma, an H2
        # product or scalar functional, and the crossing counter's boolean arrays
        ladders = {axis: np.empty((max(o) + 1, size, n)) for axis, o in orders.items() if o}
        scaled = None if values_only else np.empty((size, n))
        product = np.empty((size, n)) if any(f.kind != "H" for f in functionals) else None
        if level is not None:
            side, change = np.empty((size, n), dtype=bool), np.empty((size, n - 1), dtype=bool)

        def per_path(x, xd):  # a fresh row per path (_path_moments keeps them), a column per value
            out = np.empty((len(x), len(functionals) + (level is not None)))
            bounds = [*range(0, len(x), tile), len(x)]
            for lo, hi in zip(bounds, bounds[1:]):
                count = hi - lo
                channels = {"x": x[lo:hi]}
                if not values_only:
                    channels["xdot"] = np.divide(xd[lo:hi], plan.sigma, out=scaled[:count])
                rungs = {axis: hermite(orders[axis], channels[axis], out=ladder[:, :count])
                         for axis, ladder in ladders.items()}
                for column, f in enumerate(functionals):
                    if f.kind == "H2":
                        values = np.multiply(rungs["x"][f.a], rungs["xdot"][f.b],
                                             out=product[:count])
                    elif f.kind == "H":
                        values = rungs[f.axis][f.m]
                    else:  # sign, abs, or ind: 1.0 above the level, else 0.0
                        v, buf = channels[f.axis], product[:count]
                        values = (np.sign(v, out=buf) if f.kind == "sign" else np.abs(v, out=buf)
                                  if f.kind == "abs" else np.greater(v, f.level, out=buf))
                    np.vecdot(values, weights, out=out[lo:hi, column])
                if level is not None:
                    out[lo:hi, -1] = _crossing_counts(x[lo:hi], level, side[:count], change[:count])
            return out

        return per_path

    return _path_moments(plan, seed, n_paths, statistic, workers, values_only)


# ---------------------------------------------------------------------------
# mean-square derivative


def ms_derivative_residual(kernel: Kernel, h: float) -> float:
    """Analytic residual E[((X_{t+h}-X_t)/h - dX_t)^2] for lag h > 0:
    (2 - 2 r(h))/h^2 + 2 r'(h)/h - r''(0)."""
    if not 0.0 < h < math.inf:
        raise DomainError(f"h={h} must be finite and positive")
    r2 = kernel.r2_zero()
    return (2.0 - 2.0 * kernel.r(h)) / (h * h) + 2.0 * kernel.r_prime(h) / h - r2


def ms_derivative_check(
    kernel: Kernel, h: float, n_paths: int, grid_points: int, seed: int, workers=None,
    plan=None,
) -> tuple:
    """``(h, moments)`` of the squared residual of sampled difference
    quotients, ((X_h - X_0)/h - dX_0)^2, with h snapped to the nearest
    positive grid lag; its mean estimates ``ms_derivative_residual(kernel, h)``.
    """
    if not 0.0 < h < math.inf:
        raise DomainError(f"h={h} must be finite and positive")
    n_paths, seed, plan = _run_plan(kernel, grid_points, n_paths, seed, plan)
    lag = max(1, int(round(h / plan.grid_step)))
    if lag >= plan.grid_points:
        raise DomainError(f"h={h} exceeds the grid span")
    h = lag * plan.grid_step

    def residuals(plan, rows):  # one column: the lists keep the grid axis
        return lambda x, xd: ((x[:, [1]] - x[:, [0]]) / h - xd[:, [0]]) ** 2

    # the blocks hold grid columns 0 and lag alone
    return h, _path_moments(plan, seed, n_paths, residuals, workers, columns=[0, lag])[0]
