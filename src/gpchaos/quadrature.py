"""The package's one adaptive integrator.

Every integral gpchaos takes goes through ``integrate``: the time averages
of chaos weights, the norms of the moving-average kernel b, the b * b
reconstruction of r, Geman's crossing integral and the iterated integral of
(1 - c s^2)^n.  Each is nonnegative (a variance, a norm, or a covariance of
positive kernels), which the integrator uses as a check on its result.
"""

import functools
import math
from contextvars import ContextVar

import numpy as np

from .errors import QuadratureFailure

__all__ = ["QuadLog", "integrate"]

_QUAD_LOG: ContextVar = ContextVar("gpchaos_quad_log", default=None)


class QuadLog:
    """Largest error estimate of the integrals run while the log is entered,
    and whether every one met its tolerance max(epsabs, epsrel |value|)
    within the subinterval limit.  Entering it again after it exits extends
    it."""

    def __init__(self):
        self.max_error, self.within_tolerance = 0.0, True

    def __enter__(self):
        self._token = _QUAD_LOG.set(self)
        return self

    def __exit__(self, *exc):
        _QUAD_LOG.reset(self._token)


# On each subinterval a 20-node Gauss-Legendre sum is the value and its
# distance from the 10-node sum the error estimate.
_GL_HIGH, _GL_LOW = 20, 10


@functools.cache
def _gauss_legendre_pair():
    """Both rules' nodes on [0, 1], and their weights as the two columns of
    one matrix, so one product gives both sums.  Built on first use, since
    leggauss's eigensolver would otherwise start LAPACK at import."""
    (x_high, w_high), (x_low, w_low) = map(np.polynomial.legendre.leggauss, (_GL_HIGH, _GL_LOW))
    weights = np.zeros((_GL_HIGH + _GL_LOW, 2))
    weights[:_GL_HIGH, 0], weights[_GL_HIGH:, 1] = 0.5 * w_high, 0.5 * w_low
    return 0.5 * (1.0 + np.concatenate([x_high, x_low])), weights


_EPSABS, _EPSREL = 1e-12, 1e-11
_SUBINTERVAL_LIMIT = 200
# Rows integrated on one set of nodes; more are taken in slices of this
# many, which bounds the memory of a pass.
_SLICE_ROWS = 64


def integrate(f, keys, lo=0.0, hi=1.0, singular=None, scale=1.0):
    """int_lo^hi f(x, k) dx for every k in ``keys``; returns the values and
    their error estimates as two arrays.

    ``f(x, ks)`` returns the ``(len(ks), len(x))`` integrands, so each pass
    evaluates every key on one shared set of nodes.  ``singular`` is how
    they behave at ``lo``: None (bounded), "log", or an exponent e > -1 of
    (x - lo)^e.  The rule runs in u on [0, 1], with s = u^power and x = lo +
    (hi - lo) s, or x = lo + scale s / (1 - s) when ``hi`` is infinite.
    (x - lo)^e becomes u^(power (e + 1) - 1), so e < 0 takes power
    1 / (e + 1), which makes it constant; a logarithm takes power 3, and
    anything else power 1.

    A subinterval is bisected while any key's error estimate misses its
    share, by length in u, of max(epsabs, epsrel |value|), up to the
    subinterval limit; the estimates go to the entered QuadLog.  A value
    below zero but within a tolerance the rule met is an exact zero and
    comes back as 0.0; any other value below zero (or NaN) raises
    QuadratureFailure with the rule's own diagnosis.
    """
    nodes, weights = _gauss_legendre_pair()
    if singular == "log":
        power = 3.0
    else:
        power = 1.0 / (singular + 1.0) if singular is not None and singular < 0.0 else 1.0
    keys = np.asarray(keys)
    out, out_error = np.empty(keys.size), np.empty(keys.size)
    for start in range(0, keys.size, _SLICE_ROWS):
        ks = keys[start:start + _SLICE_ROWS]
        left, width = np.zeros(1), np.ones(1)
        kept_value, kept_error = np.zeros(ks.size), np.zeros(ks.size)
        n_sub = 1
        while True:
            u = (left[:, None] + width[:, None] * nodes).ravel()
            s, jacobian = u**power, power * u ** (power - 1.0)
            if math.isinf(hi):
                x, jacobian = lo + scale * s / (1.0 - s), jacobian * scale / (1.0 - s) ** 2
            else:
                x, jacobian = lo + (hi - lo) * s, jacobian * (hi - lo)
            g = (f(x, ks) * jacobian).reshape(ks.size, left.size, nodes.size)
            high, low = np.moveaxis(width[:, None] * (g @ weights), -1, 0)
            error = np.abs(high - low)
            value = kept_value + high.sum(axis=1)
            tol = np.maximum(_EPSABS, _EPSREL * np.abs(value))
            miss = (error > tol[:, None] * width).any(axis=0)
            n_miss = int(np.count_nonzero(miss))
            if n_miss == 0 or n_sub + n_miss > _SUBINTERVAL_LIMIT:
                break
            kept_value += high[:, ~miss].sum(axis=1)
            kept_error += error[:, ~miss].sum(axis=1)
            half = 0.5 * width[miss]
            left = np.concatenate([left[miss], left[miss] + half])
            width = np.concatenate([half, half])
            n_sub += n_miss
        error = kept_error + error.sum(axis=1)
        met = (n_miss == 0) & (error <= tol)
        log = _QUAD_LOG.get()
        if log is not None:
            log.max_error = max(log.max_error, float(error.max()))
            log.within_tolerance &= bool(np.all(met))
        value[met & (value < 0.0) & (value >= -tol)] = 0.0
        bad = np.flatnonzero(~(value >= 0.0))
        if bad.size:
            i, stop = bad[0], "stopped by" if n_miss else "within"
            raise QuadratureFailure(
                f"integral came out {value[i]:.6g}, but it is a variance, a norm or a covariance "
                f"of positive kernels (quadrature error estimate {error[i]:.2g}; Gauss-Legendre "
                f"{_GL_HIGH}/{_GL_LOW} on {n_sub} subintervals, {stop} the limit of "
                f"{_SUBINTERVAL_LIMIT})")
        out[start:start + ks.size], out_error[start:start + ks.size] = value, error
    return out, out_error
