"""Special functions used by the kernel catalog and the decay asymptotics.

Everything here is scalar-oriented and double precision, except
:func:`hyp2f1_terminating`, which sums a terminating series in exact rational
arithmetic: the alternating terms of ``2F1(-1/2, -n-1; 1/2; 1)`` grow to
``~1e13`` before cancelling down to ``O(sqrt(n))``, which no floating-point
summation order can survive at the accuracy needed here.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import special as _sp

from .errors import DomainError

__all__ = [
    "gamma_ln",
    "beta",
    "pochhammer",
    "bessel_k",
    "bessel_k_half_integer",
    "hyp2f1_terminating",
    "hermite",
    "hermite_sequence",
]


def gamma_ln(x: float) -> float:
    """Natural log of the gamma function for real positive ``x``."""
    if not x > 0:
        raise DomainError(f"gamma_ln requires x > 0, got {x!r}")
    return float(_sp.gammaln(x))


def beta(a: float, b: float) -> float:
    """Euler beta function ``B(a, b)`` for positive arguments."""
    if not (a > 0 and b > 0):
        raise DomainError(f"beta requires positive arguments, got ({a!r}, {b!r})")
    return math.exp(gamma_ln(a) + gamma_ln(b) - gamma_ln(a + b))


def pochhammer(a: float, k: int) -> float:
    """Rising factorial ``(a)_k = a (a+1) ... (a+k-1)``; ``(a)_0 = 1``."""
    if k < 0 or k != int(k):
        raise DomainError(f"pochhammer requires integer k >= 0, got {k!r}")
    out = 1.0
    for i in range(int(k)):
        out *= a + i
    return out


def _half_integer_order(nu: float, tol: float = 1e-12) -> int | None:
    """Return m when ``nu`` is within ``tol`` of ``m + 1/2``, else None."""
    m = round(nu - 0.5)
    if m >= 0 and abs(nu - (m + 0.5)) <= tol:
        return int(m)
    return None


def bessel_k_half_integer(m: int, x) -> float | np.ndarray:
    """Modified Bessel function ``K_{m+1/2}(x)`` by its finite closed form.

    ``K_{m+1/2}(x) = sqrt(pi/(2x)) e^{-x} sum_{k=0}^{m} (m+k)!/(k!(m-k)!) (2x)^{-k}``
    """
    if m < 0 or m != int(m):
        raise DomainError(f"half-integer order needs integer m >= 0, got {m!r}")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("bessel_k requires x > 0")
    m = int(m)
    acc = np.zeros_like(x)
    for k in range(m, -1, -1):
        coef = math.factorial(m + k) / (math.factorial(k) * math.factorial(m - k))
        acc = acc / (2.0 * x) + coef  # Horner in 1/(2x), highest k first
    out = np.sqrt(np.pi / (2.0 * x)) * np.exp(-x) * acc
    return out if out.ndim else float(out)


def bessel_k(nu: float, x) -> float | np.ndarray:
    """Modified Bessel function of the second kind ``K_nu(x)``, ``x > 0``.

    Half-integer orders take the exact finite-sum route; other orders are
    delegated to scipy's generic evaluator.  Both routes are cross-checked in
    the test suite rather than trusted blindly.
    """
    if nu < 0:
        raise DomainError(f"bessel_k requires nu >= 0, got {nu!r}")
    m = _half_integer_order(nu)
    if m is not None:
        return bessel_k_half_integer(m, x)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("bessel_k requires x > 0")
    out = _sp.kv(nu, x)
    return out if out.ndim else float(out)


def hyp2f1_terminating(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric ``2F1(a, b; c; z)`` for terminating series.

    ``b`` must be a nonpositive integer, so the series is the finite sum
    ``sum_k (a)_k (b)_k / ((c)_k k!) z^k`` over ``k = 0 .. -b``.  The terms are
    accumulated in exact rational arithmetic (floats are rationals, so the
    only error is the final rounding to double).
    """
    if b > 0 or b != int(b):
        raise DomainError(f"terminating series needs b a nonpositive integer, got {b!r}")
    n_terms = int(-b)
    fa, fc, fz = Fraction(a), Fraction(c), Fraction(z)
    for k in range(n_terms + 1):
        if fc + k == 0:
            raise DomainError(f"c = {c!r} hits a nonpositive integer before termination")
    total = Fraction(0)
    term = Fraction(1)
    for k in range(n_terms + 1):
        total += term
        term *= (fa + k) * (int(b) + k) * fz
        term /= (fc + k) * (k + 1)
    return float(total)


def hermite(n: int, x) -> float | np.ndarray:
    """Probabilists' Hermite polynomial ``H_n(x)``.

    Three-term recurrence ``H_{k+1} = x H_k - k H_{k-1}`` with ``H_0 = 1``,
    ``H_1 = x``.  Vectorized over ``x``.
    """
    if n < 0 or n != int(n):
        raise DomainError(f"hermite requires integer n >= 0, got {n!r}")
    x = np.asarray(x, dtype=float)
    if int(n) == 0:
        h = np.ones_like(x)
    elif int(n) == 1:
        h = x.copy()
    else:
        # start from H_2 = x^2 - 1 so H_0 is never materialized
        h_prev, h = x, x * x - 1.0
        for k in range(2, int(n)):
            h, h_prev = x * h - k * h_prev, h
    return h if h.ndim else float(h)


def hermite_sequence(n_max: int, x: np.ndarray) -> np.ndarray:
    """All of ``H_0(x) .. H_{n_max}(x)`` stacked along a new leading axis."""
    if n_max < 0:
        raise DomainError(f"hermite_sequence requires n_max >= 0, got {n_max!r}")
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = x
    for k in range(1, n_max):
        out[k + 1] = x * out[k] - k * out[k - 1]
    return out
