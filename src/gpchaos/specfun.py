"""Special functions used by the kernel catalog and the decay asymptotics.

Everything here is scalar-oriented and double precision, except
:func:`hyp2f1_terminating`, which sums a terminating series in exact rational
arithmetic: the alternating terms of ``2F1(-1/2, -n-1; 1/2; 1)`` grow to
``~1e13`` before cancelling down to ``O(sqrt(n))``, which no floating-point
summation order can survive at the accuracy needed here.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy import special as _sp

from .errors import DomainError

__all__ = [
    "gamma_ln",
    "hyp2f1_terminating",
    "hermite",
    "hermite_sequence",
]


def gamma_ln(x: float) -> float:
    """Natural log of the gamma function for real positive ``x``."""
    if not x > 0:
        raise DomainError(f"gamma_ln requires x > 0, got {x!r}")
    return float(_sp.gammaln(x))


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
