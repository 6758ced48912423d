"""Special functions used by the kernel catalog and the decay asymptotics.

Everything here is scalar-oriented and double precision, except
:func:`hyp2f1_terminating`, which sums a terminating series exactly, as an
integer numerator over an integer denominator with one correctly rounded
division at the end: the alternating terms of ``2F1(-1/2, -n-1; 1/2; 1)``
grow to ``~1e13`` before cancelling down to ``O(sqrt(n))``, which no
floating-point summation order can survive at the accuracy needed here.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy import special as _sp

from .errors import DomainError, whole

__all__ = [
    "gamma_ln",
    "hyp2f1_terminating",
    "hermite",
]


def gamma_ln(x: float) -> float:
    """Natural log of the gamma function for real positive ``x``."""
    if not x > 0:
        raise DomainError(f"gamma_ln requires x > 0, got {x!r}")
    return float(_sp.gammaln(x))


def hyp2f1_terminating(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric ``2F1(a, b; c; z)`` for terminating series.

    ``b`` must be a nonpositive integer, so the series is the finite sum
    ``sum_k (a)_k (b)_k / ((c)_k k!) z^k`` over ``k = 0 .. -b``.  Floats are
    ratios of integers, so the term and the running total are carried as
    exact integer numerators over one common integer denominator; the only
    error is the final, correctly rounded division.
    """
    n_terms = whole(-b, f"terminating series needs b a nonpositive integer, got {b!r}")
    (pa, qa), (pc, qc), (pz, qz) = (Fraction(v).as_integer_ratio() for v in (a, c, z))
    if qc == 1 and -n_terms <= pc <= 0:
        raise DomainError(f"c = {c!r} hits a nonpositive integer before termination")
    # term_k = term / den and sum_{j<=k} term_j = total / den
    term, total, den = 1, 1, 1
    for k in range(n_terms):
        step = qa * qz * (pc + k * qc) * (k + 1)
        term *= (pa + k * qa) * (k - n_terms) * pz * qc
        total = total * step + term
        den *= step
    return total / den


def hermite(n, x):
    """Probabilists' Hermite polynomial ``H_n(x)``, vectorized over ``x``.

    Three-term recurrence ``H_{k+1} = x H_k - k H_{k-1}`` with ``H_0 = 1``,
    ``H_1 = x``.  For a set of orders ``n``, one run of the recurrence
    returns ``{k: H_k(x)}`` for each of them and holds only two rungs beside
    the ones kept; ``H_1`` is then ``x`` itself, not a copy.
    """
    ladder = isinstance(n, (set, frozenset))
    orders = n if ladder else {n}
    for k in orders:
        whole(k, f"hermite requires integer n >= 0, got {k!r}")
    x = np.asarray(x, dtype=float)
    rungs = {0: np.ones_like(x)} if 0 in orders else {}
    h_prev, h = 1.0, x
    for k in range(1, int(max(orders, default=0)) + 1):
        if k > 1:
            h, h_prev = x * h - (k - 1) * h_prev, h
        if k in orders:
            rungs[k] = h
    if ladder:
        return rungs
    h = rungs[int(n)]
    h = h.copy() if h is x else h
    return h if h.ndim else float(h)
