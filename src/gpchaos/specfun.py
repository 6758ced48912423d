"""Special functions used by the kernel catalog and the decay asymptotics.

All in double precision with numpy alone:

* :func:`gamma_ln`, a scalar log-gamma;
* :func:`bessel_zk`, ``z^nu K_nu(z)`` times a log scale for the modified
  Bessel function K of any real order, vectorized over the argument;
* :func:`hyp2f1_terminating`, which sums a terminating series exactly, as an
  integer numerator over an integer denominator with one correctly rounded
  division at the end: the alternating terms of ``2F1(-1/2, -n-1; 1/2; 1)``
  grow to ``~1e13`` before cancelling down to ``O(sqrt(n))``, which no
  floating-point summation order can survive at the accuracy needed here;
* :func:`hermite`, the probabilists' Hermite polynomials, vectorized.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .errors import DomainError, whole

__all__ = [
    "bessel_zk",
    "gamma_ln",
    "hyp2f1_terminating",
    "hermite",
]


def gamma_ln(x: float) -> float:
    """Natural log of the gamma function for real positive ``x``."""
    if not x > 0:
        raise DomainError(f"gamma_ln requires x > 0, got {x!r}")
    return math.lgamma(x)


# Taylor coefficients a_j of 1/Gamma(1 + x) = sum_j a_j x^j (DLMF 5.7.1),
# rounded from 50-digit values, up to the order where a_j 2^-j falls below
# 1e-18: Temme's series takes its gamma factors at |x| <= 1/2 from them.
_RGAMMA_TAYLOR = (
    1.0, 0.5772156649015329, -0.6558780715202539, -0.04200263503409524,
    0.16653861138229148, -0.04219773455554433, -0.009621971527876973,
    0.0072189432466631, -0.0011651675918590652, -0.00021524167411495098,
    0.0001280502823881162, -2.013485478078824e-05, -1.2504934821426706e-06,
    1.133027231981696e-06, -2.056338416977607e-07, 6.116095104481416e-09,
    5.002007644469223e-09, -1.18127457048702e-09, 1.0434267116911005e-10,
    7.782263439905071e-12, -3.696805618642206e-12, 5.100370287454476e-13,
)


@functools.lru_cache(maxsize=64)
def _temme_coefficients(mu):
    """Scalars of Temme's series at order mu, |mu| <= 1/2.

    gam1 and gam2 are (1/Gamma(1-mu) -/+ 1/Gamma(1+mu)) / (2 mu) and / 2,
    from the odd and even Taylor coefficients.  The recurrences p_k = p_(k-1)
    / (k - mu), q_k = q_(k-1) / (k + mu) and f_k = (k f_(k-1) + p_(k-1) +
    q_(k-1)) / (k^2 - mu^2) are linear, so p_k = P_k p_0, q_k = Q_k q_0 and
    f_k = A_k f_0 + B_k p_0 + C_k q_0 with scalar A, B, C, P, Q.  Row k holds
    (A, B, C, k A, k B, k C, P - k B, Q - k C)_k / k!; at x < 2 the terms
    fall like (x^2/4)^k / k!^2, below 1e-24 by k = 16.
    """
    m2 = mu * mu
    gam1 = -math.fsum(a * m2**j for j, a in enumerate(_RGAMMA_TAYLOR[1::2]))
    gam2 = math.fsum(a * m2**j for j, a in enumerate(_RGAMMA_TAYLOR[0::2]))
    a, b, c, p, q, factorial = 1.0, 0.0, 0.0, 1.0, 1.0, 1.0
    rows = [(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0)]
    for k in range(1, 16):
        den = k * k - m2
        a, b, c = k * a / den, (k * b + p) / den, (k * c + q) / den
        p, q, factorial = p / (k - mu), q / (k + mu), factorial * k
        rows.append(tuple(v / factorial for v in (a, b, c, k * a, k * b, k * c,
                                                  p - k * b, q - k * c)))
    return gam1, gam2, np.array(rows)


def _temme(mu, x):
    """Base of the ladders at 0 < x < 2, |mu| <= 1/2: y_o = x^o K_o(x) at o
    = mu, mu + 1, -mu and 1 - mu, and their log scale, 0.

    Temme's series (Temme 1975, J. Comput. Phys. 19, 324; Numerical Recipes
    section 6.7, ``bessik``): K_mu = sum_k c_k f_k and K_(mu+1) = (2/x)
    sum_k c_k (p_k - k f_k), with c_k = (x^2/4)^k / k!.  f_k is even in mu
    and mu -> -mu swaps p_k with q_k, so the same terms give K_(1-mu) =
    (2/x) sum_k c_k (q_k - k f_k).  Each sum is a polynomial in x^2/4 over
    f_0, p_0 and q_0 (see _temme_coefficients).
    """
    gam1, gam2, rows = _temme_coefficients(mu)
    d = -np.log(0.5 * x)
    e = mu * d
    sinhc = np.divide(np.sinh(e), e, out=np.ones_like(e), where=e != 0.0)
    fact = math.pi * mu / math.sin(math.pi * mu) if mu else 1.0
    f = fact * (gam1 * np.cosh(e) + gam2 * sinhc * d)
    p = 0.5 * np.exp(e) / (gam2 - mu * gam1)  # (x/2)^-mu Gamma(1+mu) / 2
    q = 0.5 * np.exp(-e) / (gam2 + mu * gam1)  # (x/2)^mu Gamma(1-mu) / 2
    a, b, c, ka, kb, kc, up, down = (np.vander(0.25 * x * x, len(rows), increasing=True)
                                     @ rows).T
    k_mu = f * a + p * b + q * c
    x_mu = np.power(x, mu)
    return (x_mu * k_mu, 2.0 * x_mu * (p * up - f * ka - q * kc),
            k_mu / x_mu, 2.0 * (q * down - f * ka - p * kb) / x_mu, np.zeros_like(x))


# Trapezoid rule in u on [0, 9] at step 0.35 for the integral in _trapezoid:
# its integrand is even in u and analytic for |Im u| < 2 sqrt(x), which at x
# >= 2 puts the rule's error near e^-47 (Trefethen & Weideman 2014, SIAM Rev.
# 56, 385), and e^(-u^2/2) is below 3e-18 past u = 9.
_TRAPEZOID_U = np.arange(27) * 0.35
_TRAPEZOID_W = 0.35 * np.exp(-0.5 * _TRAPEZOID_U**2) * np.r_[0.5, np.ones(26)]


def _trapezoid(mu, x):
    """Base of the ladders at x >= 2, |mu| <= 1/2: y_o = x^o K_o(x) e^x at o
    = mu, mu + 1, -mu and 1 - mu, and their log scale, -x.

    With x (cosh t - 1) = u^2/2 in K_nu(x) = int_0^inf e^(-x cosh t) cosh(nu
    t) dt (DLMF 10.32.9), K_nu(x) = e^-x x^-1/2 int_0^inf e^(-u^2/2) cosh(nu
    T) / sqrt(1 + s^2) du, where s = u / (2 sqrt(x)) and T = 2 asinh(s).
    cosh((1 +- mu) T) = cosh(mu T) cosh T +- sinh(mu T) sinh T, with cosh T =
    1 + 2 s^2 and sinh T = 2 s sqrt(1 + s^2), gives the other two orders
    from the same terms.
    """
    s = _TRAPEZOID_U / (2.0 * np.sqrt(x))[:, None]
    e = np.exp(2.0 * mu * np.arcsinh(s)) if mu else 1.0  # e^(mu T)
    even = (e + 1.0 / e) * (0.5 * _TRAPEZOID_W) / np.sqrt(1.0 + s * s)
    odd = ((e - 1.0 / e) * _TRAPEZOID_W * s).sum(axis=1)
    k_mu, k_even = even.sum(axis=1), (even * (1.0 + 2.0 * s * s)).sum(axis=1)
    root, x_mu = np.sqrt(x), np.power(x, mu)
    return (x_mu / root * k_mu, x_mu * root * (k_even + odd),
            k_mu / (x_mu * root), root / x_mu * (k_even - odd), -x)


def _climb(mu, y, y_next, z, scale, lo, hi):
    """``(y_j, scale_j)`` with z^o K_o(z) = y_j e^scale_j at o = mu + j, for
    j = lo..hi, from the values at o = mu and mu + 1.

    In y_o = z^o K_o the upward recurrence K_(o+1) = K_(o-1) + (2o/z) K_o
    reads y_(o+1) = z^2 y_(o-1) + 2o y_o, a sum of positive terms for o > 0:
    each step adds a few roundings relative to the value.  y grows by less than
    z + 2o < 2^12 a step; past 2^600 it is scaled down by an exact power of
    two that goes into the running log scale.  Each step writes y_(o+1) over
    the y_(o-1) it consumes unless that row is returned, and takes z^2 y as
    (y z) z: each array live at once on a plan's 256 KB of lags faults anew.
    """
    rows, term = [(y, scale), (y_next, scale)][lo:hi + 1], np.empty_like(z)
    for j in range(hi - 1):  # step j makes row j + 2 from rows j and j + 1
        np.multiply(y_next, 2.0 * (mu + j + 1), out=term)
        y = np.multiply(y, z, out=None if j >= lo else y)
        y *= z
        y, y_next = y_next, np.add(y, term, out=y)
        if y_next.max(initial=0.0) > 2.0**600:
            exponent = np.frexp(y_next)[1]
            y, y_next = np.ldexp(y, -exponent), np.ldexp(y_next, -exponent)
            scale = scale + exponent * math.log(2.0)
        if j + 2 >= lo:
            rows.append((y_next, scale))
    return rows


def bessel_zk(nu: float, z, count: int = 1):
    """``z^o K_o(z)`` at the orders ``o = nu + j``, ``j = 0 .. count-1``, as
    pairs ``(y, scale)`` with value ``y * exp(scale)``.

    ``nu`` is any real order and ``z > 0`` an array.  With nu = n + mu and
    -1/2 <= mu < 1/2, the ladder starts from K_mu and K_(mu+1): Temme's
    series below z = 2, a trapezoid rule on an integral representation
    above, or the closed form at mu = -1/2.  One upward recurrence takes it
    to every order n + mu (_climb), and K_(-o) = K_o covers negative orders
    from the ladder at -mu.  The cost is about ``|nu| + count`` vector steps.
    Small orders never rescale, so there ``y`` carries a few roundings
    relative to the value, which a log form would lose to the cancelling
    logarithms of z^o and K_o.
    """
    z = np.asarray(z, dtype=float)
    low = math.floor(nu + 0.5)  # orders nu + j share one mu in [-1/2, 1/2)
    mu = nu - low
    if mu == -0.5:  # K_(1/2)(z) = sqrt(pi/(2z)) e^-z, K_(3/2) = K_(1/2) (1 + 1/z),
        # whose e^-z joins the log scale after the climb, which needs none of it
        c = math.sqrt(0.5 * math.pi)
        y_mu, y_mu1, scale = c / z, np.full(z.shape, c), 0.0
        if low < 0:
            y_neg, y_neg1 = np.full(z.shape, c), c * (1.0 + z)
    else:
        small = z < 2.0
        base = np.empty((5,) + z.shape)
        base[:, small] = _temme(mu, z[small])
        base[:, ~small] = _trapezoid(mu, z[~small])
        y_mu, y_mu1, y_neg, y_neg1, scale = base
    high = low + count - 1
    rows = []
    if low < 0:  # o = mu + k, k < 0, is -(-mu + |k|): z^o K_o = z^(2o) z^|o| K_|o|
        for j, (y, s) in enumerate(_climb(-mu, y_neg, y_neg1, z, scale,
                                          max(-high, 1), -low)[::-1]):
            rows.append((y, s + 2.0 * (nu + j) * np.log(z)))
    if high >= 0:
        rows += _climb(mu, y_mu, y_mu1, z, scale, max(low, 0), high)
    return [(y, s - z) for y, s in rows] if mu == -0.5 else rows


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


def hermite(n, x, out=None):
    """Probabilists' Hermite polynomial ``H_n(x)``, vectorized over ``x``.

    Three-term recurrence ``H_{k+1} = x H_k - k H_{k-1}`` with ``H_0 = 1``,
    ``H_1 = x``.  For a set of orders ``n``, one run of the recurrence
    returns ``{k: H_k(x)}`` for each of them; ``H_1`` is then ``x`` itself,
    not a copy.  Rung ``k`` is written to ``out[k]``, for an ``out`` of
    shape ``(max(n) + 1,) + x.shape`` that is allocated when not given and
    that a caller may reuse across calls; ``out[1]`` is scratch, as ``H_1``
    needs no slot.
    """
    ladder = isinstance(n, (set, frozenset))
    orders = n if ladder else {n}
    for k in orders:
        whole(k, f"hermite requires integer n >= 0, got {k!r}")
    x = np.asarray(x, dtype=float)
    top = int(max(orders, default=0))
    if out is None:
        out = np.empty((top + 1,) + x.shape)
    rung = [out[0, ...], x] + [out[k, ...] for k in range(2, top + 1)]
    if 0 in orders:
        rung[0].fill(1.0)
    for k in range(2, top + 1):
        np.multiply(x, rung[k - 1], out=rung[k])
        if k == 2:
            rung[k] -= 1.0
        else:
            rung[k] -= np.multiply(rung[k - 2], k - 1, out=out[1, ...])
    if ladder:
        return {k: rung[k] for k in orders}
    h = rung[int(n)]
    h = h.copy() if h is x else h
    return h if h.ndim else float(h)
