"""The iterated integral of (1 - c s^2)^n and its n^{-1/2} decay.

The double integral over the triangle 0 <= s < t <= c' reduces to a single
integral int_0^{c'} (c' - s)(1 - c s^2)^n ds; at c = c' = 1 it has an exact
closed form through a terminating Gauss hypergeometric sum, whose value is
in turn pinned by the Gauss summation theorem.  The decay rate in n is
extracted by a log-log least-squares fit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, whole
from .quadrature import integrate
from .specfun import gamma_ln, hyp2f1_terminating

__all__ = [
    "DecaySeries",
    "fit_decay_exponent",
    "gauss_theorem_value",
    "geometric_orders",
    "iter_integral_closed_form",
    "iter_integral_quadrature",
    "iter_integral_series",
    "series_to_csv",
]


@dataclass(frozen=True)
class DecaySeries:
    """Positive series values with a fitted log-log power law."""

    entries: tuple
    fitted_slope: float
    fitted_log_constant: float
    fit_window: tuple
    residual: float


def _check_domain(c, c_prime, n):
    """``int(n)``, once c, c' and n are checked."""
    if c <= 0:
        raise DomainError(f"c must be positive, got {c}")
    n = whole(n, f"n must be a nonnegative integer, got {n}")
    limit = c ** -0.5
    if not 0.0 < c_prime <= limit:
        # the boundary c' = c^{-1/2} is allowed: that is where the closed
        # form lives (the integrand touches 0 only at the endpoint)
        raise DomainError(
            f"c' must lie in (0, c^(-1/2)] = (0, {limit:g}], got {c_prime}")
    return n


def iter_integral_quadrature(c: float, c_prime: float, n: int) -> float:
    """Double integral of (1 - c s^2)^n over 0 <= s < t <= c'.

    The inner t-integral is analytic, leaving
    int_0^{c'} (c' - s)(1 - c s^2)^n ds, evaluated adaptively.
    """
    return iter_integral_series(c, c_prime, [n])[0][1]


def iter_integral_closed_form(n: int) -> float:
    """Exact value at c = c' = 1 via the terminating hypergeometric sum:
    (1/(2(n+1))) (2F1(-1/2, -n-1; 1/2; 1) - 1)."""
    n = whole(n, f"n must be a nonnegative integer, got {n}")
    f = hyp2f1_terminating(-0.5, -(n + 1), 0.5, 1.0)
    return (f - 1.0) / (2.0 * (n + 1))


def gauss_theorem_value(n: int) -> float:
    """sqrt(pi) Gamma(n+2) / Gamma(n+3/2), the Gauss-summation value of the
    terminating 2F1 above."""
    n = whole(n, f"n must be a nonnegative integer, got {n}")
    return math.sqrt(math.pi) * math.exp(
        gamma_ln(n + 2.0) - gamma_ln(n + 1.5))


def geometric_orders(lo: float, hi: float, count: int) -> list:
    """The distinct integers nearest ``count`` geometrically spaced points
    from ``lo`` to ``hi``, ascending: an order grid for a log-log fit."""
    return sorted(set(int(round(v)) for v in np.geomspace(lo, hi, count)))


def iter_integral_series(c: float, c_prime: float, n_values) -> list:
    """(n, value) pairs of the iterated integral over the given n grid, in
    one adaptive pass on shared nodes."""
    ns = np.array([_check_domain(c, c_prime, n) for n in n_values], dtype=int)
    values, _ = integrate(
        lambda s, ks: (c_prime - s) * (1.0 - c * s * s) ** ks[:, None], ns, 0.0, c_prime)
    return list(zip(ns.tolist(), values.tolist()))


def fit_decay_exponent(entries) -> DecaySeries:
    """Least-squares power-law fit on log-log axes.

    ``entries`` is a sequence of (n, value) pairs with positive values;
    fewer than two distinct n make the fit degenerate.
    """
    entries = tuple((int(n), float(v)) for n, v in entries)
    if any(v <= 0.0 for _, v in entries):
        raise DomainError("decay fit requires strictly positive values")
    if len({n for n, _ in entries}) < 2:
        raise DomainError("decay fit requires at least two distinct n")
    ns = np.array([n for n, _ in entries], dtype=float)
    logs = np.log(np.array([v for _, v in entries]))
    slope, intercept = np.polyfit(np.log(ns), logs, 1)
    resid = float(np.max(np.abs(
        logs - (slope * np.log(ns) + intercept))))
    return DecaySeries(entries, float(slope), float(intercept),
                       (int(ns.min()), int(ns.max())), resid)


def series_to_csv(entries) -> str:
    """CSV text of (n, value) pairs with header ``n,value``."""
    lines = ["n,value"]
    for n, v in entries:
        lines.append(f"{int(n)},{v!r}")
    return "\n".join(lines) + "\n"
