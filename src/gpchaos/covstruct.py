"""The 2x2 cross-correlation matrix A(t) of (X, Xdot) and its tensor powers.

A(t) couples (X_s, Xdot_s / sigma) with (X_{s+t}, Xdot_{s+t} / sigma),
sigma^2 = -r''(0):

    a11 = r(t)                  a12 = -r'(t) / sigma
    a21 = -a12                  a22 = -r''(t) / sigma^2

A(0) is the identity.  Two smallness readings of A(t) near 0 are computed,
because they behave very differently:

* the normalized Hilbert-Schmidt norm sqrt(h(t)/2), h = sum of squared
  entries, decays quadratically with coefficient
  (r''''(0) - r''(0)^2) / (4 |r''(0)|) -- this is the reading that admits a
  fitted bound 1 - c_hat t^2 with c_hat > 0;
* the operator norm stays below 1 but 1 - op(A(t)) vanishes faster than
  t^2 (t^6 for the squared exponential), so no positive quadratic
  coefficient exists on any window touching 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import whole
from .kernels import Kernel, richardson_at_zero

__all__ = [
    "AMatrix",
    "QuadraticBoundFit",
    "a_matrix",
    "hs_expansion_derivatives",
    "quadratic_bound_fit",
    "tensor_power_quadratic_form",
]


@dataclass(frozen=True)
class AMatrix:
    """The entries of A(t); arrays shaped like ``t`` when ``t`` is one."""

    a11: float
    a12: float
    a21: float
    a22: float


def a_matrix(kernel: Kernel, t) -> AMatrix:
    """A(t) from the kernel's first two derivatives, elementwise over an
    array ``t``; raises NotDifferentiable when r''(0) does not exist."""
    sig2 = -kernel.r2_zero()
    sig = math.sqrt(sig2)
    a12 = -kernel.r_prime(t) / sig
    return AMatrix(kernel.r(t), a12, -a12, -kernel.r_second(t) / sig2)


def _op_norm_closed(a11, a12, a21, a22):
    # largest singular value of a 2x2 matrix, closed form
    s1 = a11 * a11 + a12 * a12 + a21 * a21 + a22 * a22
    s2 = np.sqrt((a11 * a11 + a12 * a12 - a21 * a21 - a22 * a22) ** 2
                 + 4.0 * (a11 * a21 + a12 * a22) ** 2)
    return np.sqrt(0.5 * (s1 + s2))


# --------------------------------------------------------------------------
# local expansion of the squared HS sum at t = 0


def hs_expansion_derivatives(kernel: Kernel) -> dict:
    """Finite-difference second derivative at 0 of h(t) = sum of squared
    entries of A(t); h'(0) = 0, since r' is odd by construction.

    Returns ``{"second"}``, the extrapolated stencil value; the widely
    quoted closed form (r''''(0) - r''(0)^2) / r''(0) is exactly half of it.
    """
    kernel.r2_zero(), kernel.r4_zero()  # NotDifferentiable, naming r''(0) first

    def h(t):
        a = a_matrix(kernel, t)
        return a.a11**2 + a.a12**2 + a.a21**2 + a.a22**2

    # odd |t|-powers of r at p produce |t|^{p-2} terms in h
    p = kernel._odd_taylor_power()
    second = richardson_at_zero(lambda s: (h(s) - 2.0 * h(0.0) + h(-s)) / s**2,
                                kernel, None if p is None else p - 2.0, 2)
    return {"second": second}


# --------------------------------------------------------------------------
# tensor powers


def tensor_power_quadratic_form(kernel: Kernel, t, a: int, b: int):
    """N(t) = <c, A(t)^{tensor n} c> / <c, c>, n = a + b, for c the
    symmetrized chaos coefficients of H_a(X) H_b(Xdot / sigma); a float,
    or an array shaped like ``t`` when ``t`` is one.

    With A = [[p, q], [r, s]] (conjugated by the coordinate swap when
    a > b, so that a <= b), beta = b - a, D = ps - qr and E = ps + qr,
    N = s^beta Q_a where Q_k = D^k P_k^{(0, beta)}(E / D) is a Jacobi
    polynomial in homogeneous form (Szego, Orthogonal Polynomials, ch. 4).
    Q_k follows the Jacobi three-term recurrence multiplied through by
    D^k, so nothing is divided by D and no factorial appears.  N(0) = 1.
    """
    message = f"Hermite orders ({a}, {b}) must be nonnegative integers"
    out = _quadratic_form(a_matrix(kernel, t), whole(a, message), whole(b, message))
    return out if np.ndim(t) else float(out)


def _quadratic_form(m: AMatrix, a: int, b: int):
    """N of ``tensor_power_quadratic_form`` from the entries of A(t)."""
    p, q, r, s = m.a11, m.a12, m.a21, m.a22
    if a > b:
        a, b, p, q, r, s = b, a, s, r, q, p
    beta = b - a
    d, e = p * s - q * r, p * s + q * r
    prev, cur = 1.0, (d + 0.5 * (beta + 2) * (e - d) if a else 1.0)
    for k in range(2, a + 1):
        c = 2 * k + beta
        prev, cur = cur, (
            (c - 1) * (c * (c - 2) * e - beta * beta * d) * cur
            - 2 * (k - 1) * (k + beta - 1) * c * d * d * prev
        ) / (2 * k * (k + beta) * (c - 2))
    return s**beta * cur


# --------------------------------------------------------------------------
# quadratic smallness bound


@dataclass(frozen=True)
class QuadraticBoundFit:
    """Fitted c_hat with 1 - c_hat t^2 bounding a norm of A(t) on
    (0, window]; c_hat is the window infimum of (1 - norm)/t^2 minus three
    standard errors of the constant least-squares fit."""

    window: float
    c_hat: float
    holds: bool


def quadratic_bound_fit(kernel: Kernel) -> QuadraticBoundFit:
    """Fit the quadratic smallness bound of the normalized HS reading
    sqrt(h/2) on 200 points of (0, 0.5*min(1, ell)]; raises
    NotDifferentiable unless r''''(0) exists."""
    kernel.r2_zero(), kernel.r4_zero()
    window = 0.5 * min(1.0, kernel.length_scale)
    t = np.linspace(0.0, window, 201)[1:]
    m = a_matrix(kernel, t)
    h = m.a11**2 + 2.0 * m.a12**2 + m.a22**2
    y = (1.0 - np.sqrt(h / 2.0)) / t**2
    se = float(np.std(y, ddof=1)) / math.sqrt(y.size)
    c_hat = float(np.min(y) - 3.0 * se)
    return QuadraticBoundFit(window, c_hat, c_hat > 0.0)
