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
  coefficient exists on any window touching 0.  The fit reports this
  degeneration instead of hiding it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kernels import Kernel, _error_exponents

__all__ = [
    "AMatrix",
    "QuadraticBoundFit",
    "a_matrix",
    "hs_expansion_derivatives",
    "hs_sum_norm",
    "operator_norm",
    "quadratic_bound_fit",
    "tensor_power_quadratic_form",
]

TENSOR_POWER_MAX = 12


@dataclass(frozen=True)
class AMatrix:
    a11: float
    a12: float
    a21: float
    a22: float
    t: float

    def as_array(self):
        return np.array([[self.a11, self.a12], [self.a21, self.a22]])


def a_matrix(kernel: Kernel, t: float) -> AMatrix:
    """A(t) from the kernel's first two derivatives; raises
    NotDifferentiable when r''(0) does not exist."""
    sig2 = -kernel.r2_zero()
    sig = math.sqrt(sig2)
    a12 = -kernel.r_prime(t) / sig
    return AMatrix(kernel.r(t), a12, -a12, -kernel.r_second(t) / sig2,
                   float(t))


def _entries(a):
    if isinstance(a, AMatrix):
        return a.a11, a.a12, a.a21, a.a22
    arr = np.asarray(a, dtype=float)
    if arr.shape != (2, 2):
        raise DomainError(
            f"expected a 2x2 matrix or AMatrix, got shape {arr.shape}")
    return arr[0, 0], arr[0, 1], arr[1, 0], arr[1, 1]


def hs_sum_norm(a) -> float:
    """sqrt of the sum of squared entries (Hilbert-Schmidt norm)."""
    a11, a12, a21, a22 = _entries(a)
    return math.sqrt(a11 * a11 + a12 * a12 + a21 * a21 + a22 * a22)


def _op_norm_closed(a11, a12, a21, a22):
    # largest singular value of a 2x2 matrix, closed form
    s1 = a11 * a11 + a12 * a12 + a21 * a21 + a22 * a22
    s2 = np.sqrt((a11 * a11 + a12 * a12 - a21 * a21 - a22 * a22) ** 2
                 + 4.0 * (a11 * a21 + a12 * a22) ** 2)
    return np.sqrt(0.5 * (s1 + s2))


def operator_norm(a) -> float:
    """Largest singular value via the closed-form 2x2 SVD."""
    return float(_op_norm_closed(*_entries(a)))


# --------------------------------------------------------------------------
# local expansion of the squared HS sum at t = 0


def hs_expansion_derivatives(kernel: Kernel) -> dict:
    """Finite-difference first/second derivatives at 0 of h(t) = sum of
    squared entries of A(t).

    Returns ``{"first", "second", "printed_second"}``.  ``first`` vanishes
    by odd-function cancellation.  ``second`` is the extrapolated stencil
    value; the widely quoted closed form (r''''(0) - r''(0)^2) / r''(0) is
    exactly half of it and is returned under ``printed_second`` for
    cross-reference — the stencil value is the one used downstream.
    """
    r2, r4 = kernel.r2_zero(), kernel.r4_zero()

    def h(t):
        a = a_matrix(kernel, t)
        return a.a11**2 + a.a12**2 + a.a21**2 + a.a22**2

    h0 = 0.1 * kernel.fd_scale
    steps = [h0 / 2**j for j in range(5)]
    first = (h(steps[-1]) - h(-steps[-1])) / (2.0 * steps[-1])

    # odd |t|-powers of r at p produce |t|^{p-2} terms in h
    p = kernel._odd_taylor_power()
    exponents = _error_exponents(None if p is None else p - 2.0, 2)
    vals = [(h(s) - 2.0 * h(0.0) + h(-s)) / s**2 for s in steps]
    for q in exponents:
        fac = 2.0**q
        vals = [(fac * vals[i + 1] - vals[i]) / (fac - 1.0)
                for i in range(len(vals) - 1)]
    return {
        "first": first,
        "second": vals[0],
        "printed_second": (r4 - r2 * r2) / r2,
    }


# --------------------------------------------------------------------------
# tensor powers


def tensor_power_quadratic_form(kernel: Kernel, t: float, c) -> float:
    """<c, A(t)^{tensor n} c> for c indexed by {1,2}^n, len(c) = 2^n.

    The 2^n x 2^n matrix is never formed; A is contracted into c one slot
    at a time (n 2^n-sized products).  n is capped at 12.
    """
    c = np.asarray(c, dtype=float).ravel()
    n = int(round(math.log2(c.size))) if c.size > 1 else 0
    if c.size < 1 or 2**n != c.size:
        raise DomainError(
            f"coefficient vector length {c.size} is not a power of two")
    if n > TENSOR_POWER_MAX:
        raise DomainError(
            f"tensor power {n} exceeds the enumeration bound "
            f"{TENSOR_POWER_MAX}")
    A = a_matrix(kernel, t).as_array()
    v = c.reshape((2,) * n)
    for axis in range(n):
        v = np.moveaxis(np.tensordot(A, v, axes=(1, axis)), 0, axis)
    return float(np.dot(c, v.ravel()))


# --------------------------------------------------------------------------
# quadratic smallness bound


@dataclass(frozen=True)
class QuadraticBoundFit:
    """Fitted c_hat with 1 - c_hat t^2 bounding a norm of A(t) on
    (0, window]; c_hat is the window infimum of (1 - norm)/t^2 minus three
    standard errors of the constant least-squares fit."""

    window: float
    c_hat: float
    stderr: float
    c_hat_operator: float
    operator_stderr: float
    limit_coefficient: float
    holds: bool
    notes: tuple = ()


def _infimum_minus_3se(y):
    se = float(np.std(y, ddof=1)) / math.sqrt(y.size)
    return float(np.min(y) - 3.0 * se), se


def quadratic_bound_fit(kernel: Kernel, n_points: int = 200
                        ) -> QuadraticBoundFit:
    """Fit the quadratic smallness bound on (0, 0.5*min(1, ell)].

    ``c_hat`` comes from the normalized HS reading; the operator-norm
    reading is fitted alongside and flagged when it degenerates (its
    deficit 1 - op vanishes faster than t^2 near 0).
    """
    r2, r4 = kernel.r2_zero(), kernel.r4_zero()
    window = 0.5 * min(1.0, kernel.length_scale)
    t = np.linspace(0.0, window, n_points + 1)[1:]
    sig2 = -r2
    a11 = kernel.r(t)
    a12 = -kernel.r_prime(t) / math.sqrt(sig2)
    a22 = -kernel.r_second(t) / sig2
    h = a11**2 + 2.0 * a12**2 + a22**2
    nhs_y = (1.0 - np.sqrt(h / 2.0)) / t**2
    op_y = (1.0 - _op_norm_closed(a11, a12, -a12, a22)) / t**2
    c_hat, se = _infimum_minus_3se(nhs_y)
    c_op, se_op = _infimum_minus_3se(op_y)
    limit = (r4 - r2 * r2) / (4.0 * sig2)
    notes = [
        "bound fitted on the normalized Hilbert-Schmidt norm sqrt(h/2); "
        f"its t->0 quadratic coefficient is {limit:.6g}",
    ]
    if c_op <= 0.0:
        notes.append(
            "operator-norm reading degenerates: 1 - op(A(t)) vanishes "
            "faster than t^2 near 0, so no positive quadratic coefficient "
            "exists on a window touching 0")
    return QuadraticBoundFit(window, c_hat, se, c_op, se_op, limit,
                             c_hat > 0.0, tuple(notes))
