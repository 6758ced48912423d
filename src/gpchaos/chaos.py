"""Hermite chaos spectra of process functionals and their time averages.

A functional Lambda of the pair (X_t, dX_t/sigma) decomposes over the
Hermite basis; this module computes the squared chaos norms of Lambda at a
fixed time (the *point* spectrum) and of its unit-time average
int_0^1 Lambda dt (the *integrated* spectrum).  The ratio rho_n of the two
measures how much smoothing the time average buys at chaos order n.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .asymptotics import DecaySeries, fit_decay_exponent
from .covstruct import TENSOR_POWER_MAX, tensor_power_quadratic_form
from .errors import DomainError, QuadratureFailure
from .kernels import Kernel
from .specfun import hermite

__all__ = [
    "Functional",
    "parse_functional",
    "ChaosCoefficientVector",
    "hermite2d_coefficient_vector",
    "point_chaos_norms",
    "integrated_chaos_norms",
    "ChaosSpectrum",
    "chaos_spectrum",
    "SobolevNorm",
    "sobolev_norm",
    "regularization_rho",
    "regularization_exponent",
    "laplace_decay_constant",
    "QuadLog",
    "spectrum_to_csv",
    "spectrum_to_dict",
]

_PHI0 = 1.0 / math.sqrt(2.0 * math.pi)

_SCALAR_KINDS = ("sign", "abs", "ind")
_AXES = ("x", "xdot")

# Relative mass allowed in the top quarter of a spectrum before the
# Sobolev partial sums are declared unsettled at the truncation order.
SOBOLEV_CAUCHY_TOL = 1e-9


def _std_normal_pdf(x: float) -> float:
    return _PHI0 * math.exp(-0.5 * x * x)


def _std_normal_sf(x: float) -> float:
    """P(xi > x) for a standard Gaussian."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# functionals


@dataclass(frozen=True)
class Functional:
    """A functional of the normalized pair (X, dX/sigma).

    ``kind`` is one of ``"H"`` (Hermite polynomial of a single coordinate),
    ``"H2"`` (product H_a(X) H_b(dX/sigma)), or a scalar nonlinearity
    ``"sign"``, ``"abs"``, ``"ind"`` applied to a single coordinate.  The
    coordinate is chosen by ``axis`` ("x" or "xdot"); two-dimensional
    functionals use both coordinates and carry no axis.
    """

    kind: str
    m: int = 0
    a: int = 0
    b: int = 0
    level: float = 0.0
    axis: str = "x"

    def __post_init__(self):
        if self.kind not in ("H", "H2") + _SCALAR_KINDS:
            raise DomainError(f"unknown functional kind {self.kind!r}")
        if self.axis not in _AXES:
            raise DomainError(f"axis must be one of {_AXES}, got {self.axis!r}")
        if self.kind == "H2" and self.axis != "x":
            raise DomainError("two-dimensional functionals take no axis suffix")
        for label, value in (("m", self.m), ("a", self.a), ("b", self.b)):
            if int(value) != value or value < 0:
                raise DomainError(f"Hermite order {label}={value} must be a nonnegative integer")

    @property
    def is_two_dimensional(self) -> bool:
        return self.kind == "H2"

    @property
    def degree(self):
        """Chaos order of a pure Hermite functional, else None."""
        if self.kind == "H":
            return self.m
        if self.kind == "H2":
            return self.a + self.b
        return None

    def spec_string(self) -> str:
        if self.kind == "H":
            base = f"H:{self.m}"
        elif self.kind == "H2":
            return f"H2:{self.a},{self.b}"
        elif self.kind == "ind":
            base = f"ind:{self.level:g}"
        else:
            base = self.kind
        return base + ("@xdot" if self.axis == "xdot" else "")


def parse_functional(text: str) -> Functional:
    """Parse ``H:m``, ``H2:a,b``, ``sign``, ``abs``, ``ind:level``.

    An optional ``@x`` / ``@xdot`` suffix selects the coordinate (default
    ``@x``); the indicator level defaults to 0.
    """
    if not isinstance(text, str) or not text.strip():
        raise DomainError(f"empty functional spec {text!r}")
    body = text.strip()
    axis = "x"
    if "@" in body:
        body, _, axis = body.partition("@")
        body = body.strip()
        axis = axis.strip()
        if axis not in _AXES:
            raise DomainError(f"unknown axis {axis!r} in functional spec {text!r}")
    name, _, arg = body.partition(":")
    name = name.strip()
    arg = arg.strip()

    def _order(token):
        try:
            value = int(token)
        except ValueError:
            raise DomainError(f"bad Hermite order {token!r} in {text!r}") from None
        if value < 0:
            raise DomainError(f"Hermite order must be nonnegative in {text!r}")
        return value

    if name == "H":
        if not arg:
            raise DomainError(f"H needs an order, e.g. H:3 (got {text!r})")
        return Functional(kind="H", m=_order(arg), axis=axis)
    if name == "H2":
        parts = arg.split(",")
        if len(parts) != 2:
            raise DomainError(f"H2 needs two orders, e.g. H2:1,1 (got {text!r})")
        if axis != "x":
            raise DomainError("two-dimensional functionals take no axis suffix")
        return Functional(kind="H2", a=_order(parts[0]), b=_order(parts[1]))
    if name == "sign" or name == "abs":
        if arg:
            raise DomainError(f"{name} takes no argument (got {text!r})")
        return Functional(kind=name, axis=axis)
    if name == "ind":
        if not arg:
            return Functional(kind="ind", level=0.0, axis=axis)
        try:
            level = float(arg)
        except ValueError:
            raise DomainError(f"bad indicator level {arg!r} in {text!r}") from None
        if not math.isfinite(level):
            raise DomainError(f"non-finite indicator level in {text!r}")
        return Functional(kind="ind", level=level, axis=axis)
    raise DomainError(f"unknown functional spec {text!r}")


# ---------------------------------------------------------------------------
# one-dimensional Hermite coefficients


def _exact_scalar_coefficients(func: Functional, n_max: int):
    """Closed-form Hermite coefficients of sign, abs, and indicators.

    Half-line moments reduce to int_u^inf H_n phi = H_{n-1}(u) phi(u) for
    n >= 1, so every coefficient is a finite Hermite evaluation.
    """
    out = np.zeros(n_max + 1)
    if func.kind == "sign":
        for n in range(1, n_max + 1, 2):
            out[n] = 2.0 * hermite(n - 1, 0.0) * _PHI0 / math.factorial(n)
    elif func.kind == "ind":
        u = float(func.level)
        out[0] = _std_normal_sf(u)
        pdf_u = _std_normal_pdf(u)
        for n in range(1, n_max + 1):
            out[n] = hermite(n - 1, u) * pdf_u / math.factorial(n)
    elif func.kind == "abs":
        out[0] = math.sqrt(2.0 / math.pi)
        for n in range(2, n_max + 1, 2):
            moment = 2.0 * _PHI0 * (hermite(n, 0.0) + n * hermite(n - 2, 0.0))
            out[n] = moment / math.factorial(n)
    else:  # pragma: no cover - guarded by caller
        raise DomainError(f"no exact expansion for kind {func.kind!r}")
    return out


# ---------------------------------------------------------------------------
# chaos coefficient vectors


@dataclass(frozen=True)
class ChaosCoefficientVector:
    """Symmetric order-n chaos coefficients over the index set {x, xdot}^n.

    Coefficients are constant on weight classes: ``classes`` maps the
    number of x-slots in an index to the common coefficient value.  The
    dense vector enumerates indices as n-bit integers, bit 0 for an x-slot
    and bit 1 for an xdot-slot, matching the axis order of the tensor-power
    quadratic form.
    """

    n: int
    classes: tuple = field(default_factory=tuple)  # ((x_slots, weight), ...)

    def dense(self) -> np.ndarray:
        out = np.zeros(2 ** self.n)
        lookup = dict(self.classes)
        for idx in range(2 ** self.n):
            x_slots = self.n - bin(idx).count("1")
            w = lookup.get(x_slots)
            if w is not None:
                out[idx] = w
        return out

    def norm_sq(self) -> float:
        return math.fsum(
            math.comb(self.n, x_slots) * w * w for x_slots, w in self.classes
        )

    def point_norm_sq(self) -> float:
        """Squared chaos norm n! * ||c||^2 of the order-n component."""
        return math.factorial(self.n) * self.norm_sq()


def hermite2d_coefficient_vector(a: int, b: int) -> ChaosCoefficientVector:
    """Chaos coefficients of H_a(X) H_b(dX/sigma).

    The product sits entirely in chaos order n = a + b; symmetrization
    puts weight a! b! / n! on every index with exactly ``a`` x-slots, and
    n! ||c||^2 recovers the point norm a! b!.
    """
    if int(a) != a or a < 0 or int(b) != b or b < 0:
        raise DomainError(f"Hermite orders ({a}, {b}) must be nonnegative integers")
    a, b = int(a), int(b)
    n = a + b
    weight = math.factorial(a) * math.factorial(b) / math.factorial(n)
    return ChaosCoefficientVector(n=n, classes=((a, weight),))


# ---------------------------------------------------------------------------
# spectra


def _axis_correlation(kernel: Kernel, func: Functional):
    """Unit-lag correlation function of the coordinate the functional reads."""
    if func.axis == "xdot":
        r2 = kernel.r2_zero()  # existence of the derivative coordinate

        def rho(u):
            return kernel.r_second(u) / r2

        return rho
    return kernel.r


_QUAD_LOG: ContextVar = ContextVar("gpchaos_quad_log", default=None)


class QuadLog:
    """Largest error estimate of the time-average quadratures run while the
    log is entered, and whether each met its tolerance max(epsabs,
    epsrel |value|).  Entering it again after it exits extends it."""

    def __init__(self):
        self.max_error, self.within_tolerance = 0.0, True

    def __enter__(self):
        self._token = _QUAD_LOG.set(self)
        return self

    def __exit__(self, *exc):
        _QUAD_LOG.reset(self._token)


def _time_average(f) -> float:
    """2 int_0^1 (1-u) f(u) du; the error estimate goes to the entered QuadLog.

    ``f`` is the lag covariance of a stationary functional, so the average is
    the variance of its unit-time integral: a value below zero (or NaN) can
    only be quadrature failure, and raises QuadratureFailure.
    """
    epsabs, epsrel = 1e-12, 1e-11
    val, err = quad(lambda u: (1.0 - u) * f(u), 0.0, 1.0, epsabs=epsabs, epsrel=epsrel,
                    limit=200)
    log = _QUAD_LOG.get()
    if log is not None:
        log.max_error = max(log.max_error, err)
        log.within_tolerance &= err <= max(epsabs, epsrel * abs(val))
    if not val >= 0.0:
        raise QuadratureFailure(
            f"time average came out {2.0 * val:.6g}, but it is a variance "
            f"(quadrature error estimate {2.0 * err:.2g})"
        )
    return 2.0 * val


def _time_average_weight(rho, n: int) -> float:
    """2 int_0^1 (1-u) rho(u)^n du, the order-n squared-norm contraction."""
    if n == 0:
        return 1.0
    return _time_average(lambda u: rho(u) ** n)


def _factorial_float(n: int) -> float:
    try:
        return float(math.factorial(n))
    except OverflowError:
        raise DomainError(f"{n}! does not fit in double precision") from None


def _check_n_max(n_max):
    if int(n_max) != n_max or n_max < 0:
        raise DomainError(f"n_max={n_max} must be a nonnegative integer")
    return int(n_max)


def point_chaos_norms(functional: Functional, kernel: Kernel, n_max: int) -> dict:
    """Squared chaos norms of the functional at a fixed time, by order.

    Both coordinates are standard Gaussian, so the map depends on the
    kernel only through existence checks: anything reading the derivative
    coordinate requires r''(0).
    """
    n_max = _check_n_max(n_max)
    if functional.kind == "H2" or functional.axis == "xdot":
        kernel.r2_zero()  # raises NotDifferentiable when there is no derivative
    norms = dict.fromkeys(range(n_max + 1), 0.0)
    if functional.kind == "H":
        if functional.m <= n_max:
            norms[functional.m] = _factorial_float(functional.m)
    elif functional.kind == "H2":
        n = functional.a + functional.b
        if n <= n_max:
            norms[n] = _factorial_float(functional.a) * _factorial_float(functional.b)
    else:
        coeffs = _exact_scalar_coefficients(functional, n_max)
        for n in range(n_max + 1):
            norms[n] = float(_factorial_float(n) * coeffs[n] ** 2)
    return norms


def integrated_chaos_norms(functional: Functional, kernel: Kernel, n_max: int) -> dict:
    """Squared chaos norms of int_0^1 Lambda dt, by order.

    One-dimensional functionals contract each order by
    2 int_0^1 (1-u) rho(u)^n du where rho is the correlation of the
    coordinate being read; two-dimensional ones replace rho^n by the
    tensor-power quadratic form of the joint correlation matrix, which
    requires r''''(0) (and caps the order at TENSOR_POWER_MAX).
    """
    n_max = _check_n_max(n_max)
    norms = dict.fromkeys(range(n_max + 1), 0.0)
    if functional.kind == "H2":
        n = functional.a + functional.b
        if n > TENSOR_POWER_MAX:
            raise DomainError(
                f"two-dimensional order {n} exceeds the tensor-power cap {TENSOR_POWER_MAX}"
            )
        kernel.r4_zero()  # joint-decay structure needs the fourth derivative
        if n <= n_max:
            c = hermite2d_coefficient_vector(functional.a, functional.b).dense()
            weight = _time_average(lambda u: tensor_power_quadratic_form(kernel, u, c))
            norms[n] = math.factorial(n) * weight
        return norms
    point = point_chaos_norms(functional, kernel, n_max)
    rho = _axis_correlation(kernel, functional)
    for n in range(n_max + 1):
        if point[n] != 0.0:
            norms[n] = float(point[n] * _time_average_weight(rho, n))
    return norms


def _functional_l2_norm_sq(functional: Functional) -> float:
    """E[Lambda^2] under the stationary law, summing the full spectrum."""
    if functional.kind == "H":
        return float(math.factorial(functional.m))
    if functional.kind == "H2":
        return float(math.factorial(functional.a) * math.factorial(functional.b))
    if functional.kind == "sign":
        return 1.0
    if functional.kind == "abs":
        return 1.0  # E[xi^2]
    return _std_normal_sf(float(functional.level))  # E[1_{xi>u}^2]


@dataclass(frozen=True)
class ChaosSpectrum:
    """Point and integrated chaos norms of one functional up to order n_max.

    ``truncation_tail_bound`` is the exact spectral mass above n_max in the
    point spectrum; since time averaging contracts every order (rho_n <= 1
    under the standing assumptions), the same number bounds the integrated
    tail.
    """

    functional: str
    kernel: str
    n_max: int
    point_norms: dict
    integrated_norms: dict
    truncation_tail_bound: float


def chaos_spectrum(functional: Functional, kernel: Kernel, n_max: int) -> ChaosSpectrum:
    point = point_chaos_norms(functional, kernel, n_max)
    integrated = integrated_chaos_norms(functional, kernel, n_max)
    tail = _functional_l2_norm_sq(functional) - math.fsum(point.values())
    return ChaosSpectrum(
        functional=functional.spec_string(),
        kernel=kernel.spec_string(),
        n_max=n_max,
        point_norms=point,
        integrated_norms=integrated,
        truncation_tail_bound=max(0.0, tail),
    )


# ---------------------------------------------------------------------------
# Sobolev norms


class SobolevNorm(float):
    """A Sobolev norm value; ``converged`` is False when the weighted
    partial sums were still moving at the truncation order."""

    def __new__(cls, value, converged=True):
        obj = super().__new__(cls, value)
        obj.converged = bool(converged)
        return obj


def sobolev_norm(norms: dict, alpha: float) -> SobolevNorm:
    """sqrt( sum_n (1+n)^alpha * norms[n] ) with a tail-stability flag.

    The flag fails the Cauchy test when the top quarter of the available
    orders still carries more than SOBOLEV_CAUCHY_TOL of the weighted mass,
    i.e. the partial sums have not settled by the truncation order.
    """
    if not norms:
        return SobolevNorm(0.0, converged=True)
    orders = sorted(int(n) for n in norms)
    if orders[0] < 0:
        raise DomainError(f"chaos orders must be nonnegative, got {orders[0]}")
    increments = [(1.0 + n) ** alpha * float(norms[n]) for n in orders]
    if min(increments) < 0.0:
        raise DomainError("squared norms must be nonnegative")
    total = math.fsum(increments)
    n_top = orders[-1]
    window_start = n_top - max(2, n_top // 4)
    tail = math.fsum(inc for n, inc in zip(orders, increments) if n > window_start)
    converged = tail <= SOBOLEV_CAUCHY_TOL * max(total, 1.0)
    return SobolevNorm(math.sqrt(total), converged=converged)


# ---------------------------------------------------------------------------
# regularization exponents


_LADDER_FAMILIES = ("hermite1d", "hermite2d")


def _ladder_functional(family: str, n: int) -> Functional:
    if family == "hermite1d":
        return Functional(kind="H", m=n)
    return Functional(kind="H2", a=(n + 1) // 2, b=n // 2)


def regularization_rho(kernel: Kernel, family: str, n: int) -> float:
    """Integrated-to-point norm ratio rho_n for one ladder member.

    ``family`` is "hermite1d" (H_n of X) or "hermite2d" (the balanced
    product H_ceil(n/2) H_floor(n/2) across both coordinates).
    """
    family = str(family).strip().lower()
    if family not in _LADDER_FAMILIES:
        raise DomainError(f"family must be one of {_LADDER_FAMILIES}, got {family!r}")
    if int(n) != n or n < 0:
        raise DomainError(f"chaos order n={n} must be a nonnegative integer")
    n = int(n)
    if family == "hermite1d":
        # the point norm m! cancels, so work with the contraction weight
        # directly; this keeps orders beyond 170 inside float range
        return _time_average_weight(kernel.r, n)
    func = _ladder_functional(family, n)
    point = point_chaos_norms(func, kernel, n)[n]
    integrated = integrated_chaos_norms(func, kernel, n)[n]
    return integrated / point


def regularization_exponent(kernel: Kernel, family: str, orders) -> DecaySeries:
    """Fit rho_n ~ C n^slope over the given chaos orders.

    Returns the fitted series; orders at n = 0 (where rho_0 = 1 exactly)
    are rejected because they carry no decay information.
    """
    orders = [int(n) for n in orders]
    if len(set(orders)) < 2:
        raise DomainError("need at least two distinct chaos orders to fit a decay exponent")
    if min(orders) < 1:
        raise DomainError("decay fits need orders n >= 1")
    entries = tuple((n, regularization_rho(kernel, family, n)) for n in sorted(set(orders)))
    return fit_decay_exponent(entries)


def laplace_decay_constant(kernel: Kernel) -> float:
    """Leading constant of rho_n ~ C / sqrt(n) for the 1-D Hermite ladder.

    For large n the weight 2 int_0^1 (1-u) r(u)^n du localizes at u = 0
    where r(u) = 1 + r''(0) u^2/2 + ..., leaving a half-Gaussian integral
    with C = 2 sqrt(pi / (2 |r''(0)|)).
    """
    r2 = kernel.r2_zero()
    return 2.0 * math.sqrt(math.pi / (2.0 * abs(r2)))


# ---------------------------------------------------------------------------
# serialization


def spectrum_to_csv(spectrum: ChaosSpectrum) -> str:
    """CSV rows n,point_norm_sq,integrated_norm_sq,rho for n = 0..n_max.

    The rho column is left empty at orders with no point mass.
    """
    lines = ["n,point_norm_sq,integrated_norm_sq,rho"]
    for n in range(spectrum.n_max + 1):
        p = spectrum.point_norms.get(n, 0.0)
        q = spectrum.integrated_norms.get(n, 0.0)
        rho = f"{q / p!r}" if p > 0.0 else ""
        lines.append(f"{n},{p!r},{q!r},{rho}")
    return "\n".join(lines) + "\n"


def spectrum_to_dict(spectrum: ChaosSpectrum) -> dict:
    point = [spectrum.point_norms.get(n, 0.0) for n in range(spectrum.n_max + 1)]
    integ = [spectrum.integrated_norms.get(n, 0.0) for n in range(spectrum.n_max + 1)]
    return {
        "schema": "chaos-spectrum/1",
        "functional": spectrum.functional,
        "kernel": spectrum.kernel,
        "n_max": spectrum.n_max,
        "point_norms": point,
        "integrated_norms": integ,
        "rho": [q / p if p > 0.0 else None for p, q in zip(point, integ)],
        "truncation_tail_bound": spectrum.truncation_tail_bound,
    }
