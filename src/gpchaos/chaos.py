"""Hermite chaos spectra of process functionals and their time averages.

A functional Lambda of the pair (X_t, dX_t/sigma) decomposes over the
Hermite basis; this module computes the squared chaos norms of Lambda at a
fixed time (the *point* spectrum) and of its unit-time average
int_0^1 Lambda dt (the *integrated* spectrum).  The ratio rho_n of the two
measures how much smoothing the time average buys at chaos order n.  The
order-n weight under the time average is a closed form in the lag
correlations at every order: rho(u)^n for one coordinate, a Jacobi
recurrence in the entries of A(u) for products across both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import DecaySeries, fit_decay_exponent
from .covstruct import _quadratic_form, a_matrix, tensor_power_quadratic_form
from .errors import DomainError, whole
from .kernels import Kernel, _spec_number
from .quadrature import integrate

__all__ = [
    "Functional",
    "parse_functional",
    "point_chaos_norms",
    "integrated_chaos_norms",
    "ChaosSpectrum",
    "chaos_spectrum",
    "SobolevNorm",
    "sobolev_norm",
    "regularization_exponent",
    "laplace_decay_constant",
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
            whole(value, f"Hermite order {label}={value} must be a nonnegative integer")
        if not math.isfinite(self.level):
            raise DomainError(f"non-finite indicator level {self.level}")

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
            base = f"ind:{_spec_number(self.level)}"
        else:
            base = self.kind
        return base + ("@xdot" if self.axis == "xdot" else "")


def parse_functional(text: str) -> Functional:
    """Parse ``H:m``, ``H2:a,b``, ``sign``, ``abs``, ``ind:level``.

    An optional ``@x`` / ``@xdot`` suffix selects the coordinate (default
    ``@x``); the indicator level defaults to 0.  The values are checked by
    ``Functional``, and its errors quote the spec.
    """
    if not isinstance(text, str) or not text.strip():
        raise DomainError(f"empty functional spec {text!r}")
    body, at, axis = text.strip().partition("@")
    axis = axis.strip() if at else "x"
    name, _, arg = body.partition(":")
    name = name.strip()
    arg = arg.strip()

    def _number(token, kind, what):
        try:
            return kind(token)
        except ValueError:
            raise DomainError(f"bad {what} {token!r} in {text!r}") from None

    def _functional(kind, **values):
        try:
            return Functional(kind=kind, axis=axis, **values)
        except DomainError as exc:
            raise DomainError(f"{exc} in {text!r}") from None

    if name == "H":
        if not arg:
            raise DomainError(f"H needs an order, e.g. H:3 (got {text!r})")
        return _functional("H", m=_number(arg, int, "Hermite order"))
    if name == "H2":
        parts = arg.split(",")
        if len(parts) != 2:
            raise DomainError(f"H2 needs two orders, e.g. H2:1,1 (got {text!r})")
        a, b = (_number(part, int, "Hermite order") for part in parts)
        return _functional("H2", a=a, b=b)
    if name == "ind" and arg:
        return _functional("ind", level=_number(arg, float, "indicator level"))
    functional = _functional(name)
    if arg:
        raise DomainError(f"{name} takes no argument (got {text!r})")
    return functional


# ---------------------------------------------------------------------------
# one-dimensional point norms


def _scalar_point_norms(func: Functional, n_max: int) -> np.ndarray:
    """Closed-form squared chaos norms n! c_n^2 of sign, abs and indicators.

    int_u^inf H_n phi = H_{n-1}(u) phi(u) for n >= 1 gives c_n =
    H_{n-1}(u) phi(u) / n! for the indicator of (u, inf); sign is twice the
    indicator at 0 above order 0, and abs has c_n = 2 phi(0) H_{n-2}(0) / n!.
    One pass of h_{k+1} = (u h_k - sqrt(k) h_{k-1}) / sqrt(k + 1), with
    h_k = H_k / sqrt(k!), gives every order without forming n! or H_n.  It
    runs in extended precision where the platform has it (x86-64): near a
    zero of h_k the square of a double recurrence keeps only ~1e-11.
    """
    u = float(func.level) if func.kind == "ind" else 0.0
    if func.kind == "ind" and _std_normal_pdf(u) == 0.0:
        # phi(u)^2 h_k(u)^2 <= 0.48 phi(u) (Cramer's inequality): every order
        # above 0 is 0 in double precision, where the recurrence overflows
        return np.array([_std_normal_sf(u) ** 2] + [0.0] * n_max)
    h = np.zeros(n_max + 1, dtype=np.longdouble)
    h[0] = 1.0
    if n_max >= 1:
        h[1] = u
    n = np.arange(n_max + 1, dtype=np.longdouble)
    root = np.sqrt(n)
    for k in range(1, n_max):
        h[k + 1] = (u * h[k] - root[k] * h[k - 1]) / root[k + 1]
    out = np.zeros(n_max + 1, dtype=np.longdouble)
    if func.kind == "abs":
        out[0] = 2.0 / math.pi
        out[2:] = (2.0 * _PHI0) ** 2 * h[:-2] ** 2 / (n[2:] * n[1:-1])
    else:
        scale = 2.0 * _PHI0 if func.kind == "sign" else _std_normal_pdf(u)
        out[0] = _std_normal_sf(u) ** 2 if func.kind == "ind" else 0.0
        out[1:] = scale**2 * h[:-1] ** 2 / n[1:]
    return out.astype(float)


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


def _time_average(f, keys) -> np.ndarray:
    """2 int_0^1 (1-u) f(u, k) du for every k in ``keys``, by the package's
    integrator; ``f(u, ks)`` returns the ``(len(ks), len(u))`` integrands.
    Each average is the variance of a unit-time integral."""
    return 2.0 * integrate(lambda u, ks: f(u, ks) * (1.0 - u), keys)[0]


def _time_average_weights(rho, orders) -> np.ndarray:
    """2 int_0^1 (1-u) rho(u)^n du for each n in ``orders``, the order-n
    squared-norm contractions; 1 exactly at n = 0."""
    orders = np.asarray(orders, dtype=int)
    out = np.ones(orders.size)
    live = orders != 0
    out[live] = _time_average(lambda u, ns: rho(u) ** ns[:, None], orders[live])
    return out


def _factorial_float(*orders: int) -> float:
    """The product of n! over ``orders`` as a float."""
    try:
        return float(math.prod(math.factorial(n) for n in orders))
    except OverflowError:
        product = " * ".join(f"{n}!" for n in orders)
        raise DomainError(f"{product} does not fit in double precision") from None


def _check_n_max(n_max):
    return whole(n_max, f"n_max={n_max} must be a nonnegative integer")


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
            norms[n] = _factorial_float(functional.a, functional.b)
    else:
        norms.update(enumerate(_scalar_point_norms(functional, n_max).tolist()))
    return norms


def integrated_chaos_norms(functional: Functional, kernel: Kernel, n_max: int) -> dict:
    """Squared chaos norms of int_0^1 Lambda dt, by order.

    One-dimensional functionals contract each order by
    2 int_0^1 (1-u) rho(u)^n du where rho is the correlation of the
    coordinate being read.  H_a(X) H_b(dX/sigma) sits in the single order
    n = a + b: its point norm a! b! is contracted by the time average of
    the normalized tensor-power weight N(u) of the joint correlation matrix
    (``covstruct.tensor_power_quadratic_form``, a closed-form recurrence
    that holds at any order), which requires r''''(0).
    """
    n_max = _check_n_max(n_max)
    norms = dict.fromkeys(range(n_max + 1), 0.0)
    if functional.kind == "H2":
        kernel.r4_zero()  # joint-decay structure needs the fourth derivative
        a, b = functional.a, functional.b
        if a + b <= n_max:
            weight = _time_average(
                lambda u, _: tensor_power_quadratic_form(kernel, u, a, b)[None], [a + b])
            norms[a + b] = _factorial_float(a, b) * float(weight[0])
        return norms
    point = point_chaos_norms(functional, kernel, n_max)
    orders = [n for n in range(n_max + 1) if point[n] != 0.0]
    weights = _time_average_weights(_axis_correlation(kernel, functional), orders)
    for n, weight in zip(orders, weights.tolist()):
        norms[n] = point[n] * weight
    return norms


def _functional_l2_norm_sq(functional: Functional) -> float:
    """E[Lambda^2] under the stationary law, summing the full spectrum."""
    if functional.kind == "H":
        return _factorial_float(functional.m)
    if functional.kind == "H2":
        return _factorial_float(functional.a, functional.b)
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
    values = [float(norms[n]) for n in orders]
    if min(values) < 0.0:
        raise DomainError("squared norms must be nonnegative")
    # scale by 2^(-2k), exactly, so that huge norms leave room for the
    # weights and the sum; k = 0 unless the largest norm is above 2^512
    k = max(0, math.frexp(max(values))[1] - 512) // 2
    try:
        weights = [(1.0 + n) ** alpha for n in orders]
    except OverflowError:
        raise DomainError(
            f"Sobolev weight (1 + {orders[-1]})^{alpha:g} does not fit in double precision"
        ) from None
    increments = [w * math.ldexp(v, -2 * k) for w, v in zip(weights, values)]
    total = math.fsum(increments)
    n_top = orders[-1]
    window_start = n_top - max(2, n_top // 4)
    tail = math.fsum(inc for n, inc in zip(orders, increments) if n > window_start)
    converged = tail <= SOBOLEV_CAUCHY_TOL * max(total, 1.0)
    return SobolevNorm(math.ldexp(math.sqrt(total), k), converged=converged)


# ---------------------------------------------------------------------------
# regularization exponents


_LADDER_FAMILIES = ("hermite1d", "hermite2d")


def _ladder_rhos(kernel: Kernel, family: str, orders) -> np.ndarray:
    """rho_n of the ladder member of each order, in one time average."""
    family = str(family).strip().lower()
    if family not in _LADDER_FAMILIES:
        raise DomainError(f"family must be one of {_LADDER_FAMILIES}, got {family!r}")
    if family == "hermite1d":
        return _time_average_weights(kernel.r, orders)
    kernel.r4_zero()  # joint-decay structure needs the fourth derivative

    def forms(u, ns):
        m = a_matrix(kernel, u)
        return np.array([_quadratic_form(m, (n + 1) // 2, n // 2) for n in ns])

    return _time_average(forms, orders)


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
    orders = sorted(set(orders))
    return fit_decay_exponent(tuple(zip(orders, _ladder_rhos(kernel, family, orders).tolist())))


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
