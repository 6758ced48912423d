"""Catalog of stationary covariance kernels on the line.

Every kernel is a frozen dataclass exposing

* pointwise covariance values ``r(t)`` (normalized so r(0) = 1),
* first and second derivatives away from the origin,
* derivative data at the origin with per-entry availability flags, and
* a moving-average kernel b with the reconstruction identity
  r(t) = integral of b(t+s) b(s) ds and normalization int b^2 = 1.

Closed-form b representations exist for the squared-exponential and Matern
families; the other integrable ones get a sampled-grid b from one builder,
``_grid_payload``, the only reader of a spectral density F'.  No kernel has a
public F' (nor an error for its absence): rq and Wendland sample private
closed forms, ``_spectral_abs``, and gamma-exponential an FFT of r.  Every
Matern order takes one route, ``specfun.bessel_zk``, which is a closed form
at the half-integer orders that ``maternhi:m`` and the ``matern12``,
``matern32`` and ``matern52`` aliases name.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    DomainError,
    NoBRepresentation,
    NotDifferentiable,
    whole,
)
from .quadrature import integrate
from .specfun import bessel_zk, gamma_ln

__all__ = [
    "BKernel",
    "Cosine",
    "DerivativesAtZero",
    "GammaExponential",
    "Kernel",
    "Matern",
    "Periodic",
    "RationalQuadratic",
    "SquaredExponential",
    "Wendland",
    "b_representation",
    "fd_derivatives_at_zero",
    "parse_kernel",
    "r_derivatives_at_zero",
    "reconstruct_r",
    "richardson_at_zero",
    "wendland_poly",
]


# --------------------------------------------------------------------------
# result containers


@dataclass(frozen=True)
class DerivativesAtZero:
    """Derivatives of r at the origin with availability flags.

    ``discriminant`` is r''''(0) - r''(0)^2 when both entries exist and NaN
    otherwise.  ``notes`` carries diagnostics, including flags for known
    printed-constant discrepancies resolved against the finite-difference
    oracle.
    """

    r2: float
    r4: float
    discriminant: float
    r2_available: bool
    r4_available: bool
    notes: tuple = ()


@dataclass(frozen=True)
class BKernel:
    """Moving-average kernel b, either closed-form or on a sampled grid.

    A closed form carries callables ``b`` and ``b_prime``; a grid b carries
    ``b = b_prime = None`` and its samples ``grid = (x, b, b', dx)`` at x =
    0, dx, ... up to half the period of its FFT grid.
    ``b_singularity``/``bprime_singularity`` describe local behavior at the
    origin: ``None`` means bounded, ``"log"`` a logarithmic divergence, and a
    float p means growth like \\|x\\|^p with p < 0.  ``tail`` names how b
    decays at large \\|x\\|: ("gauss", a) like exp(-a x^2), ("exp", a) like
    exp(-a \\|x\\|), or ("numeric", X) for a grid b tabulated up to X.  It is
    descriptive: check_a1 prints it as a note, and nothing computes with it.
    """

    b: object
    b_prime: object
    b_singularity: object
    bprime_singularity: object
    tail: tuple
    grid: object = None
    notes: tuple = ()


def _spec_number(value):
    """``value`` as ``:g`` writes it where that parses back equal, else in full."""
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


def _ret(out, t):
    """``out`` for an array argument ``t``; its one value as a float for a
    scalar ``t``."""
    return out if np.ndim(t) else float(np.ravel(out)[0])


def _even(hook, t, odd=False):
    """``hook(|t|)`` shaped like ``t``; times the sign of ``t`` when ``odd``."""
    ta = np.atleast_1d(np.asarray(t, dtype=float))
    out = hook(np.abs(ta))
    return _ret(np.sign(ta) * out if odd else out, t)


def _positive(z, at_zero, fn):
    """``fn(z)`` where ``z > 0``, and ``at_zero`` where ``z == 0``."""
    if z.min(initial=math.inf) > 0.0:  # no lag to mask: fn takes z whole
        return fn(z)
    out = np.full(z.shape, at_zero, dtype=float)
    pos = z > 0
    out[pos] = fn(z[pos])
    return out


# --------------------------------------------------------------------------
# base class


@dataclass(frozen=True)
class Kernel:
    """Common even-function plumbing; families implement the _*_abs hooks."""

    family = "base"

    @property
    def length_scale(self):
        """Scale of the covariance's decay, for grids and windows."""
        return self.ell

    @property
    def fd_scale(self):
        """Scale of the finite-difference step ladder at the origin."""
        return self.length_scale

    def r(self, t):
        return _even(self._r_abs, t)

    def r_prime(self, t):
        return _even(self._r1_abs, t, odd=True)

    def r_second(self, t):
        return _even(self._r2_abs, t)

    # hooks every family defines: _r_abs, _r1_abs and _r2_abs of s = |t|,
    # and, where they exist, the values _r2_at_zero and _r4_at_zero

    # notes on printed constants behind the values at 0, attached where
    # r''''(0) exists
    _printed_notes = ()

    def _odd_taylor_power(self):
        """Lowest non-even |t|-exponent of r at 0, or None if even-smooth.
        An even value p (Matern at integer nu) stands for a |t|^p log|t|
        term."""
        return None

    def derivatives_at_zero(self) -> DerivativesAtZero:
        """r''(0) and r''''(0) where they exist, which the Taylor exponent p
        of ``_odd_taylor_power`` decides: r''(0) exists iff p is None or
        p > 2, and r''''(0) iff p is None or p > 4."""
        p = self._odd_taylor_power()
        r2_ok, r4_ok = (p is None or p > order for order in (2.0, 4.0))
        r2 = self._r2_at_zero() if r2_ok else math.nan
        r4 = self._r4_at_zero() if r4_ok else math.nan
        missing = "r''''(0)" if r2_ok else "r''(0)"
        notes = self._printed_notes if r4_ok else (
            f"|t|^{p:g} term in the expansion at 0; no {missing}",)
        return DerivativesAtZero(r2, r4, r4 - r2 * r2, r2_ok, r4_ok, notes)

    def b_representation(self) -> BKernel:
        raise NoBRepresentation(
            f"{self.family}: covariance is not integrable; no moving-average kernel")

    # strict accessors used by the correlation-structure layer ------------
    def r2_zero(self) -> float:
        d = self.derivatives_at_zero()
        if not d.r2_available:
            raise NotDifferentiable(
                f"{self.spec_string()}: r''(0) does not exist")
        return d.r2

    def r4_zero(self) -> float:
        d = self.derivatives_at_zero()
        if not d.r4_available:
            raise NotDifferentiable(
                f"{self.spec_string()}: r''''(0) does not exist")
        return d.r4

    def spec_string(self) -> str:
        inner = ",".join(f"{k}={_spec_number(getattr(self, k))}"
                         for k in sorted(f.name for f in fields(self)))
        return f"{self.family}:{inner}" if inner else self.family


# --------------------------------------------------------------------------
# squared exponential


@dataclass(frozen=True)
class SquaredExponential(Kernel):
    """r(t) = exp(-t^2 / ell^2)."""

    ell: float = 1.0
    family = "sqexp"

    def __post_init__(self):
        if self.ell <= 0:
            raise DomainError("sqexp: ell must be positive")

    def _r_abs(self, s):
        return np.exp(-((s / self.ell) ** 2))

    # past 40 ell both values are an exact 0 (e^-1600 underflows); capping the
    # lag there keeps s and s^2 finite, so they never meet that 0 as inf * 0
    def _r1_abs(self, s):
        s = np.minimum(s, 40.0 * self.ell)
        return -2.0 * s / self.ell**2 * self._r_abs(s)

    def _r2_abs(self, s):
        s = np.minimum(s, 40.0 * self.ell)
        return (4.0 * s**2 / self.ell**4 - 2.0 / self.ell**2) * self._r_abs(s)

    def _r2_at_zero(self):
        return -2.0 / self.ell**2

    def _r4_at_zero(self):
        return 12.0 / self.ell**4

    def b_representation(self):
        ell = self.ell
        amp = math.sqrt(2.0 / (math.sqrt(math.pi) * ell))

        def b(x):
            x = np.asarray(x, dtype=float)
            return _ret(amp * np.exp(-2.0 * x**2 / ell**2), x)

        def b_prime(x):
            x = np.asarray(x, dtype=float)
            return _ret(-4.0 * x / ell**2 * amp * np.exp(-2.0 * x**2 / ell**2),
                        x)

        return BKernel(b, b_prime, None, None, ("gauss", 2.0 / ell**2))


# --------------------------------------------------------------------------
# Matern, generic order


def _matern_log_c(nu):
    """log of 2^(1-nu) / Gamma(nu), which makes z^nu K_nu(z) 1 at 0."""
    return (1.0 - nu) * math.log(2.0) - gamma_ln(nu)


# Past this z, P z^nu K_nu(z) and its derivatives are below e^-80000 at any
# order up to 1001 (they fall like z^(nu+1/2) e^-z), an exact 0; beyond it the
# ladder's z^2 y overflows before its log scale -z cancels it, so every larger
# z, up to inf, takes the value there.
_BESSEL_FAR = 1e5


def _bessel_form(nu, z, order=0, log_p=None):
    """The order-th derivative (0, 1 or 2) of P z^nu K_nu(z) at z > 0, P =
    exp(log_p), by default 2^(1-nu)/Gamma(nu), from one bessel_zk pass over
    f_o = z^o K_o(z): f_nu at order 0, -z f_(nu-1) at order 1, and f_nu -
    (2 nu - 1) f_(nu-1) at order 2.  That last form is z^nu K_(nu-2) -
    z^(nu-1) K_(nu-1) with K_(nu-2) = K_nu - (2 (nu-1)/z) K_(nu-1); it is
    exact at nu = 1/2, where the two terms of the other form cancel to
    rounding noise.  Near 0, where its rounding would show in r - 1 and its log
    scale cancels log P at large nu, it is P Gamma(nu) 2^(nu-1) sum_{k <
    nu} (-1)^k Gamma(nu-k)/(Gamma(nu) k!) (z^2/4)^k, wherever z^2 < 2 nu (the
    terms fall) and the odd part, (z/2)^(2 nu - order) / (Gamma(nu)
    Gamma(nu+1)), is below e^-77 (rounding, with room for its 1/sin(pi nu)
    and log z factors near integer nu): below one cut-off in z, and nowhere
    unless 2 nu > order, where the odd part vanishes at 0."""
    log_p = _matern_log_c(nu) if log_p is None else log_p
    if z.max(initial=0.0) > _BESSEL_FAR:
        z = np.minimum(z, _BESSEL_FAR)
    rows = bessel_zk(nu - min(order, 1), z, max(order, 1))

    def part(j):  # P z^min(order, 1) f_o at o = nu - min(order, 1) + j
        y, scale = rows[j]
        out = np.add(scale, log_p)
        if order == 1:
            out += np.log(z)
        return np.multiply(np.exp(out, out=out), y, out=out)

    with np.errstate(over="ignore", invalid="ignore"):
        out = (part(0) if order == 0 else -part(0) if order == 1
               else part(1) - (2.0 * nu - 1.0) * part(0))
    cut = math.exp(min(0.5 * math.log(2.0 * nu), math.log(2.0) + (gamma_ln(nu) + gamma_ln(
        nu + 1.0) - 77.0) / (2.0 * nu - order))) if 2.0 * nu > order else 0.0
    near = z < cut
    if not near.any():
        return out
    zn = z[near]
    w, g = zn * zn / 4.0, np.ones(zn.shape)
    total = g if order == 0 else np.zeros(zn.shape)
    k, term = 1, np.ones(zn.shape)
    while k < nu and np.any(np.abs(term) > 1e-17 * np.abs(total)):
        # g = (-1)^k Gamma(nu-k)/(Gamma(nu) k!) w^(k-1); term = g (d/dz)^order w^k / w^(k-1)
        g = g * (-1.0 / (k * (nu - k))) * (w if k > 1 else 1.0)
        term = g * (w if order == 0 else k * zn / 2.0 if order == 1 else k * (k - 0.5))
        total, k = total + term, k + 1
    out[near] = math.exp(log_p - _matern_log_c(nu)) * total
    return out


# Largest Wendland order, built in exact rationals, whose cost grows fast
# with it: a conditions report in a fresh process takes about 0.07 s at
# k = 20 and 2 s at k = 100 (2-core Xeon, Python 3.11).
# maternhi:m keeps the same cap; matern:nu covers the orders beyond.
_MAX_ORDER = 20

# Largest Bessel order of the Matern nu and the rq alpha: the K recurrence
# takes one vector step per order, and the log scales of 2^(1-nu)/Gamma(nu)
# and of z^nu K_nu(z), which cancel, cost about 2e-12 of relative accuracy
# in r at nu = 1000.  Either covariance is then within 3e-4 of exp(-t^2 /
# (2 ell^2)).
_MAX_BESSEL_ORDER = 1000.0

_MATERN_R4_NOTE = (
    "r4 = 3 nu^2/((nu-1)(nu-2) ell^4) from the Bessel recurrences, validated "
    "against the finite-difference oracle; some printed simplification "
    "chains use an inconsistent intermediate factor (Gamma(nu-2)/Gamma(nu) "
    "is 1/((nu-1)(nu-2)), not 3/(nu(nu-1)))."
)


@dataclass(frozen=True)
class Matern(Kernel):
    """Matern covariance of general order nu, Bessel-function route.

    r(t) = 2^{1-nu}/Gamma(nu) (g t)^nu K_nu(g t), g = sqrt(2 nu)/ell,
    evaluated by _bessel_form.
    """

    nu: float
    ell: float = 1.0
    family = "matern"

    def __post_init__(self):
        if self.nu <= 0 or self.ell <= 0:
            raise DomainError("matern: nu and ell must be positive")
        if self.nu > _MAX_BESSEL_ORDER:
            raise DomainError(f"matern: nu must be at most {_MAX_BESSEL_ORDER:g}")

    @property
    def _gam(self):
        return math.sqrt(2.0 * self.nu) / self.ell

    def _r_abs(self, s):  # z = g s in place, over _even's own |t|
        return _positive(np.multiply(s, self._gam, out=s), 1.0, lambda z: _bessel_form(self.nu, z))

    def _r1_abs(self, s):
        return _positive(self._gam * s, 0.0, lambda z: self._gam * _bessel_form(self.nu, z, 1))

    def _r2_abs(self, s):
        d = self.derivatives_at_zero()
        return _positive(self._gam * s, d.r2 if d.r2_available else np.nan,
                         lambda z: self._gam**2 * _bessel_form(self.nu, z, 2))

    def _r2_at_zero(self):
        return -self.nu / ((self.nu - 1.0) * self.ell**2)

    def _r4_at_zero(self):
        nu = self.nu
        return 3.0 * nu**2 / ((nu - 1.0) * (nu - 2.0) * self.ell**4)

    _printed_notes = (_MATERN_R4_NOTE,)

    def _odd_taylor_power(self):
        return 2.0 * self.nu

    def b_representation(self):
        """Closed-form moving-average kernel b(x) = P (g|x|)^q K_q(g|x|) with q =
        (nu - 1/2)/2 and g = sqrt(2 nu)/ell; the prefactor is fixed by int b^2
        = 1.  The derivative uses d/dz [z^q K_q(z)] = -z^q K_{q-1}(z).  b ~
        |x|^(2q) at 0 when q < 0.
        """
        nu, gam = self.nu, self._gam
        q = (nu - 0.5) / 2.0
        log_d = gamma_ln(nu + 0.5) - 0.5 * math.log(math.pi) - gamma_ln(nu) - math.log(gam)
        log_p = 0.5 * (math.log(2.0) + log_d) + math.log(gam) \
            - q * math.log(2.0) - gamma_ln(q + 0.5)
        b0 = math.exp(log_p - _matern_log_c(q)) if q > 0 else np.inf

        def b(x):
            return _even(lambda s: _positive(gam * s, b0, lambda z: _bessel_form(q, z, 0, log_p)), x)

        def b_prime(x):
            return _even(lambda s: _positive(
                gam * s, 0.0, lambda z: gam * _bessel_form(q, z, 1, log_p)), x, odd=True)

        b_sing = "log" if q == 0 else 2.0 * q if q < 0 else None
        bp_sing = 2.0 * q - 1.0 if q < 0.5 else None
        # F' falls like |lam|^-(2 nu + 1), so its square root is integrable iff nu > 1/2
        notes = ("square-root spectral density is not absolutely integrable; "
                 "b is an L2 limit",) if nu <= 0.5 else ()
        return BKernel(b, b_prime, b_sing, bp_sing, ("exp", gam), notes=notes)


# --------------------------------------------------------------------------
# gamma-exponential


# the gamma at which gammaexp is another family, and that family's constructor of ell
_GAMMAEXP_EQUALS = {1.0: functools.partial(Matern, 0.5), 2.0: SquaredExponential}


@dataclass(frozen=True)
class GammaExponential(Kernel):
    """r(t) = exp(-(|t|/ell)^gamma) for gamma in (0, 1) or (1, 2); at gamma = 1
    and 2 it is Matern(1/2, ell) and SquaredExponential(ell), which
    ``gammaexp:`` parses to."""

    gamma: float
    ell: float = 1.0
    family = "gammaexp"

    def __post_init__(self):
        if not 0.0 < self.gamma <= 2.0:
            raise DomainError("gammaexp: gamma must lie in (0, 2]")
        if self.ell <= 0:
            raise DomainError("gammaexp: ell must be positive")
        if self.gamma in _GAMMAEXP_EQUALS:
            raise DomainError(f"gammaexp: gamma={self.gamma:g} is "
                              f"{_GAMMAEXP_EQUALS[self.gamma](self.ell).spec_string()}")

    def _r_abs(self, s):
        return np.exp(-((s / self.ell) ** self.gamma))

    # u = (s/ell)^gamma is capped at 1000, past which e^-u is an exact 0
    # already, so that u/s and u/s^2 never meet that 0 as inf * 0
    def _r1_abs(self, s):
        g = self.gamma

        def at(sp):
            u = np.minimum((sp / self.ell) ** g, 1000.0)
            return -(g / sp) * u * np.exp(-u)

        return _positive(s, 0.0, at)

    def _r2_abs(self, s):
        g = self.gamma

        def at(sp):
            u = np.minimum((sp / self.ell) ** g, 1000.0)
            return ((g * u / sp) ** 2 - g * (g - 1.0) * u / sp**2) * np.exp(-u)

        return _positive(s, np.nan, at)

    def _odd_taylor_power(self):
        return self.gamma

    def b_representation(self):
        if self.gamma < 1.0:
            raise NoBRepresentation(
                "gammaexp: square-root spectral density decays like "
                f"|lam|^-{(1 + self.gamma) / 2:g}, too slowly for the "
                "numeric inversion route (needs exponent > 1)")
        p = (self.gamma - 3.0) / 2.0  # b' ~ |x|^p near 0, p in (-1, -1/2)
        # F' from a 2^20-point FFT of r on [0, 64 ell): no closed form
        n, x_len = 1 << 20, 64.0 * self.ell
        dt = x_len / n
        spec = _even_row_spectrum(self, n, dt)  # of r(min(t, L - t)) on [0, L)
        spec.real *= dt  # F' in the real part, which _grid_payload takes over
        spec.real /= 2.0 * math.pi
        return _grid_payload(spec, dt, p, [
            f"spectral density sampled by FFT of r on [0, {x_len:g})",
            f"b has a cusp at 0; b' is unbounded with local exponent {p:g}"])


# --------------------------------------------------------------------------
# rational quadratic


_RQ_DISC_NOTE = (
    "discriminant computed from oracle-validated r2, r4 as (2 + 3/alpha)/"
    "ell^4; the printed constant (2 alpha + 3)/ell^4 is inconsistent with "
    "those same derivatives and is not used."
)


@dataclass(frozen=True)
class RationalQuadratic(Kernel):
    """r(t) = (1 + t^2/(2 alpha ell^2))^{-alpha}."""

    alpha: float
    ell: float = 1.0
    family = "rq"

    def __post_init__(self):
        if self.alpha <= 0 or self.ell <= 0:
            raise DomainError("rq: alpha and ell must be positive")
        if self.alpha > _MAX_BESSEL_ORDER:
            raise DomainError(f"rq: alpha must be at most {_MAX_BESSEL_ORDER:g}")

    def _u(self, s):
        return 1.0 + s**2 / (2.0 * self.alpha * self.ell**2)

    # u^-alpha as exp(-alpha log1p(u - 1)): forming u rounds u - 1 against 1,
    # and the power would multiply that error alpha-fold
    def _r_abs(self, s):
        return np.exp(-self.alpha * np.log1p(s**2 / (2.0 * self.alpha * self.ell**2)))

    # where u overflows, both values are an s-power times u^-alpha = 0, which
    # an infinite s or s^2 makes inf * 0; they are taken as their limit, 0
    def _r1_abs(self, s):
        u = self._u(s)
        with np.errstate(invalid="ignore"):
            return np.where(u < math.inf, -(s / self.ell**2) * u ** (-self.alpha - 1.0), -0.0)

    # u^(-alpha-1) is factored out of both terms, so that the second's
    # u^(-alpha-2) cannot underflow to 0 while the first is still nonzero
    def _r2_abs(self, s):
        a = self.alpha
        u = self._u(s)
        with np.errstate(invalid="ignore"):
            bracket = (a + 1.0) * (s**2 / (a * self.ell**2)) / u - 1.0
            return np.where(u < math.inf, u ** (-a - 1.0) / self.ell**2 * bracket, 0.0)

    def _r2_at_zero(self):
        return -1.0 / self.ell**2

    def _r4_at_zero(self):
        return 3.0 * (1.0 + 1.0 / self.alpha) / self.ell**4

    _printed_notes = (_RQ_DISC_NOTE,)

    def _spectral_abs(self, s):
        # F'(lam) = a / (sqrt(pi) Gamma(alpha)) (z/2)^p K_p(z), z = a lam
        a = self.ell * math.sqrt(2.0 * self.alpha)
        p = self.alpha - 0.5
        log_c = math.log(a / math.sqrt(math.pi)) - gamma_ln(self.alpha) - p * math.log(2.0)
        return _positive(a * s, math.exp(log_c - _matern_log_c(p)),
                         lambda z: _bessel_form(p, z, 0, log_c))

    def b_representation(self):
        if self.alpha <= 0.5:
            raise NoBRepresentation("rq: no spectral density for alpha <= 1/2")
        dx = self.ell * math.sqrt(2.0 * self.alpha) / 200.0
        lam = 2.0 * math.pi * np.fft.rfftfreq(1 << 16, d=dx)
        return _grid_payload(self._spectral_abs(lam), dx, None)


# --------------------------------------------------------------------------
# Wendland


def _wendland_phi(n: int):
    """Coefficients of (1-t)^n as exact rationals."""
    return [Fraction(math.comb(n, j) * (-1) ** j) for j in range(n + 1)]


def _wendland_step(coeffs):
    """Apply psi -> int_t^1 s psi(s) ds on polynomial coefficients."""
    anti = [Fraction(0), Fraction(0)]
    anti += [a / (j + 2) for j, a in enumerate(coeffs)]
    const = sum(anti)
    out = [-c for c in anti]
    out[0] += const
    return out


def wendland_poly(k: int):
    """Exact coefficients of the k-fold repeated integral of (1-t)^{k+1}."""
    c = _wendland_phi(k + 1)
    for _ in range(k):
        c = _wendland_step(c)
    return c


@dataclass(frozen=True)
class Wendland(Kernel):
    """Compactly supported polynomial kernel on [-1, 1].

    r is the k-fold repeated integral of (1-t)^{k+1}, normalized at 0; all
    polynomial manipulation is exact rational arithmetic, so derivative
    values at 0 are exact.
    """

    k: int
    family = "wendland"

    def __post_init__(self):
        k = whole(self.k, f"wendland: k must be an integer in [1, {_MAX_ORDER}]", 1, _MAX_ORDER)
        object.__setattr__(self, "k", k)

    length_scale = 1.0
    fd_scale = 0.15

    @functools.cached_property
    def _coeffs(self):
        raw = wendland_poly(self.k)
        norm = raw[0]
        return tuple(c / norm for c in raw)

    @functools.cached_property
    def _factored(self):
        """Exact q_j, in floats, with r^(j)(t) = (1-t)^(2k+1-j) q_j(t): the
        coefficients of r cancel, those of q_j do not.  Dividing by 1 - t
        takes prefix sums."""
        c, out = list(self._coeffs), []
        for j in range(3):
            q = c
            for _ in range(2 * self.k + 1 - j):
                q = list(itertools.accumulate(q))[:-1]
            out.append(np.array([float(a) for a in q]))
            c = [i * a for i, a in enumerate(c)][1:]
        return out

    def _masked_eval(self, s, j):
        out = np.zeros_like(s)
        inside = s < 1.0
        si, q = s[inside], self._factored[j]
        log_power = (2 * self.k + 1 - j) * np.log1p(-si)
        # q_0(0) = 1, and r as one exponential rounds like 1 + O(t^2) near 0
        out[inside] = np.exp(log_power + np.log1p(si * npoly.polyval(si, q[1:]))) \
            if j == 0 else np.exp(log_power) * npoly.polyval(si, q)
        return out

    _r_abs = functools.partialmethod(_masked_eval, j=0)
    _r1_abs = functools.partialmethod(_masked_eval, j=1)
    _r2_abs = functools.partialmethod(_masked_eval, j=2)

    def _r2_at_zero(self):
        return float(2 * self._coeffs[2])

    def _r4_at_zero(self):
        return float(24 * self._coeffs[4])

    _printed_notes = (
        "discriminant from exact polynomial arithmetic; the printed shorthand "
        "18k(3k+1) disagrees at every k (936 vs 47736/49 at k = 4) and is not "
        "used",)

    def _odd_taylor_power(self):
        return 2.0 * self.k + 1.0

    @functools.cached_property
    def _spectral_tables(self):
        """Seam lam0, closed-form coefficients and small-lambda rule of F'.

        Integrating pi F(lam) = int_0^1 p(t) cos(lam t) dt by parts until p
        = r|[0,1] is exhausted gives cos(lam) C(1/lam) + sin(lam) S(1/lam) -
        D(1/lam); C and S hold the boundary derivatives p^(j)(1), D the
        p^(j)(0).  Every coefficient below order 2k+2 is exactly zero, so
        the sum keeps its relative accuracy as lam grows.  Its rounding is a
        few eps sum_i |c_i| lam^-i: lam0 is the least integer where that sum
        is at most int_0^1 p, the rounding scale of a quadrature rule.  Below
        lam0 a Gauss-Legendre rule exact to degree deg p + 3 lam0 + 63 (past
        which cos(lam t) has a Taylor remainder below eps) takes over.  The
        coefficients are scaled by lam0^-i for evaluation at lam0/lam <= 1,
        so no power overflows at any k.
        """
        c = self._coeffs
        deg = len(c) - 1
        at_one = [sum(math.perm(i, j) * a for i, a in enumerate(c)) for j in range(deg + 1)]
        tab = [[Fraction(0)] * (deg + 2) for _ in range(3)]  # C, S, D
        for i in range(1, deg + 2):
            sign = (-1) ** (i // 2)
            if i % 2:
                tab[1][i] = sign * at_one[i - 1]
            else:
                tab[0][i] = -sign * at_one[i - 1]
                tab[2][i] = -sign * math.factorial(i - 1) * c[i - 1]
        size = [sum(abs(row[i]) for row in tab) for i in range(deg + 2)]
        mass = sum(a / (j + 1) for j, a in enumerate(c))
        seam = 1
        while sum(w / Fraction(seam) ** i for i, w in enumerate(size)) > mass:
            seam += 1
        scaled = np.array([[float(a / seam**i) for i, a in enumerate(row)] for row in tab])
        nodes, weights = np.polynomial.legendre.leggauss((deg + 3 * seam) // 2 + 32)
        nodes = 0.5 * (nodes + 1.0)
        return seam, scaled.T, nodes, 0.5 * weights * self.r(nodes)

    def _spectral_abs(self, s):
        seam, scaled, nodes, weighted = self._spectral_tables
        out = np.empty(s.shape)
        low = s < seam
        out[low] = np.cos(np.outer(s[low], nodes)) @ weighted
        high = s[~low]
        cos_part, sin_part, edge = npoly.polyval(seam / high, scaled)
        out[~low] = np.cos(high) * cos_part + np.sin(high) * sin_part - edge
        return out / math.pi

    def b_representation(self):
        dx = 0.5 / 200.0
        lam = 2.0 * math.pi * np.fft.rfftfreq(1 << 16, d=dx)
        return _grid_payload(self._spectral_abs(lam), dx, "log" if self.k == 1 else None)


# --------------------------------------------------------------------------
# non-integrable families


@dataclass(frozen=True)
class Cosine(Kernel):
    """r(t) = cos(pi t / ell^2); periodic, spectral mass at two atoms."""

    ell: float = 1.0
    family = "cosine"

    def __post_init__(self):
        if self.ell <= 0:
            raise DomainError("cosine: ell must be positive")

    @property
    def fd_scale(self):
        return self.ell**2 / math.pi

    @property
    def _omega(self):
        return math.pi / self.ell**2

    def _r_abs(self, s):
        return np.cos(self._omega * s)

    def _r1_abs(self, s):
        return -self._omega * np.sin(self._omega * s)

    def _r2_abs(self, s):
        return -self._omega**2 * np.cos(self._omega * s)

    # the discriminant r4 - r2^2 cancels exactly in floating point as well
    def _r2_at_zero(self):
        return -self._omega * self._omega

    def _r4_at_zero(self):
        return self._r2_at_zero() ** 2


@dataclass(frozen=True)
class Periodic(Kernel):
    """r(t) = exp(-sin^2(pi t / T) / ell^2)."""

    T: float = 1.0
    ell: float = 1.0
    family = "periodic"

    def __post_init__(self):
        if self.T <= 0 or self.ell <= 0:
            raise DomainError("periodic: T and ell must be positive")

    @property
    def length_scale(self):
        return self.T

    @property
    def fd_scale(self):
        return self.T / math.pi * min(1.0, self.ell)

    def _r_abs(self, s):
        u = math.pi / self.T
        return np.exp(-np.sin(u * s) ** 2 / self.ell**2)

    def _r1_abs(self, s):
        u = math.pi / self.T
        return -(u / self.ell**2) * np.sin(2.0 * u * s) * self._r_abs(s)

    def _r2_abs(self, s):
        u = math.pi / self.T
        trig = (-2.0 * u**2 / self.ell**2) * np.cos(2.0 * u * s) \
            + (u / self.ell**2) ** 2 * np.sin(2.0 * u * s) ** 2
        return trig * self._r_abs(s)

    def _r2_at_zero(self):
        return -2.0 * (math.pi / self.T) ** 2 / self.ell**2

    def _r4_at_zero(self):
        u4, l2 = (math.pi / self.T) ** 4, self.ell**2
        return 8.0 * u4 / l2 + 12.0 * u4 / l2**2


# --------------------------------------------------------------------------
# sampled-grid b construction


# Bytes of a covariance row's (2 wraps + 1, T) lag tile: below glibc's 128 KiB
# mmap threshold, so kernel.r's temporaries are reused, not faulted in anew.
TILE_BYTES = 1 << 17


def _grid_payload(spec, dx, bp_sing, notes=()):
    """Grid b, samples of b and b' at x = 0, dx, ..., n dx / 2, from F' at the
    n/2 + 1 non-negative frequencies lam of an n-point grid of step dx, given
    as the real part of ``spec``: a complex ``spec`` is overwritten, and its
    buffer then holds b and b'; a real one is copied.  With g = sqrt(2 pi F')
    in the real part and lam g in the imaginary, one inverse real FFT gives
    s = b + b' over the period, and b is its even part (s[k] + s[n-k]) / 2,
    b' its odd part (s[k] - s[n-k]) / 2, exactly 0 at k = 0 and k = n/2.

    Where F'(lam_max) is positive and above 1e-16 F'(0), lam_max = pi / dx,
    a note after ``notes`` quotes the cut tail's bound sqrt(F'(lam_max))
    lam_max near the origin."""
    spec = np.asarray(spec, dtype=complex)
    f, lam_g = spec.real, spec.imag
    m = f.size
    n = 2 * (m - 1)
    notes = list(notes)
    lam_max, top = math.pi / dx, max(float(f[-1]), 0.0)
    if top > 1e-16 * max(float(f[0]), 0.0):
        notes.append(f"square-root spectral tail beyond {lam_max:.3g} "
                     f"contributes at most ~{math.sqrt(top) * lam_max:.2e} near the origin")
    if f.min() < 0.0:
        # the full spectrum holds each interior bin twice, 0 and Nyquist once
        neg = min(f[0], 0.0) + min(f[-1], 0.0) - 2.0 * np.minimum(f, 0.0).sum()
        mass = neg * (2.0 * math.pi / (n * dx))
        notes.append(f"clipped negative spectral noise, mass {mass:.2e}")
        np.maximum(f, 0.0, out=f)
    with np.errstate(all="ignore"):
        f *= 2.0 * math.pi
        np.sqrt(f, out=f)
        np.multiply(np.fft.rfftfreq(n, d=dx), 2.0 * math.pi, out=lam_g)
        lam_g *= f
        s = np.fft.irfft(spec, n)
        s *= 0.5
        b_vals, bp_vals = both = spec.view(float).reshape(2, m)
        mirror = s[:n // 2 - 1:-1]  # s[n - k] for k = 1, ..., n/2
        np.add(s[1:m], mirror, out=b_vals[1:])
        np.subtract(s[1:m], mirror, out=bp_vals[1:])
        b_vals[0], bp_vals[0] = 2.0 * s[0], 0.0
        del s, mirror  # freed before x is made: the spectrum and s set the peak
        both /= dx
    if not np.isfinite(both).all():
        raise NoBRepresentation(f"sampled b is not finite on a grid of step {dx:g}")
    x = np.arange(m) * dx
    return BKernel(None, None, None, bp_sing, ("numeric", x[-1]),
                   grid=(x, b_vals, bp_vals, dx), notes=tuple(notes))


def _even_row_spectrum(kernel, n, dt, wraps=0):
    """rfft of the even n-point row of r at step dt, periodized over the wraps
    j = -wraps ... wraps of its period n dt, less their value at lag 0.

    Lags 0 ... n/2 get r(|k dt + j n dt|) added in order of j, one kernel.r call
    per lag tile of TILE_BYTES, and are mirrored into the rest of the array.  The
    constant n (row[0] - r(0)) then comes out of bin 0, exactly 0 at wraps = 0.
    """
    shifts = np.arange(-wraps, wraps + 1)[:, None] * (n * dt)
    width = max(1, TILE_BYTES // (8 * shifts.size))
    half = n // 2 + 1
    row = np.empty(n)
    for lo in range(0, half, width):
        lags = np.abs(np.add(shifts, np.arange(lo, min(lo + width, half)) * dt))
        np.add.reduce(kernel.r(lags), axis=0, out=row[lo:lo + lags.shape[1]])
    row[half:] = row[half - 2:0:-1]
    spec = np.fft.rfft(row)
    spec[0] -= n * (row[0] - kernel.r(0.0))
    return spec


# --------------------------------------------------------------------------
# module-level operations


def r_derivatives_at_zero(kernel: Kernel) -> DerivativesAtZero:
    return kernel.derivatives_at_zero()


@functools.lru_cache(maxsize=32)
def b_representation(kernel: Kernel) -> BKernel:
    """Cached moving-average kernel; grid builds are expensive."""
    return kernel.b_representation()


def reconstruct_r(kernel: Kernel, t):
    """int b(t+s) b(s) ds, the reconstruction identity.

    A grid b is a trigonometric sum, and so is b * b: its coefficients are
    the squared spectrum of b's even periodic extension, summed against
    cos(lam t) at each lag up to the tabulated half period.  A closed-form b
    is integrated by quadrature.
    """
    rep = b_representation(kernel)
    t_arr = np.abs(np.atleast_1d(np.asarray(t, dtype=float)))
    if rep.grid is not None:
        x, b_vals, _, dx = rep.grid
        if t_arr.max(initial=0.0) > x[-1]:
            raise DomainError(
                f"reconstruct_r: lag beyond tabulated window {x[-1]:g}")
        extension = np.concatenate([b_vals, b_vals[-2:0:-1]])
        power = (dx * np.fft.rfft(extension).real) ** 2
        power[1:-1] *= 2.0
        period = extension.size * dx
        lam = 2.0 * math.pi / period * np.arange(power.size)
        out = np.array([np.cos(lam * s) @ power for s in t_arr]) / period
    else:
        # b is even: r(t) = 2 int_0^inf b(t+s) b(s) ds + int_0^t b(t-s) b(s) ds,
        # and the second is twice its half over [0, t/2], at s = t w/2; neither
        # is more singular at 0 than b^2, the tail's integrand at t = 0
        sing = rep.b_singularity if rep.b_singularity in (None, "log") else 2.0 * rep.b_singularity
        tail, _ = integrate(lambda s, ts: rep.b(ts[:, None] + s) * rep.b(s), t_arr, math.inf,
                            sing, kernel.length_scale)
        live, inner = t_arr > 0.0, np.zeros(t_arr.shape)
        inner[live], _ = integrate(
            lambda w, ts: ts[:, None] * rep.b(ts[:, None] * (1.0 - 0.5 * w))
            * rep.b(0.5 * ts[:, None] * w), t_arr[live], singular=sing)
        out = 2.0 * tail + inner
    return _ret(out, t)


def _error_exponents(p_odd, order):
    """The four lowest exponents of the central-difference error expansion.

    Smooth even kernels only have even powers h^2, h^4, ...; a non-even
    |t|^p term in the expansion of r at 0 adds the powers p - order,
    p - order + 2, ... (e.g. the |t|^5 term of Matern52 puts an O(h) term
    into the fourth-difference quotient, which plain even-power Richardson
    cannot remove).  An even p stands for a |t|^p log|t| term, whose
    h^e log h errors are h^e terms eliminated twice, so an exponent in both
    ladders is listed twice.
    """
    exps = [float(e) for e in range(2, 13, 2)]
    if p_odd is not None:
        e = p_odd - order
        while e <= 12.0:
            if e > 0:
                exps.append(e)
            e += 2.0
    return sorted(exps)[:4]


def richardson_at_zero(quotient, kernel: Kernel, p_odd, order) -> float:
    """Neville extrapolation to h = 0 of ``quotient(h)``, a central
    difference of order ``order`` of a function whose lowest non-even
    |t|-exponent at 0 is ``p_odd`` (None if none), over the error exponents
    of _error_exponents and the steps h0 2^-j, j = 0..4, h0 = 0.1 times the
    kernel's differencing scale: a fixed absolute ladder would lose the
    fourth derivative to rounding (h^4 ~ 1e-16 at h = 1e-4)."""
    h0 = 0.1 * kernel.fd_scale
    vals = [quotient(h0 / 2**j) for j in range(5)]
    for p in _error_exponents(p_odd, order):
        fac = 2.0**p
        vals = [(fac * vals[i + 1] - vals[i]) / (fac - 1.0)
                for i in range(len(vals) - 1)]
    return vals[0]


def fd_derivatives_at_zero(kernel: Kernel) -> dict:
    """Extrapolated central differences for r''(0) and r''''(0)."""
    p_odd = kernel._odd_taylor_power()
    d2 = richardson_at_zero(lambda h: (2.0 * kernel.r(h) - 2.0) / h**2,
                            kernel, p_odd, 2)
    d4 = richardson_at_zero(
        lambda h: (2.0 * kernel.r(2 * h) - 8.0 * kernel.r(h) + 6.0) / h**4,
        kernel, p_odd, 4)
    return {"r2": d2, "r4": d4}


# --------------------------------------------------------------------------
# parsing


def _matern_half_integer(m, ell=1.0):
    """Matern(nu = m + 1/2), the covariance ``maternhi:m=`` names by its whole m."""
    m = whole(m, f"maternhi: m must be an integer in [0, {_MAX_ORDER}]", high=_MAX_ORDER)
    return Matern(m + 0.5, ell)


def _gamma_exponential(gamma, ell=1.0):
    """GammaExponential(gamma, ell), or at gamma = 1 and 2 the family it equals."""
    return _GAMMAEXP_EQUALS.get(gamma, functools.partial(GammaExponential, gamma))(ell)


# the constructor that each family name or alias spells, whose parameters a spec names
_FAMILIES = {cls.family: cls for cls in (SquaredExponential, Matern, RationalQuadratic,
                                         Wendland, Cosine, Periodic)} | {
    "gammaexp": _gamma_exponential,
    "squaredexponential": SquaredExponential,
    "rationalquadratic": RationalQuadratic,
    "maternhi": _matern_half_integer,
    "matern12": functools.partial(_matern_half_integer, 0),
    "matern32": functools.partial(_matern_half_integer, 1),
    "matern52": functools.partial(_matern_half_integer, 2),
}


@functools.cache
def _parameters(make):
    """``{name: required}`` over the parameters of a family's constructor."""
    return {name: p.default is p.empty for name, p in inspect.signature(make).parameters.items()}


def parse_kernel(text: str) -> Kernel:
    """Parse ``family:param=value,param=value`` into a kernel instance.

    The parameters are those of the constructor that ``family`` spells, the
    dataclass fields of a kernel class, those without a default required;
    ``period`` names ``T``.  Raises DomainError on unknown families or
    parameters, repeated, malformed or non-finite values, and, through the
    family's own checks, values outside its domain.
    """
    if not isinstance(text, str) or not text.strip():
        raise DomainError("empty kernel specification")
    fam, _, rest = text.strip().partition(":")
    fam = fam.strip().lower()
    if fam not in _FAMILIES:
        raise DomainError(f"unknown kernel family {fam!r}")
    make = _FAMILIES[fam]
    names = _parameters(make)
    params = {}
    if rest.strip():
        for item in rest.split(","):
            key, sep, val = item.partition("=")
            key = key.strip()
            if key == "period":
                key = "T"
            if not sep or key not in names:
                raise DomainError(f"bad parameter {item!r} for family {fam!r}")
            if key in params:
                raise DomainError(f"parameter {key!r} is given twice in {text!r}")
            try:
                params[key] = float(val)
            except ValueError:
                raise DomainError(f"bad numeric value in {item!r}") from None
            if not math.isfinite(params[key]):
                raise DomainError(f"non-finite value in {item!r}")
    missing = [k for k, required in names.items() if required and k not in params]
    if missing:
        raise DomainError(f"family {fam!r} requires parameter(s) {', '.join(missing)}")
    return make(**params)
