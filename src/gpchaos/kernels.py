"""Catalog of stationary covariance kernels on the line.

Every kernel is a frozen dataclass exposing

* pointwise covariance values ``r(t)`` (normalized so r(0) = 1),
* first and second derivatives away from the origin,
* derivative data at the origin with per-entry availability flags,
* the spectral density F' where the covariance is integrable, and
* a moving-average kernel b with the reconstruction identity
  r(t) = integral of b(t+s) b(s) ds and normalization int b^2 = 1.

Closed-form b representations exist for the squared-exponential and Matern
families; the remaining integrable families get a sampled-grid b built by
Fourier inversion of the square-root spectral density.  The generic Matern
route deliberately evaluates modified Bessel functions through the library
routine rather than the half-integer finite sums, so that
``Matern(nu=m+1/2)`` and ``MaternHalfInteger(m)`` stay independent
implementations that can be cross-checked against each other.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import kv

from .errors import (
    DomainError,
    NoBRepresentation,
    NoSpectralDensity,
    NotDifferentiable,
)
from .specfun import gamma_ln

__all__ = [
    "BKernel",
    "Cosine",
    "DerivativesAtZero",
    "GammaExponential",
    "Kernel",
    "Matern",
    "MaternHalfInteger",
    "Periodic",
    "RationalQuadratic",
    "SquaredExponential",
    "Wendland",
    "b_representation",
    "fd_derivatives_at_zero",
    "parse_kernel",
    "r_derivatives_at_zero",
    "reconstruct_r",
    "wendland_poly",
    "wendland_repeated_integral_at_zero",
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

    ``b_singularity``/``bprime_singularity`` describe local behavior at the
    origin: ``None`` means bounded, ``"log"`` a logarithmic divergence, and a
    float p means growth like \\|x\\|^p with p < 0.  ``tail`` is a decay model
    ("gauss", a), ("exp", a), ("power", p) or ("numeric", X) used by
    integrability checks to extrapolate beyond the quadrature window.
    """

    representation: str
    b: object
    b_prime: object
    b_singularity: object
    bprime_singularity: object
    tail: tuple
    truncation_error: float
    grid: object = None
    notes: tuple = ()


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

    # hooks ---------------------------------------------------------------
    def _r_abs(self, s):  # pragma: no cover - abstract
        raise NotImplementedError

    def _r1_abs(self, s):  # pragma: no cover - abstract
        raise NotImplementedError

    def _r2_abs(self, s):  # pragma: no cover - abstract
        raise NotImplementedError

    def derivatives_at_zero(self) -> DerivativesAtZero:  # pragma: no cover
        raise NotImplementedError

    def _odd_taylor_power(self):
        """Lowest non-even |t|-exponent of r at 0, or None if even-smooth."""
        return None

    def spectral_density(self, lam):  # pragma: no cover - abstract
        raise NoSpectralDensity(f"{self.family}: no spectral density")

    def b_representation(self) -> BKernel:  # pragma: no cover - abstract
        raise NoBRepresentation(f"{self.family}: no moving-average kernel")

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

    def params(self) -> dict:
        return {
            k: getattr(self, k)
            for k in self.__dataclass_fields__  # type: ignore[attr-defined]
        }

    def spec_string(self) -> str:
        inner = ",".join(f"{k}={v:g}" for k, v in sorted(self.params().items()))
        return f"{self.family}:{inner}" if inner else self.family


def _disc(r2, r4):
    return r4 - r2 * r2


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

    def _r1_abs(self, s):
        return -2.0 * s / self.ell**2 * self._r_abs(s)

    def _r2_abs(self, s):
        return (4.0 * s**2 / self.ell**4 - 2.0 / self.ell**2) * self._r_abs(s)

    def derivatives_at_zero(self):
        r2 = -2.0 / self.ell**2
        r4 = 12.0 / self.ell**4
        return DerivativesAtZero(r2, r4, _disc(r2, r4), True, True)

    def spectral_density(self, lam):
        lam = np.asarray(lam, dtype=float)
        out = math.sqrt(self.ell**2 / (4.0 * math.pi)) * np.exp(
            -self.ell**2 * lam**2 / 4.0)
        return _ret(out, lam)

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

        return BKernel("closed", b, b_prime, None, None,
                       ("gauss", 2.0 / ell**2), 0.0)


# --------------------------------------------------------------------------
# Matern, generic order


def _matern_b_closed(nu: float, ell: float, notes=()) -> BKernel:
    """Closed-form moving-average kernel shared by both Matern routes.

    b(x) = P (g|x|)^q K_q(g|x|) with q = (nu - 1/2)/2 and g = sqrt(2 nu)/ell;
    the prefactor is fixed by int b^2 = 1.  The derivative uses
    d/dz [z^q K_q(z)] = -z^q K_{q-1}(z).
    """
    gam = math.sqrt(2.0 * nu) / ell
    mu = nu + 0.5
    q = (nu - 0.5) / 2.0
    log_d = gamma_ln(mu) - 0.5 * math.log(math.pi) - gamma_ln(nu) - \
        math.log(gam)
    log_p = 0.5 * (math.log(2.0) + log_d) + math.log(gam) \
        - q * math.log(2.0) - gamma_ln(q + 0.5)
    pref = math.exp(log_p)
    b0 = pref * 2.0 ** (q - 1.0) * math.exp(gamma_ln(q)) if q > 0 else np.inf

    def b(x):
        return _even(lambda s: _positive(gam * s, b0, lambda z: pref * z**q * kv(q, z)), x)

    def b_prime(x):
        return _even(lambda s: _positive(
            gam * s, 0.0, lambda z: -pref * gam * z**q * kv(q - 1.0, z)), x, odd=True)

    if q == 0:
        b_sing, bp_sing = "log", -1.0
    elif q < 0.5:
        b_sing, bp_sing = None, 2.0 * q - 1.0
    else:
        b_sing, bp_sing = None, None
    return BKernel("closed", b, b_prime, b_sing, bp_sing, ("exp", gam), 0.0,
                   notes=notes)


_MATERN_R4_NOTE = (
    "r4 = 3 nu^2/((nu-1)(nu-2) ell^4) from the Bessel recurrences, validated "
    "against the finite-difference oracle; some printed simplification "
    "chains use an inconsistent intermediate factor (Gamma(nu-2)/Gamma(nu) "
    "is 1/((nu-1)(nu-2)), not 3/(nu(nu-1)))."
)


@dataclass(frozen=True)
class Matern(Kernel):
    """Matern covariance of general order nu, Bessel-function route.

    r(t) = 2^{1-nu}/Gamma(nu) (g t)^nu K_nu(g t), g = sqrt(2 nu)/ell.
    """

    nu: float
    ell: float = 1.0
    family = "matern"

    def __post_init__(self):
        if self.nu <= 0 or self.ell <= 0:
            raise DomainError("matern: nu and ell must be positive")

    @property
    def _gam(self):
        return math.sqrt(2.0 * self.nu) / self.ell

    @property
    def _c(self):
        return 2.0 ** (1.0 - self.nu) / math.exp(gamma_ln(self.nu))

    def _r_abs(self, s):
        nu, c = self.nu, self._c
        return _positive(self._gam * s, 1.0, lambda z: c * z**nu * kv(nu, z))

    def _r1_abs(self, s):
        nu, c, gam = self.nu, self._c, self._gam
        return _positive(gam * s, 0.0, lambda z: -c * gam * z**nu * kv(nu - 1.0, z))

    def _r2_abs(self, s):
        nu, c, gam = self.nu, self._c, self._gam
        d = self.derivatives_at_zero()
        return _positive(
            gam * s, d.r2 if d.r2_available else np.nan,
            lambda z: -c * gam**2 * (z ** (nu - 1.0) * kv(nu - 1.0, z) - z**nu * kv(nu - 2.0, z)),
        )

    def derivatives_at_zero(self):
        nu, ell = self.nu, self.ell
        notes = []
        if nu > 1:
            r2 = -nu / ((nu - 1.0) * ell**2)
            r2_ok = True
        else:
            r2, r2_ok = math.nan, False
            notes.append("r''(0) requires nu > 1")
        if nu > 2:
            r4 = 3.0 * nu**2 / ((nu - 1.0) * (nu - 2.0) * ell**4)
            r4_ok = True
            notes.append(_MATERN_R4_NOTE)
        else:
            r4, r4_ok = math.nan, False
            if nu > 1:
                notes.append("r''''(0) requires nu > 2")
        disc = _disc(r2, r4) if (r2_ok and r4_ok) else math.nan
        return DerivativesAtZero(r2, r4, disc, r2_ok, r4_ok, tuple(notes))

    def _odd_taylor_power(self):
        return 2.0 * self.nu

    def spectral_density(self, lam):
        lam = np.asarray(lam, dtype=float)
        gam, mu = self._gam, self.nu + 0.5
        d = math.exp(gamma_ln(mu) - 0.5 * math.log(math.pi)
                     - gamma_ln(self.nu) - math.log(gam))
        out = d * (1.0 + lam**2 / gam**2) ** (-mu)
        return _ret(out, lam)

    def b_representation(self):
        return _matern_b_closed(self.nu, self.ell)


@dataclass(frozen=True)
class MaternHalfInteger(Kernel):
    """Matern covariance at nu = m + 1/2 via the exponential-polynomial form.

    r(t) = e^{-z} m!/(2m)! sum_{i=0}^{m} (m+i)!/(i!(m-i)!) (2z)^{m-i},
    z = sqrt(2 nu) |t| / ell.  The Taylor coefficients of p(z) e^{-z} are
    kept as exact rationals so derivative availability at 0 (vanishing of
    the odd terms) is decided exactly, not by floating-point comparison.
    """

    m: int
    ell: float = 1.0
    family = "maternhi"

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 0:
            raise DomainError("maternhi: m must be a nonnegative integer")
        if self.ell <= 0:
            raise DomainError("maternhi: ell must be positive")
        object.__setattr__(self, "m", int(self.m))

    @property
    def nu(self):
        return self.m + 0.5

    # the spectral side depends on (nu, ell) alone
    _gam = Matern._gam
    spectral_density = Matern.spectral_density
    b_representation = Matern.b_representation

    @functools.cached_property
    def _p_coeffs(self):
        """Exact coefficients of p(z) with r = p(z) e^{-z}, p(0) = 1."""
        m = self.m
        lead = Fraction(math.factorial(m), math.factorial(2 * m))
        coeffs = [Fraction(0)] * (m + 1)
        for i in range(m + 1):
            c = lead * Fraction(
                math.factorial(m + i),
                math.factorial(i) * math.factorial(m - i)) * 2 ** (m - i)
            coeffs[m - i] += c
        return tuple(coeffs)

    @functools.cached_property
    def _q_taylor(self):
        """Exact Taylor coefficients of q(z) = p(z) e^{-z} through z^4."""
        p = self._p_coeffs
        out = []
        for j in range(5):
            acc = Fraction(0)
            for i in range(min(j, len(p) - 1) + 1):
                acc += p[i] * Fraction((-1) ** (j - i),
                                       math.factorial(j - i))
            out.append(acc)
        return tuple(out)

    @functools.cached_property
    def _polys(self):
        p = np.array([float(c) for c in self._p_coeffs])
        p1 = npoly.polyder(p)
        p2 = npoly.polyder(p, 2)
        return p, p1, p2

    def _r_abs(self, s):
        z = self._gam * s
        p, _, _ = self._polys
        return npoly.polyval(z, p) * np.exp(-z)

    def _r1_abs(self, s):
        z = self._gam * s
        p, p1, _ = self._polys
        return self._gam * (npoly.polyval(z, p1) - npoly.polyval(z, p)) \
            * np.exp(-z)

    def _r2_abs(self, s):
        z = self._gam * s
        p, p1, p2 = self._polys
        val = npoly.polyval(z, p2) - 2.0 * npoly.polyval(z, p1) \
            + npoly.polyval(z, p)
        return self._gam**2 * val * np.exp(-z)

    def derivatives_at_zero(self):
        T = self._q_taylor
        gam = self._gam
        notes = []
        if T[1] == 0:
            r2, r2_ok = 2.0 * float(T[2]) * gam**2, True
        else:
            r2, r2_ok = math.nan, False
            notes.append("odd |t| term in the expansion at 0; no r''(0)")
        if T[1] == 0 and T[3] == 0:
            r4, r4_ok = 24.0 * float(T[4]) * gam**4, True
        else:
            r4, r4_ok = math.nan, False
            if r2_ok:
                notes.append("|t|^3 term in the expansion at 0; no r''''(0)")
        disc = _disc(r2, r4) if (r2_ok and r4_ok) else math.nan
        return DerivativesAtZero(r2, r4, disc, r2_ok, r4_ok, tuple(notes))

    def _odd_taylor_power(self):
        return 2.0 * self.nu


# --------------------------------------------------------------------------
# gamma-exponential


@dataclass(frozen=True)
class GammaExponential(Kernel):
    """r(t) = exp(-(|t|/ell)^gamma) for gamma in (0, 2]."""

    gamma: float
    ell: float = 1.0
    family = "gammaexp"

    def __post_init__(self):
        if not 0.0 < self.gamma <= 2.0:
            raise DomainError("gammaexp: gamma must lie in (0, 2]")
        if self.ell <= 0:
            raise DomainError("gammaexp: ell must be positive")

    def _r_abs(self, s):
        return np.exp(-((s / self.ell) ** self.gamma))

    def _r1_abs(self, s):
        g = self.gamma

        def at(sp):
            u = (sp / self.ell) ** g
            return -(g / sp) * u * np.exp(-u)

        return _positive(s, 0.0, at)

    def _r2_abs(self, s):
        g = self.gamma

        def at(sp):
            u = (sp / self.ell) ** g
            return ((g * u / sp) ** 2 - g * (g - 1.0) * u / sp**2) * np.exp(-u)

        return _positive(s, -2.0 / self.ell**2 if g == 2.0 else np.nan, at)

    def derivatives_at_zero(self):
        if self.gamma == 2.0:
            r2 = -2.0 / self.ell**2
            r4 = 12.0 / self.ell**4
            return DerivativesAtZero(r2, r4, _disc(r2, r4), True, True)
        notes = ("no t^2 term in the expansion at 0 unless gamma is 1 or 2",)
        if self.gamma == 1.0:
            notes = ("one-sided r''(0+) = 1/ell^2 exists but the two-sided "
                     "second derivative does not (cusp at 0)",)
        return DerivativesAtZero(math.nan, math.nan, math.nan, False, False,
                                 notes)

    def _odd_taylor_power(self):
        return None if self.gamma == 2.0 else self.gamma

    def spectral_density(self, lam):
        if self.gamma == 2.0:
            return SquaredExponential(self.ell).spectral_density(lam)
        if self.gamma == 1.0:
            lam = np.asarray(lam, dtype=float)
            out = (self.ell / math.pi) / (1.0 + (self.ell * lam) ** 2)
            return _ret(out, lam)

        def transform(l):
            if l == 0:
                return quad(self._r_scalar, 0.0, np.inf)[0]
            return quad(self._r_scalar, 0.0, np.inf, weight="cos", wvar=l)[0]

        return _even(lambda s: np.reshape([transform(l) for l in s.ravel()], s.shape) / math.pi,
                     lam)

    def _r_scalar(self, t):
        return math.exp(-((t / self.ell) ** self.gamma))

    def b_representation(self):
        if self.gamma == 2.0:
            return SquaredExponential(self.ell).b_representation()
        if self.gamma == 1.0:
            return _matern_b_closed(0.5, self.ell, notes=(
                "square-root spectral density is not absolutely integrable; "
                "b is the L2 limit K_0 form",))
        if self.gamma < 1.0:
            raise NoBRepresentation(
                "gammaexp: square-root spectral density decays like "
                f"|lam|^-{(1 + self.gamma) / 2:g}, too slowly for the "
                "numeric inversion route (needs exponent > 1)")
        rep = _grid_b_from_covariance(self)
        p = (self.gamma - 3.0) / 2.0  # b' ~ |x|^p near 0, p in (-1, -1/2)
        return BKernel("grid", rep.b, rep.b_prime, None, p, rep.tail,
                       rep.truncation_error, grid=rep.grid,
                       notes=rep.notes + (
                           "b has a cusp at 0; b' is unbounded with local "
                           f"exponent {p:g}",))


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

    def _u(self, s):
        return 1.0 + s**2 / (2.0 * self.alpha * self.ell**2)

    def _r_abs(self, s):
        return self._u(s) ** (-self.alpha)

    def _r1_abs(self, s):
        return -(s / self.ell**2) * self._u(s) ** (-self.alpha - 1.0)

    def _r2_abs(self, s):
        a = self.alpha
        u = self._u(s)
        return (-u ** (-a - 1.0) / self.ell**2
                + (a + 1.0) * s**2 / (a * self.ell**4) * u ** (-a - 2.0))

    def derivatives_at_zero(self):
        r2 = -1.0 / self.ell**2
        r4 = 3.0 * (1.0 + 1.0 / self.alpha) / self.ell**4
        return DerivativesAtZero(r2, r4, _disc(r2, r4), True, True,
                                 (_RQ_DISC_NOTE,))

    def spectral_density(self, lam):
        if self.alpha <= 0.5:
            raise NoSpectralDensity(
                "rq: covariance is not integrable for alpha <= 1/2")
        a = self.ell * math.sqrt(2.0 * self.alpha)
        p = self.alpha - 0.5
        c = a / (math.sqrt(math.pi) * math.exp(gamma_ln(self.alpha)))
        return _even(lambda s: _positive(
            a * s, c * math.exp(gamma_ln(p)) / 2.0, lambda z: c * (z / 2.0) ** p * kv(p, z)), lam)

    def b_representation(self):
        if self.alpha <= 0.5:
            raise NoBRepresentation(
                "rq: no spectral density for alpha <= 1/2")
        a = self.ell * math.sqrt(2.0 * self.alpha)
        rep = _grid_b_from_spectral(self.spectral_density, scale=a,
                                    decay_scale=a)
        return BKernel("grid", rep.b, rep.b_prime, None, None, rep.tail,
                       rep.truncation_error, grid=rep.grid, notes=rep.notes)


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


def wendland_repeated_integral_at_zero(n: int, k: int) -> Fraction:
    """Exact value at 0 of the n-fold repeated integral of (1-t)^{k+1}."""
    c = _wendland_phi(k + 1)
    for _ in range(n):
        c = _wendland_step(c)
    return c[0]


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
    values at 0 are exact and the availability of the fourth derivative
    (vanishing cubic term, k >= 2) is decided symbolically.
    """

    k: int
    family = "wendland"

    def __post_init__(self):
        if int(self.k) != self.k or self.k < 1:
            raise DomainError("wendland: k must be a positive integer")
        object.__setattr__(self, "k", int(self.k))

    length_scale = 1.0
    fd_scale = 0.15

    @functools.cached_property
    def _coeffs(self):
        raw = wendland_poly(self.k)
        norm = raw[0]
        return tuple(c / norm for c in raw)

    @functools.cached_property
    def _float_coeffs(self):
        c = np.array([float(x) for x in self._coeffs])
        return c, npoly.polyder(c), npoly.polyder(c, 2)

    def _masked_eval(self, s, coeff):
        out = np.zeros_like(s)
        inside = s <= 1.0
        out[inside] = npoly.polyval(s[inside], coeff)
        return out

    def _r_abs(self, s):
        return self._masked_eval(s, self._float_coeffs[0])

    def _r1_abs(self, s):
        return self._masked_eval(s, self._float_coeffs[1])

    def _r2_abs(self, s):
        return self._masked_eval(s, self._float_coeffs[2])

    def derivatives_at_zero(self):
        c = self._coeffs
        notes = []
        r2 = float(2 * c[2])
        r4, r4_ok = math.nan, False
        if len(c) > 3 and c[3] == 0:
            r4, r4_ok = float(24 * c[4]), True
            notes.append(
                "discriminant from exact polynomial arithmetic; the printed "
                "shorthand 18k(3k+1) disagrees at every k (936 vs 47736/49 "
                "at k = 4) and is not used")
        else:
            notes.append("|t|^3 term present for k = 1; no r''''(0)")
        disc = _disc(r2, r4) if r4_ok else math.nan
        return DerivativesAtZero(r2, r4, disc, True, r4_ok, tuple(notes))

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
        p_vals = [float(sum(a * Fraction(t) ** j for j, a in enumerate(c))) for t in nodes]
        return seam, scaled.T, nodes, 0.5 * weights * np.array(p_vals)

    def spectral_density(self, lam):
        return _even(self._spectral_abs, lam)

    def _spectral_abs(self, s):
        seam, scaled, nodes, weighted = self._spectral_tables
        flat = s.ravel()
        out = np.empty(flat.shape)
        low = flat < seam
        out[low] = np.cos(np.outer(flat[low], nodes)) @ weighted
        high = flat[~low]
        cos_part, sin_part, edge = npoly.polyval(seam / high, scaled)
        out[~low] = np.cos(high) * cos_part + np.sin(high) * sin_part - edge
        return (out / math.pi).reshape(s.shape)

    def b_representation(self):
        rep = _grid_b_from_spectral(self.spectral_density, scale=0.5,
                                    decay_scale=1.0)
        bp_sing = "log" if self.k == 1 else None
        return BKernel("grid", rep.b, rep.b_prime, None, bp_sing, rep.tail,
                       rep.truncation_error, grid=rep.grid, notes=rep.notes)


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

    def derivatives_at_zero(self):
        w2 = self._omega * self._omega
        r2, r4 = -w2, w2 * w2
        # discriminant r4 - r2^2 cancels exactly in floating point as well
        return DerivativesAtZero(r2, r4, r4 - r2 * r2, True, True)

    def spectral_density(self, lam):
        raise NoSpectralDensity(
            "cosine: spectral measure is two atoms; no density")

    def b_representation(self):
        raise NoBRepresentation(
            "cosine: covariance is not integrable; no moving-average kernel")


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

    def derivatives_at_zero(self):
        u = math.pi / self.T
        l2 = self.ell**2
        r2 = -2.0 * u**2 / l2
        r4 = 8.0 * u**4 / l2 + 12.0 * u**4 / l2**2
        return DerivativesAtZero(r2, r4, _disc(r2, r4), True, True)

    def spectral_density(self, lam):
        raise NoSpectralDensity(
            "periodic: spectral measure is atomic; no density")

    def b_representation(self):
        raise NoBRepresentation(
            "periodic: covariance is not integrable; no moving-average "
            "kernel")


# --------------------------------------------------------------------------
# sampled-grid b construction


@dataclass(frozen=True)
class _GridRep:
    b: object
    b_prime: object
    tail: tuple
    truncation_error: float
    grid: tuple
    notes: tuple


def _grid_payload(lam, f_vals, dx, trunc, notes):
    """Grid b and b' by FFT inversion of sqrt(2 pi F') sampled at the
    frequencies ``lam`` of an n-point grid of step dx, with splines on the
    half line."""
    g = np.sqrt(2.0 * math.pi * f_vals)
    half = lam.size // 2
    b_vals = np.fft.ifft(g).real[:half + 1] / dx
    bp_vals = np.fft.ifft(1j * lam * g).real[:half + 1] / dx
    x = np.arange(half + 1) * dx
    spl_b = CubicSpline(x, b_vals)
    spl_bp = CubicSpline(x, bp_vals)
    x_max = x[-1]

    def windowed(spline):
        return lambda ax: np.where(ax <= x_max, spline(np.minimum(ax, x_max)), 0.0)

    def b(xx):
        return _even(windowed(spl_b), xx)

    def b_prime(xx):
        return _even(windowed(spl_bp), xx, odd=True)

    return _GridRep(b, b_prime, ("numeric", x_max), trunc,
                    (x, b_vals, bp_vals, dx), tuple(notes))


def _grid_b_from_spectral(density, scale, decay_scale, n=1 << 16):
    """Invert sqrt(2 pi F') on an FFT grid; returns callables + metadata."""
    dx = scale / 200.0
    lam_max = math.pi / dx
    # doubling search for the 1e-16 relative decay point of F'
    f0 = float(density(0.0))
    lam_star = 4.0 / decay_scale
    while lam_star < 8.0 * lam_max and \
            float(density(lam_star)) > 1e-16 * f0:
        lam_star *= 2.0
    notes = []
    trunc = 0.0
    if lam_star > lam_max:
        # crude documented bound on the discarded spectral mass
        trunc = float(np.sqrt(max(float(density(lam_max)), 0.0))) * lam_max
        notes.append(
            f"spectral grid truncated at {lam_max:.3g} before the 1e-16 "
            f"decay point {lam_star:.3g}; truncation estimate {trunc:.2e}")
    lam = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)
    f_vals = np.asarray(density(np.abs(lam)), dtype=float)
    neg = f_vals < 0
    if np.any(neg):
        clipped = -f_vals[neg].sum() * (2.0 * math.pi / (n * dx))
        notes.append(f"clipped negative spectral noise, mass {clipped:.2e}")
        f_vals = np.clip(f_vals, 0.0, None)
    return _grid_payload(lam, f_vals, dx, trunc, notes)


def _grid_b_from_covariance(kernel, n=1 << 20):
    """Grid b via FFT of the sampled covariance (heavy spectral tails)."""
    scale = kernel.length_scale
    x_len = 64.0 * scale
    dt = x_len / n
    t = np.arange(n) * dt
    row = kernel.r(np.minimum(t, x_len - t))
    f_vals = np.fft.fft(row).real * dt / (2.0 * math.pi)
    lam = 2.0 * math.pi * np.fft.fftfreq(n, d=dt)
    neg = f_vals < 0
    notes = [f"spectral density sampled by FFT of r on [0, {x_len:g})"]
    if np.any(neg):
        clipped = -f_vals[neg].sum() * (2.0 * math.pi / (n * dt))
        notes.append(f"clipped negative spectral noise, mass {clipped:.2e}")
        f_vals = np.clip(f_vals, 0.0, None)
    lam_max = math.pi / dt
    tail_amp = math.sqrt(max(f_vals[n // 2], 0.0)) * lam_max
    notes.append(f"square-root spectral tail beyond {lam_max:.3g} "
                 f"contributes at most ~{tail_amp:.2e} near the origin")
    return _grid_payload(lam, f_vals, dt, tail_amp, notes)


# --------------------------------------------------------------------------
# module-level operations


def r_derivatives_at_zero(kernel: Kernel) -> DerivativesAtZero:
    return kernel.derivatives_at_zero()


@functools.lru_cache(maxsize=32)
def b_representation(kernel: Kernel) -> BKernel:
    """Cached moving-average kernel; grid builds are expensive."""
    return kernel.b_representation()


@functools.lru_cache(maxsize=32)
def _reconstruction_spline(kernel: Kernel):
    rep = b_representation(kernel)
    x, b_vals, _, dx = rep.grid
    stride = max(1, int(round(0.002 * kernel.length_scale / dx)))
    vals = b_vals[::stride]
    step = dx * stride
    keep = np.nonzero(np.abs(vals) > 1e-10 * np.abs(vals).max())[0]
    m = keep[-1] + 1 if keep.size else vals.size
    half = vals[:m]
    full = np.concatenate([half[:0:-1], half])
    n_lag = min(half.size - 1,
                int(math.ceil(8.0 * kernel.length_scale / step)))
    lags = np.arange(n_lag + 1)
    corr = np.empty(n_lag + 1)
    for k in lags:
        corr[k] = np.dot(full[: full.size - k], full[k:]) * step
    return CubicSpline(lags * step, corr), n_lag * step


def reconstruct_r(kernel: Kernel, t):
    """Quadrature of int b(t+s) b(s) ds, the reconstruction identity."""
    rep = b_representation(kernel)
    t_arr = np.abs(np.atleast_1d(np.asarray(t, dtype=float)))
    if rep.grid is not None:
        spline, t_max = _reconstruction_spline(kernel)
        if t_arr.max(initial=0.0) > t_max:
            raise DomainError(
                f"reconstruct_r: lag beyond tabulated window {t_max:g}")
        out = spline(t_arr)
    else:
        scale = kernel.length_scale
        out = np.empty(t_arr.shape)
        for i, ti in enumerate(t_arr):
            lo, hi = -ti - 40.0 * scale, 40.0 * scale
            pts = [p for p in (-ti, 0.0) if lo < p < hi]
            out[i] = quad(lambda s: rep.b(ti + s) * rep.b(s), lo, hi,
                          points=pts, limit=400)[0]
    return _ret(out, t)


def _error_exponents(p_odd, order, count=4):
    """Exponent ladder of the central-difference error expansion.

    Smooth even kernels only have even powers h^2, h^4, ...; a non-even
    |t|^p term in the expansion of r at 0 adds the powers p - order,
    p - order + 2, ... (e.g. the |t|^5 term of Matern52 puts an O(h) term
    into the fourth-difference quotient, which plain even-power Richardson
    cannot remove).
    """
    exps = {float(e) for e in range(2, 13, 2)}
    if p_odd is not None:
        e = p_odd - order
        while e <= 12.0:
            if e > 0:
                exps.add(e)
            e += 2.0
    return sorted(exps)[:count]


def fd_derivatives_at_zero(kernel: Kernel) -> dict:
    """Neville-extrapolated central differences for r''(0) and r''''(0).

    Geometric step ladder h0 * 2^{-j}, j = 0..4, with h0 = 0.1 times the
    kernel's differencing scale; a fixed absolute ladder would lose the
    fourth derivative to rounding (h^4 ~ 1e-16 at h = 1e-4).  The
    extrapolation eliminates the kernel-specific error-exponent ladder,
    see _error_exponents.
    """
    h0 = 0.1 * kernel.fd_scale
    steps = [h0 / 2**j for j in range(5)]
    p_odd = kernel._odd_taylor_power()

    def neville(vals, exponents):
        for p in exponents:
            fac = 2.0**p
            vals = [(fac * vals[i + 1] - vals[i]) / (fac - 1.0)
                    for i in range(len(vals) - 1)]
        return vals[0]

    d2 = neville([(2.0 * kernel.r(h) - 2.0) / h**2 for h in steps],
                 _error_exponents(p_odd, 2))
    d4 = neville([(2.0 * kernel.r(2 * h) - 8.0 * kernel.r(h) + 6.0) / h**4
                  for h in steps],
                 _error_exponents(p_odd, 4))
    return {"r2": d2, "r4": d4}


# --------------------------------------------------------------------------
# parsing


_FAMILIES = {
    "sqexp": (SquaredExponential, {"ell": 1.0}),
    "matern": (Matern, {"nu": None, "ell": 1.0}),
    "maternhi": (MaternHalfInteger, {"m": None, "ell": 1.0}),
    "gammaexp": (GammaExponential, {"gamma": None, "ell": 1.0}),
    "rq": (RationalQuadratic, {"alpha": None, "ell": 1.0}),
    "wendland": (Wendland, {"k": None}),
    "cosine": (Cosine, {"ell": 1.0}),
    "periodic": (Periodic, {"T": 1.0, "ell": 1.0}),
}

_ALIASES = {
    "squaredexponential": "sqexp",
    "rationalquadratic": "rq",
    "matern12": ("maternhi", {"m": 0}),
    "matern32": ("maternhi", {"m": 1}),
    "matern52": ("maternhi", {"m": 2}),
}

_INT_PARAMS = {"m", "k"}


def parse_kernel(text: str) -> Kernel:
    """Parse ``family:param=value,param=value`` into a kernel instance.

    Raises DomainError on unknown families or parameters, malformed or
    non-finite numbers, and parameter values outside the family's domain.
    """
    if not isinstance(text, str) or not text.strip():
        raise DomainError("empty kernel specification")
    fam, _, rest = text.strip().partition(":")
    fam = fam.strip().lower()
    forced = {}
    if fam in _ALIASES:
        target = _ALIASES[fam]
        if isinstance(target, tuple):
            fam, forced = target
        else:
            fam = target
    if fam not in _FAMILIES:
        raise DomainError(f"unknown kernel family {fam!r}")
    cls, defaults = _FAMILIES[fam]
    params = dict(defaults)
    params.update(forced)
    if rest.strip():
        for item in rest.split(","):
            key, sep, val = item.partition("=")
            key = key.strip()
            if key == "period":
                key = "T"
            if not sep or key not in defaults:
                raise DomainError(
                    f"bad parameter {item!r} for family {fam!r}")
            if key in forced:
                raise DomainError(
                    f"parameter {key!r} is fixed by the alias")
            try:
                num = float(val)
            except ValueError:
                raise DomainError(f"bad numeric value in {item!r}") from None
            if not math.isfinite(num):
                raise DomainError(f"non-finite value in {item!r}")
            if key in _INT_PARAMS:
                if num != int(num):
                    raise DomainError(f"{key} must be an integer, got {val}")
                num = int(num)
            params[key] = num
    missing = [k for k, v in params.items() if v is None]
    if missing:
        raise DomainError(
            f"family {fam!r} requires parameter(s) {', '.join(missing)}")
    if "m" in params:
        params["m"] = int(params["m"])
    if "k" in params:
        params["k"] = int(params["k"])
    return cls(**params)
