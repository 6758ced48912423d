"""Tests for the covariance-kernel catalog.

Derivative values at the origin are checked two ways: against exact
closed-form constants derived by hand (and, for the compactly supported
polynomial family, exact rational arithmetic), and against a
Richardson-extrapolated finite-difference oracle that knows nothing about
the closed forms.  The closed-form spectral densities that rational
quadratic and Wendland sample for their grid b are pinned by explicit
anchors and by the normalization int F' = r(0) = 1.  Moving-average kernels
are checked through int b^2 = 1 and through reconstruction of r by direct
quadrature of the defining identity r(t) = int b(t+s) b(s) ds.
"""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import dblquad, quad
from scipy.special import kv

from gpchaos import verify
from gpchaos.errors import (
    DomainError,
    NoBRepresentation,
    NotDifferentiable,
)
from gpchaos.kernels import (
    Cosine,
    GammaExponential,
    Matern,
    Periodic,
    RationalQuadratic,
    SquaredExponential,
    Wendland,
    _grid_payload,
    _wendland_phi,
    _wendland_step,
    b_representation,
    fd_derivatives_at_zero,
    parse_kernel,
    r_derivatives_at_zero,
    reconstruct_r,
    wendland_poly,
)
from gpchaos.specfun import bessel_zk


def _spec(text):
    """The kernel that ``text`` names, as a test parameter with ``text`` for id."""
    return pytest.param(parse_kernel(text), id=text)


def _half_integer_matern(m, ell, t, derivative=0):
    """The ``derivative``-th t-derivative of the Matern covariance at nu = m +
    1/2 from its closed form e^-z m!/(2m)! sum_i (m+i)!/(i!(m-i)!)
    (2z)^(m-i), z = sqrt(2m+1) t/ell, t >= 0, in mpmath at 40 digits:
    (d/dz)^n (e^-z p) = e^-z sum_k C(n, k) (-1)^(n-k) p^(k)."""
    coeffs = [Fraction(math.factorial(m) * math.factorial(2 * m - k) * 2**k,  # of z^k in p, i = m - k
                       math.factorial(2 * m) * math.factorial(m - k) * math.factorial(k))
              for k in range(m + 1)]
    with mpmath.workdps(40):
        g = mpmath.sqrt(2 * m + 1) / mpmath.mpf(ell)

        def value(x):
            z = g * mpmath.mpf(x)
            total = 0
            for k in range(derivative + 1):
                p_k = sum(mpmath.mpf(a.numerator) / a.denominator * math.perm(j, k) * z ** (j - k)
                          for j, a in enumerate(coeffs) if j >= k)
                total += math.comb(derivative, k) * (-1) ** (derivative - k) * p_k
            return float(g**derivative * mpmath.exp(-z) * total)

        return np.array([value(x) for x in np.atleast_1d(t)])


# Shared catalog for invariant sweeps; chosen to hit every family and both
# closed-form and sampled-grid code paths.
CATALOG = [
    SquaredExponential(1.0),
    SquaredExponential(0.7),
    Matern(2.5, 1.3),
    _spec("maternhi:ell=1,m=0"),
    _spec("maternhi:ell=1,m=1"),
    _spec("maternhi:ell=1.3,m=2"),
    GammaExponential(1.5, 1.0),
    _spec("gammaexp:ell=0.8,gamma=1"),
    RationalQuadratic(2.0, 1.0),
    Wendland(4),
    Cosine(1.0),
    Periodic(2.0, 0.8),
]


class TestCovarianceValues:
    def test_sqexp_anchor(self):
        k = SquaredExponential(1.0)
        assert k.r(0.0) == 1.0
        assert_allclose(k.r(1.0), math.exp(-1.0), rtol=1e-15)
        assert_allclose(k.r(0.5), math.exp(-0.25), rtol=1e-15)

    def test_exponential_anchor(self):
        # nu = 1/2 degenerates to exp(-|t|/ell)
        k = parse_kernel("matern12:ell=2")
        t = np.linspace(0.0, 5.0, 11)
        assert_allclose(k.r(t), np.exp(-t / 2.0), rtol=1e-13)

    def test_rq_anchor(self):
        k = RationalQuadratic(2.0, 1.0)
        assert_allclose(k.r(1.0), (1.0 + 0.25) ** -2.0, rtol=1e-15)

    def test_cosine_anchor(self):
        k = Cosine(1.0)
        assert_allclose(k.r(1.0), -1.0, rtol=1e-15)
        assert_allclose(k.r(0.5), 0.0, atol=1e-15)

    def test_periodic_is_periodic(self):
        k = Periodic(2.0, 0.8)
        t = np.linspace(0.0, 1.0, 7)
        assert_allclose(k.r(t + 2.0), k.r(t), rtol=1e-12, atol=1e-12)
        assert k.r(0.0) == 1.0

    def test_gammaexp_two_is_squared_exponential(self):
        ge = parse_kernel("gammaexp:gamma=2,ell=1.2")
        t = np.linspace(0.0, 4.0, 17)
        assert ge == SquaredExponential(1.2)
        assert_allclose(ge.r(t), np.exp(-((t / 1.2) ** 2)), rtol=1e-14)

    def test_matern_routes_agree(self):
        # the Bessel-function route vs the exponential-polynomial closed form
        # at nu = 3/2, 5/2
        for m, ell in [(1, 1.0), (2, 1.3)]:
            ge = Matern(m + 0.5, ell)
            t = np.linspace(0.01, 5.0, 40)
            assert_allclose(ge.r(t), _half_integer_matern(m, ell, t), rtol=1e-12)
            assert_allclose(ge.r_prime(t), _half_integer_matern(m, ell, t, 1),
                            rtol=1e-11, atol=1e-13)
            assert_allclose(ge.r_second(t), _half_integer_matern(m, ell, t, 2),
                            rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("t", [1e-300, 1e-12, 1e-3, 0.5])
    def test_matern_routes_agree_at_small_lags(self, t):
        # z^nu K_nu(z) overflows below these lags at nu = 20.5; the Bessel
        # route switches to its even series there
        ge = Matern(20.5)
        for order, name in enumerate(("r", "r_prime", "r_second")):
            assert_allclose(getattr(ge, name)(t), _half_integer_matern(20, 1.0, t, order)[0],
                            rtol=0, atol=1e-13)

    @pytest.mark.parametrize("nu", [1.5, 35.0, 100.0, 205.79])
    def test_matern_finite_at_small_lags_and_large_nu(self, nu):
        k = Matern(nu)
        t = np.array([1e-300, 1e-12, 1e-3, 0.3, 3.0])
        values = [k.r(t), k.r_prime(t), k.r_second(t)]
        assert all(np.isfinite(v).all() for v in values)
        assert_allclose(values[2][0], k.r2_zero(), rtol=1e-13)
        assert np.all(np.diff(values[0]) <= 0) and values[0][0] == 1.0

    def test_matern_at_the_largest_order_matches_mpmath(self):
        # the log scales of z^nu K_nu and of 2^(1-nu)/Gamma(nu) reach ~6,000
        # and cancel; measured 1.7e-12 relative down to r = 1.8e-8
        t = np.linspace(0.05, 6.0, 41)
        nu = mpmath.mpf(1000)
        g = mpmath.sqrt(2 * nu)
        ref = [2 ** (1 - nu) / mpmath.gamma(nu) * (g * x) ** nu * mpmath.besselk(nu, g * x)
               for x in map(mpmath.mpf, t)]
        assert_allclose(Matern(1000.0).r(t), np.array(ref, dtype=float), rtol=5e-12)

    def test_exponential_matern_second_derivative_at_tiny_lags(self):
        # r = e^-t at nu = 1/2, so r'' = e^-t; the form z^nu K_(nu-2) -
        # z^(nu-1) K_(nu-1) cancels there and gave about 1e16 at t = 1e-30
        t = np.array([1e-30, 1e-12, 1e-8, 1e-3, 0.5])
        assert_allclose(Matern(0.5).r_second(t), np.exp(-t), rtol=1e-15)
        assert_allclose(Matern(0.5).r_second(1e-30), 1.0, rtol=1e-15)

    @pytest.mark.parametrize("nu", [1.5, 2.5, 4.5])
    def test_matern_second_derivative_matches_the_k_nu_minus_2_form(self, nu):
        # r'' = g^2 P (z^nu K_(nu-2) - z^(nu-1) K_(nu-1)), z = g t, from the
        # ladder at nu - 2; r'' crosses zero, hence the absolute floor
        g, t = math.sqrt(2.0 * nu), np.geomspace(1e-3, 5.0, 200)
        z, log_p = g * t, (1.0 - nu) * math.log(2.0) - math.lgamma(nu)
        (y2, s2), (y1, s1) = bessel_zk(nu - 2.0, z, 2)
        old = g * g * (np.exp(log_p + s2 + 2.0 * np.log(z)) * y2 - np.exp(log_p + s1) * y1)
        assert_allclose(Matern(nu).r_second(t), old, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("k", [4, 12, 20])
    def test_wendland_matches_exact_rationals(self, k):
        kernel, ts = Wendland(k), np.linspace(0.0, 1.0, 101)
        coeffs = list(kernel._coeffs)
        for name in ("r", "r_prime", "r_second"):
            exact = np.array([float(sum(a * Fraction(t) ** i for i, a in enumerate(coeffs)))
                              for t in ts])
            scale = max(1.0, np.abs(exact).max())
            assert_allclose(getattr(kernel, name)(ts), exact, rtol=0, atol=1e-14 * scale)
            coeffs = [i * a for i, a in enumerate(coeffs)][1:]

    def test_wendland_compact_support(self):
        k = Wendland(4)
        assert k.r(0.0) == 1.0
        assert_allclose(k.r(1.0), 0.0, atol=1e-12)
        assert k.r(1.5) == 0.0
        assert k.r(7.0) == 0.0

    def test_wendland_edge_of_support_is_exact_zero_without_warnings(self):
        k = Wendland(4)
        with np.errstate(all="raise"):
            for t in (-1.0, 1.0):
                assert k.r(t) == 0.0 and k.r_prime(t) == 0.0 and k.r_second(t) == 0.0

    @pytest.mark.parametrize("k", CATALOG, ids=lambda k: k.spec_string())
    def test_symmetry(self, k):
        t = np.linspace(0.05, 2.0, 9)
        assert_allclose(k.r(-t), k.r(t), rtol=1e-14)
        assert_allclose(k.r_prime(-t), -k.r_prime(t), rtol=1e-13, atol=1e-15)
        assert_allclose(k.r_second(-t), k.r_second(t),
                        rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("k", [k for k in CATALOG if not isinstance(k, (Cosine, Periodic))]
                             + [_spec(s) for s in ("matern:nu=2.7", "matern:nu=1000",
                                                   "maternhi:m=3", "rq:alpha=0.5",
                                                   "gammaexp:gamma=0.5")],
                             ids=lambda k: k.spec_string())
    def test_decaying_covariance_vanishes_at_huge_lags(self, k):
        # r, r' and r'' tend to 0 from above, below and above; where they
        # underflow they read 0, never the NaN of inf * 0 or inf - inf.
        # cosine and periodic have no limit at inf.
        t = np.array([1e150, 1e300, math.inf])
        with np.errstate(all="ignore"):  # the lags' squares may overflow on the way
            r, r1, r2 = k.r(t), k.r_prime(t), k.r_second(t)
            assert_array_equal(k.r_prime(-t), -r1)
        assert np.isfinite([r, r1, r2]).all()
        assert (r >= 0).all() and (r1 <= 0).all() and (r2 >= 0).all()
        assert (np.abs([r, r1, r2]) <= 1e-149).all()
        assert_array_equal([r[-1], r1[-1], r2[-1]], 0.0)

    @pytest.mark.parametrize("alpha", [0.01, 0.5, 2.0])
    def test_rq_second_derivative_keeps_its_sign_at_huge_lags(self, alpha):
        # r'' = -u^(-a-1) + (a+1)/a t^2 u^(-a-2), u = 1 + t^2/(2a), in
        # mpmath: far out the second term's u^(-a-2) underflows in doubles
        # long before the first term's u^(-a-1), which flipped the sign
        k = RationalQuadratic(alpha, 1.0)
        t = np.geomspace(1e-3, 1e150, 60)
        a = mpmath.mpf(alpha)
        with mpmath.workdps(40):
            exact = []
            for s in t:
                u = 1 + mpmath.mpf(s) ** 2 / (2 * a)
                exact.append(float(-u ** (-a - 1) + (a + 1) / a * mpmath.mpf(s) ** 2
                                   * u ** (-a - 2)))
        got = k.r_second(t)
        assert_allclose(got, exact, rtol=1e-13, atol=1e-320)
        assert (got * np.array(exact) >= 0.0).all()

    @pytest.mark.parametrize("k", CATALOG, ids=lambda k: k.spec_string())
    def test_strict_maximum_at_zero(self, k):
        # strict on (0, half period] for the periodic families, (0, 3] else
        hi = k.T / 2.0 if isinstance(k, Periodic) else (
            k.ell**2 if isinstance(k, Cosine) else 3.0)
        t = np.linspace(0.0, hi, 200)[1:]
        assert np.all(k.r(t) < 1.0)

    def test_scalar_and_array_returns(self):
        k = SquaredExponential(1.0)
        assert isinstance(k.r(0.3), float)
        assert isinstance(k.r_prime(0.3), float)
        out = k.r(np.zeros((2, 3)))
        assert out.shape == (2, 3)
        assert isinstance(k.r(1.0), float)

    def test_r_prime_matches_difference_quotient(self):
        for k in (SquaredExponential(1.0), RationalQuadratic(2.0, 1.0),
                  Periodic(2.0, 0.8)):
            h = 1e-6
            for t in (0.4, 1.1):
                fd = (k.r(t + h) - k.r(t - h)) / (2.0 * h)
                assert_allclose(k.r_prime(t), fd, rtol=1e-8, atol=1e-10)
                fd2 = (k.r(t + h) - 2.0 * k.r(t) + k.r(t - h)) / h**2
                assert_allclose(k.r_second(t), fd2, rtol=1e-3)


class TestDerivativesAtZero:
    def test_sqexp(self):
        for ell in (1.0, 2.0, 0.7):
            d = r_derivatives_at_zero(SquaredExponential(ell))
            assert_allclose(d.r2, -2.0 / ell**2, rtol=1e-15)
            assert_allclose(d.r4, 12.0 / ell**4, rtol=1e-15)
            assert_allclose(d.discriminant, 8.0 / ell**4, rtol=1e-14)
            assert d.r2_available and d.r4_available

    def test_matern_five_half(self):
        d = r_derivatives_at_zero(parse_kernel("matern52"))
        assert_allclose(d.r2, -5.0 / 3.0, rtol=1e-15)
        assert_allclose(d.r4, 25.0, rtol=1e-15)
        assert_allclose(d.discriminant, 200.0 / 9.0, rtol=1e-14)

    def test_matern_general_formula(self):
        # -nu/((nu-1) ell^2) and 3 nu^2/((nu-1)(nu-2) ell^4)
        d = r_derivatives_at_zero(Matern(3.7, 1.1))
        assert_allclose(d.r2, -3.7 / (2.7 * 1.1**2), rtol=1e-14)
        assert_allclose(d.r4, 3.0 * 3.7**2 / (2.7 * 1.7 * 1.1**4),
                        rtol=1e-14)

    def test_matern_routes_agree_at_zero(self):
        # r = e^-z (1 + z + z^2/3) at nu = 5/2 is C^4 at 0, so the one-sided
        # derivatives of its closed form there are r''(0) and r''''(0)
        dg = r_derivatives_at_zero(Matern(2.5, 1.3))
        assert_allclose(dg.r2, _half_integer_matern(2, 1.3, 0.0, 2)[0], rtol=1e-14)
        assert_allclose(dg.r4, _half_integer_matern(2, 1.3, 0.0, 4)[0], rtol=1e-14)

    def test_matern_three_half_has_no_fourth(self):
        d = r_derivatives_at_zero(parse_kernel("matern32"))
        assert d.r2_available and not d.r4_available
        assert_allclose(d.r2, -3.0, rtol=1e-15)
        assert math.isnan(d.r4) and math.isnan(d.discriminant)

    def test_matern_one_half_has_no_second(self):
        d = r_derivatives_at_zero(parse_kernel("matern12"))
        assert not d.r2_available and not d.r4_available

    def test_rq(self):
        d = r_derivatives_at_zero(RationalQuadratic(2.0, 1.0))
        assert_allclose(d.r2, -1.0, rtol=1e-15)
        assert_allclose(d.r4, 4.5, rtol=1e-15)
        assert_allclose(d.discriminant, 3.5, rtol=1e-14)
        # the catalog keeps a diagnostic about the inconsistent printed
        # discriminant constant
        assert any("discriminant" in n for n in d.notes)

    def test_wendland_exact_rationals(self):
        d = r_derivatives_at_zero(Wendland(4))
        assert d.r2 == -156.0 / 7.0
        assert d.r4 == 10296.0 / 7.0
        assert_allclose(d.discriminant, 47736.0 / 49.0, rtol=1e-15)

    def test_wendland_k1_has_no_fourth(self):
        d = r_derivatives_at_zero(Wendland(1))
        assert d.r2_available and not d.r4_available

    def test_cosine_discriminant_is_exactly_zero(self):
        d = r_derivatives_at_zero(Cosine(1.0))
        assert_allclose(d.r2, -math.pi**2, rtol=1e-15)
        assert_allclose(d.r4, math.pi**4, rtol=1e-15)
        assert d.discriminant == 0.0

    def test_periodic_hand_expansion(self):
        # T = pi, ell = 1: exp(-sin^2 t) = 1 - t^2 + (5/6) t^4 + O(t^6),
        # so r''(0) = -2, r''''(0) = 20, discriminant 16.
        d = r_derivatives_at_zero(Periodic(math.pi, 1.0))
        assert_allclose(d.r2, -2.0, rtol=1e-15)
        assert_allclose(d.r4, 20.0, rtol=1e-15)
        assert_allclose(d.discriminant, 16.0, rtol=1e-14)

    def test_gammaexp_availability(self):
        assert not r_derivatives_at_zero(
            GammaExponential(1.5, 1.0)).r2_available
        d1 = r_derivatives_at_zero(parse_kernel("gammaexp:gamma=1"))
        assert not d1.r2_available
        assert d1.notes == ("|t|^1 term in the expansion at 0; no r''(0)",)
        assert d1.notes == r_derivatives_at_zero(Matern(0.5, 1.0)).notes
        d2 = r_derivatives_at_zero(parse_kernel("gammaexp:gamma=2"))
        assert_allclose((d2.r2, d2.r4), (-2.0, 12.0), rtol=1e-15)

    @pytest.mark.parametrize("k", CATALOG + [Matern(1.5), Matern(2.0), Wendland(1)],
                             ids=lambda k: k.spec_string())
    def test_availability_follows_the_taylor_exponent(self, k):
        # the second derivative at 0 exists iff p is None or p > 2, the fourth iff p > 4
        p = k._odd_taylor_power()
        d = r_derivatives_at_zero(k)
        assert d.r2_available == (p is None or p > 2)
        assert d.r4_available == (p is None or p > 4)
        assert math.isnan(d.discriminant) != d.r4_available
        assert "derivatives_at_zero" not in type(k).__dict__

    def test_strict_accessors_raise(self):
        with pytest.raises(NotDifferentiable):
            parse_kernel("matern12").r2_zero()
        with pytest.raises(NotDifferentiable):
            parse_kernel("matern32").r4_zero()
        with pytest.raises(NotDifferentiable):
            GammaExponential(1.5, 1.0).r2_zero()
        with pytest.raises(NotDifferentiable):
            Wendland(1).r4_zero()
        assert_allclose(parse_kernel("matern32").r2_zero(), -3.0,
                        rtol=1e-15)


class TestFiniteDifferenceOracle:
    """Extrapolated central differences vs the closed forms, rel 1e-6."""

    FULL = [
        SquaredExponential(1.0),
        SquaredExponential(2.0),
        _spec("maternhi:ell=1,m=2"),
        _spec("maternhi:ell=1.3,m=2"),
        Matern(2.5, 1.3),
        Matern(3.7, 1.1),
        Matern(4.5, 1.0),  # r rounds to a few ulp; in logarithms r4 was off 3.1e-6
        Matern(2.7, 1.0),
        Matern(3.0, 1.0),  # integer nu: a |t|^6 log|t| term, eliminated twice
        RationalQuadratic(2.0, 1.0),
        RationalQuadratic(1.5, 0.9),
        # large alpha: r must not round s^2 / (2 alpha ell^2) against 1
        RationalQuadratic(10.0, 1.0),
        RationalQuadratic(50.0, 1.0),
        RationalQuadratic(1000.0, 1.0),
        Wendland(4),
        Cosine(1.2),
        Periodic(math.pi, 1.0),
        _spec("gammaexp:ell=1.1,gamma=2"),
    ]

    @pytest.mark.parametrize("k", FULL, ids=lambda k: k.spec_string())
    def test_concordance(self, k):
        d = r_derivatives_at_zero(k)
        fd = fd_derivatives_at_zero(k)
        assert_allclose(fd["r2"], d.r2, rtol=1e-6)
        assert_allclose(fd["r4"], d.r4, rtol=1e-6)

    def test_second_derivative_only(self):
        k = parse_kernel("matern32")
        assert_allclose(fd_derivatives_at_zero(k)["r2"], -3.0, rtol=1e-6)
        # nu = 2: a |t|^4 log|t| term, eliminated twice
        k = Matern(2.0, 1.0)
        assert_allclose(fd_derivatives_at_zero(k)["r2"], -2.0, rtol=1e-6)


class TestOracleChecks:
    """The battery's finite-difference and reconstruction checks pass on
    correct kernels across each family's smoothness range, or skip where
    r''(0) or b does not exist."""

    SWEEP = ([Matern(nu, 1.0) for nu in (0.05, 0.1, 0.15, 0.3, 0.75, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0)]
             + [RationalQuadratic(alpha, 1.0) for alpha in (1.5, 2.0, 10.0, 50.0, 1000.0)]
             + [Wendland(k) for k in (1, 2, 3, 4)]
             + [GammaExponential(1.2), GammaExponential(1.9), SquaredExponential(1.0),
                Cosine(1.0), Periodic(1.0, 1.0)])

    def test_pass_or_skip(self):
        failed = []
        for k in self.SWEEP:
            for name, check in (("fd", lambda: verify.derivative_fd(k)),
                                ("reconstruction", lambda: verify.b_reconstruction(k, 13))):
                status = verify._run(name, check)
                if status["status"] == "fail":
                    failed.append((k.spec_string(), status))
        assert failed == []


class TestSpectralDensity:
    """The closed-form F' of lam >= 0 that a grid b build samples, and the
    kernels without one."""

    def test_rq_anchor_at_zero(self):
        # alpha = 2, ell = 1: closed value 1/2 at the origin
        assert_allclose(RationalQuadratic(2.0, 1.0)._spectral_abs(np.zeros(1)),
                        [0.5], rtol=1e-12)

    @pytest.mark.parametrize("k", [RationalQuadratic(2.0, 1.0)], ids=lambda k: k.spec_string())
    def test_total_mass_is_one(self, k):
        total = 2.0 * quad(lambda l: k._spectral_abs(np.array([l]))[0],
                           0.0, np.inf, limit=400)[0]
        assert_allclose(total, 1.0, rtol=1e-7)

    def test_wendland_mass_and_positivity(self):
        k = Wendland(4)
        lam = np.linspace(0.0, 120.0, 48001)
        vals = k._spectral_abs(lam)
        # tiny negative oscillation noise is tolerated, nothing structural
        assert vals.min() > -1e-12
        assert_allclose(2.0 * np.trapezoid(vals, lam), 1.0, atol=1e-8)

    def test_gammaexp_origin_gamma_integral(self):
        # F'(0) = (1/pi) int_0^inf exp(-t/ell) dt = ell/pi at gamma = 1, where
        # Matern(1/2) gives it; no density is sampled for its closed-form b,
        # so F'(0) is read as (int b)^2 / (2 pi), b >= 0 having int b = sqrt(2 pi F'(0))
        k1 = parse_kernel("gammaexp:gamma=1,ell=1.3")
        assert k1 == Matern(0.5, 1.3)
        b = b_representation(k1).b
        mass = 2.0 * (quad(b, 0.0, 1.3, limit=200)[0] + quad(b, 1.3, np.inf, limit=200)[0])
        assert_allclose(mass**2 / (2.0 * math.pi), 1.3 / math.pi, rtol=1e-12)

    def test_atomic_measures_rejected(self):
        # no density, so no moving-average kernel
        for kernel in (Cosine(1.0), Periodic(2.0, 0.8)):
            with pytest.raises(NoBRepresentation, match="not integrable"):
                b_representation(kernel)

    def test_rq_heavy_tail_rejected(self):
        # r is not integrable for alpha <= 1/2, so there is no F' to sample
        for alpha in (0.5, 0.3):
            with pytest.raises(NoBRepresentation, match="alpha <= 1/2"):
                RationalQuadratic(alpha, 1.0).b_representation()


def _gauss_legendre_density(kernel, lam):
    """Wendland's F' as computed up to 0.2.0: a Gauss-Legendre cosine sum
    on float coefficients, 128 nodes doubled up to 4096 as the largest
    |lam| grows."""
    flat = np.abs(np.atleast_1d(np.asarray(lam, dtype=float))).ravel()
    n_gl = 128
    while n_gl < min(4096, 10.0 * flat.max() / math.pi):
        n_gl *= 2
    nodes, weights = np.polynomial.legendre.leggauss(n_gl)
    nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights
    coeffs = np.array([float(c) for c in kernel._coeffs])
    rv = np.polynomial.polynomial.polyval(nodes, coeffs) * weights
    return np.cos(np.outer(flat, nodes)) @ rv / math.pi


def _exact_cosine_integral(coeffs, lam: int) -> Fraction:
    """int_0^1 p(t) cos(lam t) dt for an integer lam, by summing the Taylor
    series sum_m (-1)^m lam^2m / (2m)! int_0^1 p(t) t^2m dt exactly.

    p >= 0 on [0, 1], so the moments decrease; once 2m > lam the terms
    alternate with decreasing size and the first omitted one bounds the
    error, here below 1e-80.
    """
    total, scale, m = Fraction(0), Fraction(1), 0
    while True:
        term = scale * sum(c / (j + 2 * m + 1) for j, c in enumerate(coeffs))
        if 2 * m > lam and term < Fraction(1, 10**80):
            return total
        total += -term if m % 2 else term
        m += 1
        scale *= Fraction(lam * lam, (2 * m - 1) * (2 * m))


class TestWendlandSpectralDensity:
    """The closed-form density against the Gauss-Legendre sum it replaced
    and against an exact series."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_gauss_legendre_sum(self, k):
        kernel = Wendland(k)
        seam = kernel._spectral_tables[0]
        lam = np.concatenate([
            np.linspace(0.0, 60.0, 2401),
            [np.nextafter(seam, 0.0), seam, np.nextafter(seam, np.inf)],
        ])
        assert 0.0 < seam < 60.0
        got = kernel._spectral_abs(lam)
        # the old sum's float coefficients leave up to 9e-14 of rounding noise (k = 6)
        assert_allclose(got, _gauss_legendre_density(kernel, lam), rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_exact_series_at_large_lambda(self, k):
        kernel = Wendland(k)
        for lam in (20, 100, 1000):
            exact = float(_exact_cosine_integral(kernel._coeffs, lam)) / math.pi
            assert exact > 0.0
            assert_allclose(kernel._spectral_abs(np.array([float(lam)])), [exact], rtol=1e-10)


def wendland_moment(n, k):
    """B(2n, k+2) / (2^{n-1} (n-1)!) as an exact rational."""
    return Fraction(
        math.factorial(2 * n - 1) * math.factorial(k + 1),
        math.factorial(2 * n + k + 1)
    ) / (2 ** (n - 1) * math.factorial(n - 1))


class TestWendlandPolynomials:
    def test_repeated_integral_moment_identity(self):
        # n-fold application of psi -> int_t^1 s psi(s) ds to (1-t)^{k+1},
        # evaluated at 0, equals B(2n, k+2) / (2^{n-1} (n-1)!).  Both sides
        # are exact rationals.
        for k in range(0, 9):
            c = _wendland_phi(k + 1)
            for n in range(1, 6):
                c = _wendland_step(c)
                assert c[0] == wendland_moment(n, k), (n, k)

    def test_double_integral_numeric_spot_check(self):
        # (n, k) = (2, 3) by nested quadrature of the defining operator
        val, _ = dblquad(lambda s, u: u * s * (1.0 - s) ** 4,
                         0.0, 1.0, lambda u: u, 1.0)
        c = _wendland_step(_wendland_step(_wendland_phi(4)))
        assert_allclose(float(c[0]), val, rtol=1e-10)

    def test_poly_value_at_zero_consistency(self):
        for k in (1, 2, 3, 4):
            assert wendland_poly(k)[0] == wendland_moment(k, k)

    def test_poly_vanishes_at_one(self):
        for k in (1, 2, 3, 4):
            assert sum(wendland_poly(k)) == 0


def _clipped_notes(f_vals, dx):
    """The clipping note of a sampled spectrum over all n signed frequencies."""
    neg = f_vals < 0
    if not neg.any():
        return []
    mass = -f_vals[neg].sum() * (2.0 * math.pi / (f_vals.size * dx))
    return [f"clipped negative spectral noise, mass {mass:.2e}"]


def _full_spectrum_grid_b(kernel, n, dx):
    """Reference grid b: sqrt(2 pi F') at all n signed frequencies through
    two complex inverse FFTs, F' from the closed form or, for gammaexp, from
    a complex FFT of the full covariance row r(min(t, L - t)).  Returns b and
    b' at x = 0, dx, ..., n dx / 2 and the notes the transforms produce: the
    tail bound where F' at the Nyquist frequency is above 1e-16 F'(0), and
    the clipped mass."""
    lam = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)
    if isinstance(kernel, GammaExponential):
        t = np.arange(n) * dx
        f_vals = np.fft.fft(kernel.r(np.minimum(t, n * dx - t))).real * dx / (2.0 * math.pi)
        notes = [f"spectral density sampled by FFT of r on [0, {n * dx:g})"]
    else:
        f_vals = kernel._spectral_abs(np.abs(lam))
        notes = []
    lam_max = math.pi / dx
    if f_vals[n // 2] > 1e-16 * f_vals[0]:
        notes.append(f"square-root spectral tail beyond {lam_max:.3g} contributes at most "
                     f"~{math.sqrt(f_vals[n // 2]) * lam_max:.2e} near the origin")
    notes += _clipped_notes(f_vals, dx)
    g = np.sqrt(2.0 * math.pi * np.clip(f_vals, 0.0, None))
    b = np.fft.ifft(g).real[:n // 2 + 1] / dx
    bp = np.fft.ifft(1j * lam * g).real[:n // 2 + 1] / dx
    return b, bp, notes


def _half_line_spectrum(kernel, n, dx):
    """F' at the n/2 + 1 non-negative frequencies of an n-point grid of step
    dx: from the density, or, for gammaexp, from a real FFT of the mirrored
    covariance row, as the grid build samples it."""
    if isinstance(kernel, GammaExponential):
        half = kernel.r(np.arange(n // 2 + 1) * dx)
        row = np.concatenate([half, half[-2:0:-1]])
        return np.fft.rfft(row).real * dx / (2.0 * math.pi)
    return kernel._spectral_abs(2.0 * math.pi * np.fft.rfftfreq(n, d=dx))


class TestBRepresentation:
    def test_sqexp_closed_form(self):
        rep = b_representation(SquaredExponential(1.3))
        amp = math.sqrt(2.0 / (math.sqrt(math.pi) * 1.3))
        assert rep.grid is None
        assert_allclose(rep.b(0.0), amp, rtol=1e-14)
        assert_allclose(rep.b(0.4) / rep.b(0.0),
                        math.exp(-2.0 * 0.16 / 1.69), rtol=1e-13)
        assert rep.b_singularity is None and rep.bprime_singularity is None
        assert rep.tail[0] == "gauss"
        assert_allclose(rep.tail[1], 2.0 / 1.69, rtol=1e-15)

    def test_exponential_b_is_bessel_k0(self):
        rep = b_representation(parse_kernel("matern12"))
        assert rep.b_singularity == "log"
        assert rep.bprime_singularity == -1.0
        assert_allclose(rep.b(0.3) / rep.b(0.7), kv(0, 0.3) / kv(0, 0.7),
                        rtol=1e-12)
        assert rep.b(0.0) == np.inf

    def test_matern_three_half_b_is_pure_exponential(self):
        # q = 1/2: z^q K_q(z) is proportional to e^{-z}
        rep = b_representation(parse_kernel("matern32"))
        gam = math.sqrt(3.0)
        assert_allclose(rep.b(1.4) / rep.b(0.4), math.exp(-gam), rtol=1e-12)
        assert rep.b_singularity is None
        assert np.isfinite(rep.b(0.0))

    def test_b_evenness_and_bprime_oddness(self):
        for k in (SquaredExponential(1.0), parse_kernel("matern52")):
            rep = b_representation(k)
            x = np.linspace(0.1, 2.0, 7)
            assert_allclose(rep.b(-x), rep.b(x), rtol=1e-13)
            assert_allclose(rep.b_prime(-x), -rep.b_prime(x), rtol=1e-13)

    @pytest.mark.parametrize("k", [
        SquaredExponential(1.3),
        _spec("maternhi:ell=1,m=0"),
        _spec("maternhi:ell=1,m=1"),
        _spec("maternhi:ell=1,m=2"),
        Matern(2.5, 1.0),
        _spec("gammaexp:ell=1,gamma=1"),
    ], ids=lambda k: k.spec_string())
    def test_unit_l2_norm_closed(self, k):
        rep = b_representation(k)
        total = 2.0 * quad(lambda x: rep.b(x) ** 2, 0.0, np.inf,
                           limit=200)[0]
        assert_allclose(total, 1.0, rtol=1e-8)

    @pytest.mark.parametrize("k", [
        RationalQuadratic(2.0, 1.0),
        Wendland(4),
        GammaExponential(1.5, 1.0),
    ], ids=lambda k: k.spec_string())
    def test_unit_l2_norm_grid(self, k):
        rep = b_representation(k)
        x, b_vals, _, _ = rep.grid
        assert_allclose(2.0 * np.trapezoid(b_vals**2, x), 1.0, rtol=1e-6)

    @pytest.mark.parametrize("k", [
        SquaredExponential(1.0),
        _spec("maternhi:ell=1,m=0"),
        _spec("maternhi:ell=1,m=1"),
        _spec("maternhi:ell=1,m=2"),
        _spec("maternhi:ell=1,m=3"),
        Matern(2.5, 1.0),
        RationalQuadratic(2.0, 1.0),
        Wendland(4),
        GammaExponential(1.5, 1.0),
        # nu < 1/2: b^2 ~ x^(2 nu - 1) at 0, which sets the endpoint map
        *(Matern(nu, 1.0) for nu in (0.05, 0.1, 0.15, 0.2, 0.3, 0.45)),
    ], ids=lambda k: k.spec_string())
    def test_reconstruction(self, k):
        t = np.linspace(0.0, 3.0 * k.length_scale, 13)
        if b_representation(k).grid is None:  # a closed form, integrated to round-off
            assert_allclose(reconstruct_r(k, t), k.r(t), rtol=0.0, atol=1e-12)
        else:  # a grid b is only as good as its sampled spectrum
            assert_allclose(reconstruct_r(k, t), k.r(t), atol=1e-5)

    def test_reconstruction_anchors(self):
        assert_allclose(reconstruct_r(SquaredExponential(1.0), 1.0),
                        math.exp(-1.0), atol=1e-7)
        assert_allclose(reconstruct_r(parse_kernel("matern52"), 0.5),
                        parse_kernel("matern52").r(0.5), atol=1e-4)

    def test_reconstruction_beyond_grid_window(self):
        # the rq grid tabulates b on [0, 327.68], half its FFT period
        with pytest.raises(DomainError):
            reconstruct_r(RationalQuadratic(2.0, 1.0), 400.0)

    def test_grid_b_out_of_double_range_is_no_representation(self):
        # a length scale near the bottom of the double range puts the
        # sampled b above its top
        with pytest.raises(NoBRepresentation, match="not finite"):
            b_representation(RationalQuadratic(1.0, 3.6e-274))

    @pytest.mark.parametrize("k,tol_b,tol_bp", [
        (RationalQuadratic(2.0, 1.0), 2e-15, 2e-15),
        (Wendland(4), 2e-15, 2e-15),
        # rounding in gammaexp's flat spectral tail, amplified by the square
        # root and by lam in b'
        (GammaExponential(1.5, 1.0), 1e-10, 5e-9),
    ], ids=["rq", "wendland", "gammaexp"])
    def test_half_line_build_matches_full_spectrum(self, k, tol_b, tol_bp):
        rep = k.b_representation()
        x, b_vals, bp_vals, dx = rep.grid
        n = 2 * (x.size - 1)
        assert_allclose(x, np.arange(x.size) * dx, rtol=0.0, atol=0.0)
        ref_b, ref_bp, ref_notes = _full_spectrum_grid_b(k, n, dx)
        assert np.abs(b_vals - ref_b).max() <= tol_b * np.abs(ref_b).max()
        assert np.abs(bp_vals - ref_bp).max() <= tol_bp * np.abs(ref_bp).max()
        # gammaexp also notes its cusp, which no transform decides
        assert [note for note in rep.notes if "cusp" not in note] == ref_notes

    def test_clipped_noise_mass_counts_the_full_spectrum(self):
        # negative bins at 0, in the interior and at Nyquist: the half line
        # holds each interior bin once, the full spectrum twice
        n, dx = 32, 0.25
        lam = 2.0 * math.pi * np.fft.rfftfreq(n, d=dx)
        f_half = np.exp(-0.1 * lam**2)
        f_half[[0, 5, 9, n // 2]] = [-1.25e-3, -3.5e-4, -2.0e-3, -7.5e-4]
        full = np.concatenate([f_half, f_half[-2:0:-1]])
        rep = _grid_payload(f_half, dx, None)
        assert list(rep.notes) == _clipped_notes(full, dx)
        assert rep.notes == ("clipped negative spectral noise, mass 5.26e-03",)
        assert np.all(np.isfinite(rep.grid[1])) and np.all(np.isfinite(rep.grid[2]))

    def test_gammaexp_grid_build_peak_memory(self):
        # the one-transform build of a 2^20-point grid peaks near 16 MiB, at
        # its complex spectrum and the inverse transform's output; two inverse
        # transforms with full-length temporaries peaked near 36 MiB, and the
        # full complex construction before them near 81 MiB
        kernel = GammaExponential(1.5, 1.0)
        tracemalloc.start()
        try:
            kernel.b_representation()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2**20

    @pytest.mark.parametrize("k", [
        RationalQuadratic(2.0, 1.0),
        Wendland(4),
        GammaExponential(1.5, 1.0),
    ], ids=["rq", "wendland", "gammaexp"])
    def test_grid_b_is_the_even_part_of_one_transform(self, k):
        # s = irfft(g + i lam g) holds b + b' over the period; b is its even
        # part and b' its odd part, and b' is exactly 0 at lags 0 and n/2
        x, b_vals, bp_vals, dx = k.b_representation().grid
        n = 2 * (x.size - 1)
        assert bp_vals[0] == 0.0 and bp_vals[-1] == 0.0
        lam = 2.0 * math.pi * np.fft.rfftfreq(n, d=dx)
        g = np.sqrt(2.0 * math.pi * np.clip(_half_line_spectrum(k, n, dx), 0.0, None))
        s = np.fft.irfft(g + 1j * lam * g, n) / dx
        mirror = s[-np.arange(x.size) % n]
        even, odd = (s[:x.size] + mirror) / 2.0, (s[:x.size] - mirror) / 2.0
        assert np.abs(b_vals - even).max() <= 1e-15 * np.abs(even).max()
        assert np.abs(bp_vals - odd).max() <= 1e-15 * np.abs(odd).max()

    def test_grid_payload_takes_the_spectrum_in_a_complex_real_part(self):
        # the imaginary part of a complex spectrum is never read: it gives
        # the notes, b and b' of its real part passed alone
        n, dx = 32, 0.25
        f_half = np.exp(-0.1 * (2.0 * math.pi * np.fft.rfftfreq(n, d=dx)) ** 2)
        f_half[[0, 5]] = [-1.25e-3, -3.5e-4]
        spec = f_half + 1j * np.linspace(-1.0, 1.0, f_half.size)
        from_real = _grid_payload(f_half.copy(), dx, None)
        from_complex = _grid_payload(spec, dx, None)
        assert from_complex.notes == from_real.notes
        for got, want in zip(from_complex.grid, from_real.grid):
            assert_array_equal(got, want)

    @pytest.mark.parametrize("text,bound", [("wendland:k=1", 3.81e-3), ("gammaexp:gamma=1.5", 5.40e-2)])
    def test_tail_above_1e16_of_the_peak_is_noted(self, text, bound):
        # F'(lam_max) > 1e-16 F'(0): sqrt(F'(lam_max)) lam_max is the
        # truncation error, and one note, the last, quotes it
        rep = parse_kernel(text).b_representation()
        lam_max = math.pi / rep.grid[3]
        assert f"{rep.truncation_error:.2e}" == f"{bound:.2e}"
        assert rep.notes[-1] == (f"square-root spectral tail beyond {lam_max:.3g} "
                                 f"contributes at most ~{bound:.2e} near the origin")
        assert sum("spectral tail" in note for note in rep.notes) == 1

    def test_tail_bound_reads_the_closed_form_at_nyquist(self):
        kernel = Wendland(1)
        lam_max = math.pi / b_representation(kernel).grid[3]
        top = kernel._spectral_abs(np.array([lam_max]))[0]
        assert_allclose(b_representation(kernel).truncation_error, math.sqrt(top) * lam_max,
                        rtol=1e-12)

    @pytest.mark.parametrize("text", ["rq:alpha=2", "wendland:k=4"])
    def test_tail_below_1e16_of_the_peak_is_not_noted(self, text):
        rep = parse_kernel(text).b_representation()
        assert rep.truncation_error == 0.0
        assert not any("tail" in note for note in rep.notes)

    def test_negative_last_bin_never_reaches_the_square_root(self):
        # rounding can leave the last bin tiny and negative; over a negative
        # first bin, 1e-16 F'(0) is below it, and only max(F'(lam_max), 0)
        # keeps it from sqrt
        n, dx = 32, 0.25
        f_half = np.exp(-0.1 * (2.0 * math.pi * np.fft.rfftfreq(n, d=dx)) ** 2)
        f_half[[0, -1]] = [-1.25e-3, -1e-20]
        rep = _grid_payload(f_half, dx, None)
        assert rep.truncation_error == 0.0
        assert rep.notes == ("clipped negative spectral noise, mass 9.82e-04",)
        assert np.all(np.isfinite(rep.grid[1])) and np.all(np.isfinite(rep.grid[2]))

    def test_gammaexp_cusp_metadata(self):
        rep = b_representation(GammaExponential(1.5, 1.0))
        assert rep.grid is not None
        assert_allclose(rep.bprime_singularity, -0.75, rtol=1e-15)
        assert any("cusp" in n for n in rep.notes)
        assert rep.truncation_error > 0.0

    def test_gammaexp_one_is_l2_limit(self):
        rep = b_representation(parse_kernel("gammaexp:gamma=1"))
        assert rep.b_singularity == "log"
        assert any("L2 limit" in n for n in rep.notes)

    def test_l2_limit_note_is_every_rough_matern(self):
        # sqrt(F') falls like |lam|^-(nu + 1/2): integrable iff nu > 1/2
        for nu in (0.2, 0.5, 0.51, 1.5):
            notes = b_representation(Matern(nu, 1.0)).notes
            assert any("L2 limit" in n for n in notes) == (nu <= 0.5)

    def test_no_b_for_nonintegrable_and_heavy_tails(self):
        # cosine and periodic: TestSpectralDensity.test_atomic_measures_rejected
        with pytest.raises(NoBRepresentation):
            b_representation(GammaExponential(0.8, 1.0))

    def test_b_kernel_helper(self):
        amp = math.sqrt(2.0 / math.sqrt(math.pi))
        assert_allclose(b_representation(SquaredExponential(1.0)).b(0.0), amp,
                        rtol=1e-14)


class TestParseKernel:
    @pytest.mark.parametrize("text,expected", [
        ("sqexp", SquaredExponential(1.0)),
        ("sqexp:ell=2", SquaredExponential(2.0)),
        ("squaredexponential:ell=0.5", SquaredExponential(0.5)),
        ("matern:nu=2.5,ell=1.3", Matern(2.5, 1.3)),
        ("matern12", Matern(0.5, 1.0)),
        ("matern32:ell=0.7", Matern(1.5, 0.7)),
        ("matern52:ell=2", Matern(2.5, 2.0)),
        ("maternhi:m=3", Matern(3.5, 1.0)),
        ("gammaexp:gamma=1.5", GammaExponential(1.5, 1.0)),
        ("rq:alpha=2", RationalQuadratic(2.0, 1.0)),
        ("rationalquadratic:alpha=1.5,ell=2", RationalQuadratic(1.5, 2.0)),
        ("wendland:k=4", Wendland(4)),
        ("cosine", Cosine(1.0)),
        ("periodic:T=2,ell=0.5", Periodic(2.0, 0.5)),
        ("periodic:period=3", Periodic(3.0, 1.0)),
        (" SQEXP : ell=1 ", SquaredExponential(1.0)),
        ("maternhi:m=3,ell=2", Matern(3.5, 2.0)),
        ("matern52", parse_kernel("matern:nu=2.5")),
        ("gammaexp:gamma=1", Matern(0.5, 1.0)),
        ("gammaexp:gamma=1,ell=0.8", parse_kernel("matern:nu=0.5,ell=0.8")),
        ("gammaexp:gamma=2", SquaredExponential(1.0)),
        ("gammaexp:gamma=2,ell=1.2", parse_kernel("sqexp:ell=1.2")),
    ])
    def test_grammar(self, text, expected):
        assert parse_kernel(text) == expected

    @pytest.mark.parametrize("k", CATALOG + [_spec("sqexp:ell=0.123456789"),
                                             _spec("rq:alpha=2.0000001")],
                             ids=lambda k: k.spec_string())
    def test_spec_string_round_trip(self, k):
        assert parse_kernel(k.spec_string()) == k

    @pytest.mark.parametrize("bad", [
        "",
        "nope:ell=1",
        "sqexp:zz=1",
        "sqexp:ell",
        "matern:ell=1",          # required nu missing
        "maternhi",              # required m missing
        "wendland:k=2.5",        # non-integer shape
        "matern52:m=3",          # alias fixes m
        "matern52:nu=3",         # the alias takes ell alone
        "maternhi:m=21",         # whole orders stop at 20
        "maternhi:m=2.5",        # m is a whole number
        "sqexp:ell=-1",
        "sqexp:ell=abc",
        "rq:alpha=0,ell=1",
        "gammaexp:gamma=2.5",
        "gammaexp:gamma=0",
        "gammaexp:gamma=-1",
        "gammaexp:gamma=nan",
        "gammaexp:gamma=1,ell=0",
        "gammaexp:gamma=2,ell=-1",
        "matern:nu=1.5,nu=2.5",   # repeated parameter
        "periodic:T=2,period=3",  # period names T
        "sqexp:ell=1,ell=1",
        "matern:nu=1000.5",      # Bessel orders stop at 1000
        "rq:alpha=1e300",
    ])
    def test_rejects(self, bad):
        with pytest.raises(DomainError):
            parse_kernel(bad)

    @pytest.mark.parametrize("k", CATALOG, ids=lambda k: k.spec_string())
    def test_parameters_are_the_dataclass_fields(self, k):
        # leaving one parameter out takes the field's default, or names it
        # when the field has none
        for left_out in dataclasses.fields(k):
            rest = ",".join(f"{f.name}={getattr(k, f.name):g}"
                            for f in dataclasses.fields(k) if f is not left_out)
            spec = f"{k.family}:{rest}" if rest else k.family
            if left_out.default is dataclasses.MISSING:
                with pytest.raises(DomainError, match=left_out.name):
                    parse_kernel(spec)
            else:
                assert parse_kernel(spec) == dataclasses.replace(
                    k, **{left_out.name: left_out.default})

    @pytest.mark.parametrize("text", ["maternhi:m=2.0", "wendland:k=3.0"])
    def test_integer_orders_are_stored_as_int(self, text):
        # a whole order written as a float makes the same kernel as the int
        assert repr(parse_kernel(text)) == repr(parse_kernel(text.removesuffix(".0")))

    def test_parameter_domains(self):
        with pytest.raises(DomainError):
            SquaredExponential(0.0)
        with pytest.raises(DomainError):
            Matern(-1.0, 1.0)
        with pytest.raises(DomainError):
            parse_kernel("maternhi:m=-1")
        with pytest.raises(DomainError):
            Wendland(0)
        with pytest.raises(DomainError):
            Wendland(21)
        with pytest.raises(DomainError):
            parse_kernel("maternhi:m=21")
        with pytest.raises(DomainError):
            GammaExponential(0.0, 1.0)
        # gammaexp:gamma=1 and 2 parse to the family they equal, never to these
        with pytest.raises(DomainError, match="is matern:ell=0.8,nu=0.5"):
            GammaExponential(1.0, 0.8)
        with pytest.raises(DomainError, match="is sqexp:ell=1$"):
            GammaExponential(2.0)
        with pytest.raises(DomainError):
            Periodic(0.0, 1.0)
