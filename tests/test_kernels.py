"""Tests for the covariance-kernel catalog.

Derivative values at the origin are checked two ways: against exact
closed-form constants derived by hand (and, for the compactly supported
polynomial family, exact rational arithmetic), and against a
Richardson-extrapolated finite-difference oracle that knows nothing about
the closed forms.  Spectral densities are pinned by explicit anchors and by
the normalization int F' = r(0) = 1.  Moving-average kernels are checked
through int b^2 = 1 and through reconstruction of r by direct quadrature of
the defining identity r(t) = int b(t+s) b(s) ds.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import dblquad, quad
from scipy.special import kv

from gpchaos.errors import (
    DomainError,
    NoBRepresentation,
    NoSpectralDensity,
    NotDifferentiable,
)
from gpchaos.kernels import (
    Cosine,
    GammaExponential,
    Matern,
    MaternHalfInteger,
    Periodic,
    RationalQuadratic,
    SquaredExponential,
    Wendland,
    b_representation,
    fd_derivatives_at_zero,
    parse_kernel,
    r_derivatives_at_zero,
    reconstruct_r,
    wendland_poly,
    wendland_repeated_integral_at_zero,
)

# Shared catalog for invariant sweeps; chosen to hit every family and both
# closed-form and sampled-grid code paths.
CATALOG = [
    SquaredExponential(1.0),
    SquaredExponential(0.7),
    Matern(2.5, 1.3),
    MaternHalfInteger(0, 1.0),
    MaternHalfInteger(1, 1.0),
    MaternHalfInteger(2, 1.3),
    GammaExponential(1.5, 1.0),
    GammaExponential(1.0, 0.8),
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
        k = MaternHalfInteger(0, 2.0)
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
        ge = GammaExponential(2.0, 1.2)
        se = SquaredExponential(1.2)
        t = np.linspace(0.0, 4.0, 17)
        assert_allclose(ge.r(t), se.r(t), rtol=1e-14)

    def test_matern_routes_agree(self):
        # Bessel-function route vs exponential-polynomial route at nu = 3/2,
        # 5/2; independent implementations of the same covariance.
        for m, ell in [(1, 1.0), (2, 1.3)]:
            hi = MaternHalfInteger(m, ell)
            ge = Matern(m + 0.5, ell)
            t = np.linspace(0.01, 5.0, 40)
            assert_allclose(ge.r(t), hi.r(t), rtol=1e-12)
            assert_allclose(ge.r_prime(t), hi.r_prime(t),
                            rtol=1e-11, atol=1e-13)
            assert_allclose(ge.r_second(t), hi.r_second(t),
                            rtol=1e-10, atol=1e-12)

    def test_wendland_compact_support(self):
        k = Wendland(4)
        assert k.r(0.0) == 1.0
        assert_allclose(k.r(1.0), 0.0, atol=1e-12)
        assert k.r(1.5) == 0.0
        assert k.r(7.0) == 0.0

    @pytest.mark.parametrize("k", CATALOG, ids=lambda k: k.spec_string())
    def test_symmetry(self, k):
        t = np.linspace(0.05, 2.0, 9)
        assert_allclose(k.r(-t), k.r(t), rtol=1e-14)
        assert_allclose(k.r_prime(-t), -k.r_prime(t), rtol=1e-13, atol=1e-15)
        assert_allclose(k.r_second(-t), k.r_second(t),
                        rtol=1e-13, atol=1e-15)

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
        d = r_derivatives_at_zero(MaternHalfInteger(2, 1.0))
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
        dg = r_derivatives_at_zero(Matern(2.5, 1.3))
        dh = r_derivatives_at_zero(MaternHalfInteger(2, 1.3))
        assert_allclose(dg.r2, dh.r2, rtol=1e-14)
        assert_allclose(dg.r4, dh.r4, rtol=1e-14)

    def test_matern_three_half_has_no_fourth(self):
        d = r_derivatives_at_zero(MaternHalfInteger(1, 1.0))
        assert d.r2_available and not d.r4_available
        assert_allclose(d.r2, -3.0, rtol=1e-15)
        assert math.isnan(d.r4) and math.isnan(d.discriminant)

    def test_matern_one_half_has_no_second(self):
        d = r_derivatives_at_zero(MaternHalfInteger(0, 1.0))
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
        d1 = r_derivatives_at_zero(GammaExponential(1.0, 1.0))
        assert not d1.r2_available
        assert any("one-sided" in n for n in d1.notes)
        d2 = r_derivatives_at_zero(GammaExponential(2.0, 1.0))
        assert_allclose((d2.r2, d2.r4), (-2.0, 12.0), rtol=1e-15)

    def test_strict_accessors_raise(self):
        with pytest.raises(NotDifferentiable):
            MaternHalfInteger(0, 1.0).r2_zero()
        with pytest.raises(NotDifferentiable):
            MaternHalfInteger(1, 1.0).r4_zero()
        with pytest.raises(NotDifferentiable):
            GammaExponential(1.5, 1.0).r2_zero()
        with pytest.raises(NotDifferentiable):
            Wendland(1).r4_zero()
        assert_allclose(MaternHalfInteger(1, 1.0).r2_zero(), -3.0,
                        rtol=1e-15)


class TestFiniteDifferenceOracle:
    """Extrapolated central differences vs the closed forms, rel 1e-6."""

    FULL = [
        SquaredExponential(1.0),
        SquaredExponential(2.0),
        MaternHalfInteger(2, 1.0),
        MaternHalfInteger(2, 1.3),
        Matern(2.5, 1.3),
        Matern(3.7, 1.1),
        RationalQuadratic(2.0, 1.0),
        RationalQuadratic(1.5, 0.9),
        Wendland(4),
        Cosine(1.2),
        Periodic(math.pi, 1.0),
        GammaExponential(2.0, 1.1),
    ]

    @pytest.mark.parametrize("k", FULL, ids=lambda k: k.spec_string())
    def test_concordance(self, k):
        d = r_derivatives_at_zero(k)
        fd = fd_derivatives_at_zero(k)
        assert_allclose(fd["r2"], d.r2, rtol=1e-6)
        assert_allclose(fd["r4"], d.r4, rtol=1e-6)

    def test_second_derivative_only(self):
        k = MaternHalfInteger(1, 1.0)
        assert_allclose(fd_derivatives_at_zero(k)["r2"], -3.0, rtol=1e-6)


class TestSpectralDensity:
    def test_exponential_lorentzian(self):
        # nu = 1/2: F'(lam) = (ell/pi) / (1 + ell^2 lam^2)
        k = MaternHalfInteger(0, 1.0)
        assert_allclose(k.spectral_density(0.0), 1.0 / math.pi, rtol=1e-14)
        k2 = MaternHalfInteger(0, 2.0)
        lam = np.array([0.0, 0.5, 2.0])
        assert_allclose(k2.spectral_density(lam),
                        (2.0 / math.pi) / (1.0 + 4.0 * lam**2), rtol=1e-13)

    def test_sqexp_gaussian(self):
        k = SquaredExponential(2.0)
        assert_allclose(k.spectral_density(0.0), 1.0 / math.sqrt(math.pi),
                        rtol=1e-14)
        assert_allclose(k.spectral_density(1.0),
                        math.exp(-1.0) / math.sqrt(math.pi), rtol=1e-14)

    def test_rq_anchor_at_zero(self):
        # alpha = 2, ell = 1: closed value 1/2 at the origin
        assert_allclose(RationalQuadratic(2.0, 1.0).spectral_density(0.0),
                        0.5, rtol=1e-12)

    def test_gammaexp_origin_gamma_integral(self):
        # F'(0) = (1/pi) int_0^inf exp(-t^gamma) dt = Gamma(1 + 1/gamma)/pi
        k = GammaExponential(1.5, 1.0)
        assert_allclose(k.spectral_density(0.0),
                        math.gamma(1.0 + 1.0 / 1.5) / math.pi, rtol=1e-9)
        k1 = GammaExponential(1.0, 1.3)
        assert_allclose(k1.spectral_density(0.0), 1.3 / math.pi, rtol=1e-14)

    @pytest.mark.parametrize("k", [
        MaternHalfInteger(0, 1.0),
        Matern(2.5, 1.0),
        SquaredExponential(1.3),
        RationalQuadratic(2.0, 1.0),
    ], ids=lambda k: k.spec_string())
    def test_total_mass_is_one(self, k):
        total = 2.0 * quad(lambda l: k.spectral_density(l),
                           0.0, np.inf, limit=400)[0]
        assert_allclose(total, 1.0, rtol=1e-7)

    def test_wendland_mass_and_positivity(self):
        k = Wendland(4)
        lam = np.linspace(0.0, 120.0, 48001)
        vals = k.spectral_density(lam)
        # tiny negative oscillation noise is tolerated, nothing structural
        assert vals.min() > -1e-12
        assert_allclose(2.0 * np.trapezoid(vals, lam), 1.0, atol=1e-8)

    def test_atomic_measures_rejected(self):
        with pytest.raises(NoSpectralDensity):
            Cosine(1.0).spectral_density(0.0)
        with pytest.raises(NoSpectralDensity):
            Periodic(2.0, 0.8).spectral_density(0.0)

    def test_rq_heavy_tail_rejected(self):
        with pytest.raises(NoSpectralDensity):
            RationalQuadratic(0.5, 1.0).spectral_density(0.0)
        with pytest.raises(NoSpectralDensity):
            RationalQuadratic(0.3, 1.0).spectral_density(1.0)


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
        got = kernel.spectral_density(lam)
        # the old sum's float coefficients leave up to 9e-14 of rounding noise (k = 6)
        assert_allclose(got, _gauss_legendre_density(kernel, lam), rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_exact_series_at_large_lambda(self, k):
        kernel = Wendland(k)
        for lam in (20, 100, 1000):
            exact = float(_exact_cosine_integral(kernel._coeffs, lam)) / math.pi
            assert exact > 0.0
            assert_allclose(kernel.spectral_density(float(lam)), exact, rtol=1e-10)

    def test_scalar_and_shaped_input(self):
        kernel = Wendland(2)
        assert isinstance(kernel.spectral_density(3.0), float)
        lam = np.array([[0.0, -5.0], [7.5, 200.0]])
        out = kernel.spectral_density(lam)
        assert out.shape == (2, 2)
        assert_allclose(out.ravel(), [kernel.spectral_density(v) for v in (0.0, 5.0, 7.5, 200.0)],
                        rtol=1e-14)


class TestWendlandPolynomials:
    def test_repeated_integral_moment_identity(self):
        # n-fold application of psi -> int_t^1 s psi(s) ds to (1-t)^{k+1},
        # evaluated at 0, equals B(2n, k+2) / (2^{n-1} (n-1)!).  Both sides
        # are exact rationals.
        for n in range(1, 6):
            for k in range(0, 9):
                lhs = wendland_repeated_integral_at_zero(n, k)
                rhs = Fraction(
                    math.factorial(2 * n - 1) * math.factorial(k + 1),
                    math.factorial(2 * n + k + 1)
                ) / (2 ** (n - 1) * math.factorial(n - 1))
                assert lhs == rhs, (n, k)

    def test_double_integral_numeric_spot_check(self):
        # (n, k) = (2, 3) by nested quadrature of the defining operator
        val, _ = dblquad(lambda s, u: u * s * (1.0 - s) ** 4,
                         0.0, 1.0, lambda u: u, 1.0)
        assert_allclose(float(wendland_repeated_integral_at_zero(2, 3)),
                        val, rtol=1e-10)

    def test_poly_value_at_zero_consistency(self):
        for k in (1, 2, 3, 4):
            assert wendland_poly(k)[0] == \
                wendland_repeated_integral_at_zero(k, k)

    def test_poly_vanishes_at_one(self):
        for k in (1, 2, 3, 4):
            assert sum(wendland_poly(k)) == 0


class TestBRepresentation:
    def test_sqexp_closed_form(self):
        rep = b_representation(SquaredExponential(1.3))
        amp = math.sqrt(2.0 / (math.sqrt(math.pi) * 1.3))
        assert rep.representation == "closed"
        assert_allclose(rep.b(0.0), amp, rtol=1e-14)
        assert_allclose(rep.b(0.4) / rep.b(0.0),
                        math.exp(-2.0 * 0.16 / 1.69), rtol=1e-13)
        assert rep.b_singularity is None and rep.bprime_singularity is None
        assert rep.tail[0] == "gauss"
        assert_allclose(rep.tail[1], 2.0 / 1.69, rtol=1e-15)

    def test_exponential_b_is_bessel_k0(self):
        rep = b_representation(MaternHalfInteger(0, 1.0))
        assert rep.b_singularity == "log"
        assert rep.bprime_singularity == -1.0
        assert_allclose(rep.b(0.3) / rep.b(0.7), kv(0, 0.3) / kv(0, 0.7),
                        rtol=1e-12)
        assert rep.b(0.0) == np.inf

    def test_matern_three_half_b_is_pure_exponential(self):
        # q = 1/2: z^q K_q(z) is proportional to e^{-z}
        rep = b_representation(MaternHalfInteger(1, 1.0))
        gam = math.sqrt(3.0)
        assert_allclose(rep.b(1.4) / rep.b(0.4), math.exp(-gam), rtol=1e-12)
        assert rep.b_singularity is None
        assert np.isfinite(rep.b(0.0))

    def test_b_evenness_and_bprime_oddness(self):
        for k in (SquaredExponential(1.0), MaternHalfInteger(2, 1.0),
                  RationalQuadratic(2.0, 1.0)):
            rep = b_representation(k)
            x = np.linspace(0.1, 2.0, 7)
            assert_allclose(rep.b(-x), rep.b(x), rtol=1e-13)
            assert_allclose(rep.b_prime(-x), -rep.b_prime(x), rtol=1e-13)

    @pytest.mark.parametrize("k", [
        SquaredExponential(1.3),
        MaternHalfInteger(0, 1.0),
        MaternHalfInteger(1, 1.0),
        MaternHalfInteger(2, 1.0),
        Matern(2.5, 1.0),
        GammaExponential(1.0, 1.0),
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
        MaternHalfInteger(0, 1.0),
        MaternHalfInteger(1, 1.0),
        MaternHalfInteger(2, 1.0),
        Matern(2.5, 1.0),
        RationalQuadratic(2.0, 1.0),
        Wendland(4),
    ], ids=lambda k: k.spec_string())
    def test_reconstruction(self, k):
        t = np.linspace(0.0, 3.0 * k.length_scale, 13)
        assert_allclose(reconstruct_r(k, t), k.r(t), atol=1e-5)

    def test_reconstruction_anchors(self):
        assert_allclose(reconstruct_r(SquaredExponential(1.0), 1.0),
                        math.exp(-1.0), atol=1e-7)
        assert_allclose(reconstruct_r(MaternHalfInteger(2, 1.0), 0.5),
                        MaternHalfInteger(2, 1.0).r(0.5), atol=1e-4)

    def test_reconstruction_beyond_grid_window(self):
        with pytest.raises(DomainError):
            reconstruct_r(RationalQuadratic(2.0, 1.0), 50.0)

    def test_gammaexp_cusp_metadata(self):
        rep = b_representation(GammaExponential(1.5, 1.0))
        assert rep.representation == "grid"
        assert_allclose(rep.bprime_singularity, -0.75, rtol=1e-15)
        assert any("cusp" in n for n in rep.notes)
        assert rep.truncation_error > 0.0

    def test_gammaexp_one_is_l2_limit(self):
        rep = b_representation(GammaExponential(1.0, 1.0))
        assert rep.b_singularity == "log"
        assert any("L2 limit" in n for n in rep.notes)

    def test_no_b_for_nonintegrable_and_heavy_tails(self):
        with pytest.raises(NoBRepresentation):
            b_representation(Cosine(1.0))
        with pytest.raises(NoBRepresentation):
            b_representation(Periodic(2.0, 0.8))
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
        ("matern12", MaternHalfInteger(0, 1.0)),
        ("matern32:ell=0.7", MaternHalfInteger(1, 0.7)),
        ("matern52:ell=2", MaternHalfInteger(2, 2.0)),
        ("maternhi:m=3", MaternHalfInteger(3, 1.0)),
        ("gammaexp:gamma=1.5", GammaExponential(1.5, 1.0)),
        ("rq:alpha=2", RationalQuadratic(2.0, 1.0)),
        ("rationalquadratic:alpha=1.5,ell=2", RationalQuadratic(1.5, 2.0)),
        ("wendland:k=4", Wendland(4)),
        ("cosine", Cosine(1.0)),
        ("periodic:T=2,ell=0.5", Periodic(2.0, 0.5)),
        ("periodic:period=3", Periodic(3.0, 1.0)),
        (" SQEXP : ell=1 ", SquaredExponential(1.0)),
    ])
    def test_grammar(self, text, expected):
        assert parse_kernel(text) == expected

    @pytest.mark.parametrize("k", CATALOG, ids=lambda k: k.spec_string())
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
        "sqexp:ell=-1",
        "sqexp:ell=abc",
        "rq:alpha=0,ell=1",
        "gammaexp:gamma=2.5",
    ])
    def test_rejects(self, bad):
        with pytest.raises(DomainError):
            parse_kernel(bad)

    def test_parameter_domains(self):
        with pytest.raises(DomainError):
            SquaredExponential(0.0)
        with pytest.raises(DomainError):
            Matern(-1.0, 1.0)
        with pytest.raises(DomainError):
            MaternHalfInteger(-1, 1.0)
        with pytest.raises(DomainError):
            Wendland(0)
        with pytest.raises(DomainError):
            GammaExponential(0.0, 1.0)
        with pytest.raises(DomainError):
            Periodic(0.0, 1.0)
