"""Tests for the special-function layer.

Expected values come from independent oracles: exact rational identities
(gamma recursion, integer factorials), hand-checkable short hypergeometric
sums, the series summed term by term in ``Fraction`` arithmetic,
Gauss-Hermite orthogonality of the Hermite polynomials, and scipy's and
mpmath's modified Bessel functions.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import kve

from gpchaos.errors import DomainError
from gpchaos.specfun import (
    _RGAMMA_TAYLOR,
    bessel_zk,
    gamma_ln,
    hermite,
    hyp2f1_terminating,
)


class TestGammaLn:
    def test_anchor_half_integer(self):
        # Gamma(1.5) = sqrt(pi)/2
        assert_allclose(gamma_ln(1.5), math.log(math.sqrt(math.pi) / 2.0),
                        rtol=1e-14)

    def test_recursion_ladder(self):
        # Gamma(x+1) = x*Gamma(x), walked up from the anchor.
        acc = gamma_ln(1.5)
        x = 1.5
        for _ in range(40):
            acc += math.log(x)
            x += 1.0
            assert_allclose(gamma_ln(x), acc, rtol=1e-13)

    def test_integer_factorials(self):
        for n in range(1, 15):
            assert_allclose(gamma_ln(n + 1), math.log(math.factorial(n)),
                            rtol=1e-13)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(DomainError):
            gamma_ln(bad)


# log K_nu(z) is a sum of terms of size up to max(|log K_nu|, z) (e^-z in
# Steed's fraction, the log ratios of the recurrence), and so is the
# reference log kve - z; errors are measured in units of that size.  Largest
# measured on these 4,001 points: 3.1e-14 at nu = 0.25, which is kve's own
# error (mpmath puts log_bessel_k at 2.8e-15 and kve at 2.7e-14 near z =
# 1.9), and at most 4.1e-15 at every other order, 400 included.
_BESSEL_Z = np.geomspace(1e-6, 700.0, 4001)
_BESSEL_TOL = 1e-14


def _bessel_error(got, ref, z):
    return np.abs(got - ref) / np.maximum(np.maximum(np.abs(ref), z), 1.0)


def log_bessel_k(nu, z):
    """log K_nu(z) from the scaled value z^nu K_nu(z) = y e^scale."""
    ((y, scale),) = bessel_zk(nu, z)
    return np.log(y) + scale - nu * np.log(z)


class TestBesselZK:
    @pytest.mark.parametrize("nu,tol", [
        (0.0, _BESSEL_TOL), (0.25, 6e-14), (0.5, _BESSEL_TOL), (1.0, _BESSEL_TOL),
        (1.5, _BESSEL_TOL), (2.5, _BESSEL_TOL), (20.5, _BESSEL_TOL), (400.0, _BESSEL_TOL),
    ])
    def test_matches_scipy_kve(self, nu, tol):
        with np.errstate(over="ignore", divide="ignore"):
            ref = np.log(kve(nu, _BESSEL_Z)) - _BESSEL_Z
        finite = np.isfinite(ref)  # kve overflows at small z once nu is large
        assert finite.sum() > 400
        got = log_bessel_k(nu, _BESSEL_Z[finite])
        assert _bessel_error(got, ref[finite], _BESSEL_Z[finite]).max() < tol

    def test_order_1000_matches_mpmath(self):
        # kve overflows here; measured 1.9e-15 (mpmath takes seconds above z = 300)
        z = np.geomspace(1e-3, 300.0, 41)
        ref = np.array([float(mpmath.log(mpmath.besselk(1000, mpmath.mpf(x)))) for x in z])
        assert _bessel_error(log_bessel_k(1000.0, z), ref, z).max() < _BESSEL_TOL

    @pytest.mark.parametrize("nu", [0.25, 0.5, 0.7, 1.3, 2.5, 20.3])
    def test_negative_order_is_symmetric(self, nu):
        # -0.7, -1.3 and -20.3 climb the ladder at -mu from K_(1-mu)
        assert _bessel_error(log_bessel_k(-nu, _BESSEL_Z), log_bessel_k(nu, _BESSEL_Z),
                             _BESSEL_Z).max() < _BESSEL_TOL

    @pytest.mark.parametrize("nu", [0.3, 0.7, 1.2, 2.5, 20.25, 800.25])
    def test_one_pass_matches_separate_calls(self, nu):
        # orders nu-2, nu-1, nu share their mu, so a separate call runs the
        # same recurrence; below nu = 2 the lowest orders are negative, and
        # at 800 the ladder rescales on the way
        rows = bessel_zk(nu - 2.0, _BESSEL_Z, 3)
        for j, (y, scale) in enumerate(rows):
            ((y_alone, scale_alone),) = bessel_zk(nu - 2.0 + j, _BESSEL_Z)
            assert_array_equal(y, y_alone)
            assert_array_equal(scale, scale_alone)

    def test_reciprocal_gamma_table(self):
        # 1/Gamma(1 + x) = exp(B(x)), B(x) = gamma x - sum_k>=2 (-1)^k zeta(k) x^k / k
        # (DLMF 5.7.3), so n a_n = sum_k k b_k a_(n-k); in 50 digits, rounded once
        with mpmath.workdps(50):
            b = [0, mpmath.euler] + [-(-1) ** k * mpmath.zeta(k) / k
                                     for k in range(2, len(_RGAMMA_TAYLOR))]
            a = [mpmath.mpf(1)]
            for n in range(1, len(_RGAMMA_TAYLOR)):
                a.append(sum(k * b[k] * a[n - k] for k in range(1, n + 1)) / n)
            assert list(_RGAMMA_TAYLOR) == [float(v) for v in a]


def _fraction_hyp2f1(a, b, c, z):
    """Oracle: the terminating series summed term by term in Fraction
    arithmetic, then rounded once to double."""
    fa, fc, fz = Fraction(a), Fraction(c), Fraction(z)
    total = Fraction(0)
    term = Fraction(1)
    for k in range(int(-b) + 1):
        total += term
        term *= (fa + k) * (int(b) + k) * fz
        term /= (fc + k) * (k + 1)
    return float(total)


class TestTerminatingHypergeometric:
    # Anchors: three-term sums computable by hand.
    #   F(-1/2,  0; 1/2; 1) = 1
    #   F(-1/2, -1; 1/2; 1) = 1 + (-1/2)(-1)/(1/2) = 2
    #   F(-1/2, -2; 1/2; 1) = 1 + 2 - 1/3 = 8/3
    #   F(-1/2, -3; 1/2; 1) = 16/5 (Gauss value sqrt(pi)*Gamma(4)/Gamma(7/2))
    @pytest.mark.parametrize("b,expected", [
        (0, 1.0),
        (-1, 2.0),
        (-2, 8.0 / 3.0),
        (-3, 16.0 / 5.0),
    ])
    def test_anchor_values(self, b, expected):
        assert_allclose(hyp2f1_terminating(-0.5, b, 0.5, 1.0), expected,
                        rtol=1e-13)

    def test_gauss_theorem_identity(self):
        # F(-1/2, -n-1; 1/2; 1) = sqrt(pi) Gamma(n+2)/Gamma(n+3/2)
        for n in range(0, 51):
            lhs = hyp2f1_terminating(-0.5, -(n + 1), 0.5, 1.0)
            rhs = math.sqrt(math.pi) * math.exp(
                gamma_ln(n + 2.0) - gamma_ln(n + 1.5))
            assert abs(lhs - rhs) <= 1e-11 * abs(rhs), f"n={n}"

    def test_polynomial_case(self):
        # F(1, -2; 1; z) = (1-z)^2 for the scalar z (b drives termination)
        for z in (0.3, -0.7, 1.0):
            assert_allclose(hyp2f1_terminating(1.0, -2, 1.0, z),
                            (1.0 - z) ** 2, rtol=1e-14)

    def test_gauss_series_bit_identical_to_fraction_sum(self):
        for n in range(401):
            args = (-0.5, -(n + 1), 0.5, 1.0)
            assert hyp2f1_terminating(*args) == _fraction_hyp2f1(*args), f"n={n}"

    @pytest.mark.parametrize("a,c,z", [
        (-0.5, 0.5, 1.0),  # the Gauss series; n = 0 is b = 0
        (1.3, -2.7, 0.37),  # negative c away from the poles
        (-3.1, -4.5, -1.3),
        (0.1, 0.25, 0.37),  # non-dyadic z
        (2.0, -7.25, -1.3),  # negative, non-dyadic z
    ])
    def test_mixed_signs_bit_identical_to_fraction_sum(self, a, c, z):
        for n in range(0, 61):
            got = hyp2f1_terminating(a, -n, c, z)
            assert got == _fraction_hyp2f1(a, -n, c, z), f"n={n}"

    def test_requires_terminating_b(self):
        with pytest.raises(DomainError):
            hyp2f1_terminating(-0.5, 0.3, 0.5, 1.0)

    def test_rejects_blocking_c(self):
        # c hits a nonpositive integer before the series terminates
        with pytest.raises(DomainError):
            hyp2f1_terminating(-0.5, -4, -2.0, 1.0)

    def test_pole_check_covers_k_up_to_minus_b(self):
        # c + k = 0 is checked for k = 0 .. -b, ends included; c = 0 is one
        for b, c in ((-3, -3.0), (-3, 0.0), (0, 0.0)):
            with pytest.raises(DomainError):
                hyp2f1_terminating(-0.5, b, c, 1.0)
        assert hyp2f1_terminating(-0.5, -3, -4.0, 1.0) == _fraction_hyp2f1(-0.5, -3, -4.0, 1.0)


class TestHermite:
    def test_explicit_low_orders(self):
        x = np.linspace(-3.0, 3.0, 31)
        expected = [
            np.ones_like(x),
            x,
            x**2 - 1,
            x**3 - 3 * x,
            x**4 - 6 * x**2 + 3,
            x**5 - 10 * x**3 + 15 * x,
            x**6 - 15 * x**4 + 45 * x**2 - 15,
        ]
        for n, e in enumerate(expected):
            assert_allclose(hermite(n, x), e, rtol=1e-12, atol=1e-12)

    def test_scalar_anchor(self):
        assert hermite(3, 2.0) == 2.0  # 8 - 6

    def test_ladder_matches_single_orders(self):
        # one recurrence for a set of orders gives each H_k bit for bit
        x = np.linspace(-5.0, 5.0, 41)
        orders = {0, 1, 3, 4, 9}
        rungs = hermite(orders, x)
        assert set(rungs) == orders
        for k in orders:
            assert_array_equal(rungs[k], hermite(k, x))
        assert hermite(set(), x) == {}
        with pytest.raises(DomainError):
            hermite({2, -1}, x)

    def test_single_order_returns_a_new_array(self):
        x = np.array([0.5, -1.0])
        hermite(1, x)[0] = 9.0
        assert x[0] == 0.5

    def test_orthogonality_gauss_hermite(self):
        # E[H_m(xi) H_n(xi)] = n! delta_{mn} under the standard normal.
        nodes, weights = hermegauss(60)
        weights = weights / math.sqrt(2.0 * math.pi)
        H = np.stack([hermite(n, nodes) for n in range(9)])
        gram = (H * weights) @ H.T
        expected = np.diag([math.factorial(n) for n in range(9)])
        assert_allclose(gram, expected, atol=1e-8)

    def test_three_term_recurrence(self):
        # H_{n+1}(x) = x H_n(x) - n H_{n-1}(x)
        x = np.linspace(-4.0, 4.0, 17)
        for n in range(1, 12):
            assert_allclose(hermite(n + 1, x),
                            x * hermite(n, x) - n * hermite(n - 1, x),
                            rtol=1e-11, atol=1e-9)
