"""Tests for the special-function layer.

Expected values come from independent oracles: exact rational identities
(gamma recursion, integer factorials), hand-checkable short hypergeometric
sums, and Gauss-Hermite orthogonality of the Hermite polynomials.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from numpy.testing import assert_allclose

from gpchaos.errors import DomainError
from gpchaos.specfun import (
    gamma_ln,
    hermite,
    hermite_sequence,
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

    def test_requires_terminating_b(self):
        with pytest.raises(DomainError):
            hyp2f1_terminating(-0.5, 0.3, 0.5, 1.0)

    def test_rejects_blocking_c(self):
        # c hits a nonpositive integer before the series terminates
        with pytest.raises(DomainError):
            hyp2f1_terminating(-0.5, -4, -2.0, 1.0)


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

    def test_orthogonality_gauss_hermite(self):
        # E[H_m(xi) H_n(xi)] = n! delta_{mn} under the standard normal.
        nodes, weights = hermegauss(60)
        weights = weights / math.sqrt(2.0 * math.pi)
        H = hermite_sequence(8, nodes)
        gram = (H * weights) @ H.T
        expected = np.diag([math.factorial(n) for n in range(9)])
        assert_allclose(gram, expected, atol=1e-8)

    def test_sequence_matches_single(self):
        x = np.linspace(-2.0, 2.0, 9)
        H = hermite_sequence(6, x)
        assert H.shape == (7, x.size)
        for n in range(7):
            assert_allclose(H[n], hermite(n, x), rtol=1e-13)

    def test_three_term_recurrence(self):
        # H_{n+1}(x) = x H_n(x) - n H_{n-1}(x)
        x = np.linspace(-4.0, 4.0, 17)
        for n in range(1, 12):
            assert_allclose(hermite(n + 1, x),
                            x * hermite(n, x) - n * hermite(n - 1, x),
                            rtol=1e-11, atol=1e-9)
