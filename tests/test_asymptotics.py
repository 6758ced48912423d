"""Tests for the iterated-integral decay layer.

Anchors are hand-checkable: the n=0 integral is a triangle area, n=1 has an
elementary antiderivative, and the hypergeometric closed form is pinned by
the Gauss summation theorem.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gpchaos.asymptotics import (
    fit_decay_exponent,
    gauss_theorem_value,
    iter_integral_closed_form,
    iter_integral_quadrature,
    iter_integral_series,
    series_to_csv,
)
from gpchaos.errors import DomainError
from gpchaos.specfun import hyp2f1_terminating


class TestQuadrature:
    def test_triangle_areas(self):
        assert_allclose(iter_integral_quadrature(0), 0.5, rtol=1e-12)

    def test_elementary_antiderivative(self):
        # int_0^1 (1-s)(1-s^2) ds = 1 - 1/2 - 1/3 + 1/4 = 5/12
        assert_allclose(iter_integral_quadrature(1), 5.0 / 12.0, rtol=1e-12)

    def test_strictly_decreasing_in_n(self):
        vals = [iter_integral_quadrature(n) for n in range(25)]
        assert np.all(np.diff(vals) < 0.0)

    def test_domain_boundary(self):
        # the integrand touches 0 only at the endpoint s = 1
        assert iter_integral_quadrature(3) > 0.0
        for n in (-1, 1.5):
            with pytest.raises(DomainError):
                iter_integral_quadrature(n)
        with pytest.raises(DomainError):
            iter_integral_series([0, 1, -1])


class TestClosedForm:
    def test_anchors(self):
        assert_allclose(iter_integral_closed_form(0), 0.5, rtol=1e-12)
        assert_allclose(iter_integral_closed_form(1), 5.0 / 12.0,
                        rtol=1e-12)

    def test_matches_quadrature(self):
        for n in range(31):
            assert_allclose(iter_integral_closed_form(n),
                            iter_integral_quadrature(n),
                            atol=1e-10)

    def test_rejects_negative_n(self):
        with pytest.raises(DomainError):
            iter_integral_closed_form(-1)


class TestGaussTheorem:
    def test_n_zero_is_two(self):
        # sqrt(pi) Gamma(2)/Gamma(3/2) = sqrt(pi)/(sqrt(pi)/2) = 2
        assert_allclose(gauss_theorem_value(0), 2.0, rtol=1e-13)

    def test_identity_with_terminating_series(self):
        for n in range(51):
            f = hyp2f1_terminating(-0.5, -(n + 1), 0.5, 1.0)
            assert_allclose(gauss_theorem_value(n), f, rtol=1e-11)

    def test_stirling_growth(self):
        n = 10**4
        assert_allclose(gauss_theorem_value(n) / math.sqrt(n),
                        math.sqrt(math.pi), rtol=1e-2)


class TestDecayFit:
    def test_exact_power_law(self):
        ns = np.arange(10, 60, 3)
        fit = fit_decay_exponent([(n, 3.7 * n**-0.5) for n in ns])
        assert_allclose(fit.fitted_slope, -0.5, atol=1e-12)
        assert_allclose(fit.fitted_log_constant, math.log(3.7), atol=1e-12)
        assert fit.residual < 1e-12
        assert fit.fit_window == (10, 58)

    def test_constant_series(self):
        fit = fit_decay_exponent([(n, 2.0) for n in range(5, 20)])
        assert_allclose(fit.fitted_slope, 0.0, atol=1e-12)

    def test_iterated_integral_rate(self):
        ns = sorted(set(np.geomspace(50, 400, 25).astype(int)))
        fit = fit_decay_exponent(iter_integral_series(ns))
        assert abs(fit.fitted_slope + 0.5) < 0.05

    def test_degenerate_inputs(self):
        with pytest.raises(DomainError):
            fit_decay_exponent([(5, 1.0), (5, 2.0)])
        with pytest.raises(DomainError):
            fit_decay_exponent([(5, 1.0), (6, -1.0)])


class TestCsv:
    def test_header_and_round_trip(self):
        series = [(1, 0.5), (2, 0.25)]
        text = series_to_csv(series)
        lines = text.strip().split("\n")
        assert lines[0] == "n,value"
        parsed = [tuple(line.split(",")) for line in lines[1:]]
        assert [(int(a), float(b)) for a, b in parsed] == series

    def test_values_survive_exactly(self):
        v = 0.1234567890123456789
        text = series_to_csv([(3, v)])
        assert float(text.strip().split("\n")[1].split(",")[1]) == v
