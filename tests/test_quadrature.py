"""Tests for the package's one adaptive integrator.

Each integrand has a closed-form value; the endpoint behaviours are the
ones its callers declare: a bounded integrand, a power (x - lo)^e with
-1 < e < 0, and a logarithm.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gpchaos.errors import QuadratureFailure
from gpchaos.quadrature import _SLICE_ROWS, QuadLog, integrate


class TestEndpointSingularities:
    @pytest.mark.parametrize("e", [-0.9, -0.5, -0.2])
    def test_power(self, e):
        (value,), (error,) = integrate(lambda x, ks: x[None] ** ks[:, None], [e], singular=e)
        assert_allclose(value, 1.0 / (e + 1.0), rtol=1e-12)
        assert error <= 1e-11 * value

    def test_log(self):
        (value,), _ = integrate(lambda x, ks: -np.log(x)[None], [0], singular="log")
        assert_allclose(value, 1.0, rtol=1e-12)

    def test_power_on_the_half_line(self):
        # int_0^inf x^(-1/2) e^(-x) dx = Gamma(1/2)
        (value,), _ = integrate(lambda x, ks: (x ** -0.5 * np.exp(-x))[None], [0],
                                0.0, math.inf, -0.5)
        assert_allclose(value, math.sqrt(math.pi), rtol=1e-11)

    def test_bounded_is_the_default(self):
        (value,), _ = integrate(lambda x, ks: np.cos(x)[None], [0], 0.0, 2.0)
        assert_allclose(value, math.sin(2.0), rtol=1e-13)


class TestBatches:
    def test_keys_beyond_one_slice_match_their_one_key_values(self):
        keys = np.linspace(0.1, 5.0, 130)
        assert keys.size > 2 * _SLICE_ROWS

        def f(x, ks):
            return np.exp(-ks[:, None] * x) * (1.0 + np.sin(ks[:, None] * x) ** 2)

        values, errors = integrate(f, keys)
        for key, value, error in zip(keys, values, errors):
            (one,), _ = integrate(f, [key])
            assert value == pytest.approx(one, rel=1e-13)
            assert error <= 1e-11 * value


class TestNegativeValues:
    def test_zero_within_the_met_tolerance_is_zero(self):
        with QuadLog() as log:
            (value,), _ = integrate(lambda x, ks: np.full((1, x.size), -1e-14), [0])
        assert log.within_tolerance
        assert value == 0.0

    def test_clearly_negative_raises(self):
        with pytest.raises(QuadratureFailure, match="Gauss-Legendre 20/10 on 1 subintervals"):
            integrate(lambda x, ks: -np.ones((1, x.size)), [0])
