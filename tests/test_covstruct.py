"""Tests for the cross-correlation matrix layer.

Entry values are pinned by hand differentiation of exp(-t^2); norms by
exact 2x2 identities and numpy's SVD as an independent oracle; tensor-power
results by explicitly materialized Kronecker products for n <= 6.  The
expansion of the squared HS sum at 0 is checked against the closed
coefficient (r''''(0) - r''(0)^2)/r''(0), which the stencil doubles.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gpchaos.covstruct import (
    a_matrix,
    hs_expansion_derivatives,
    hs_sum_norm,
    operator_norm,
    quadratic_bound_fit,
    tensor_power_quadratic_form,
)
from gpchaos.errors import DomainError, NotDifferentiable
from gpchaos.kernels import parse_kernel

A2_KERNELS = ["sqexp:ell=1", "matern52", "matern:nu=2.5", "rq:alpha=2",
              "wendland:k=4", "periodic:T=2,ell=0.8"]


def kron_power(A, n):
    out = A.copy()
    for _ in range(n - 1):
        out = np.kron(A, out)
    return out


class TestAMatrix:
    @pytest.mark.parametrize("spec", A2_KERNELS)
    def test_identity_at_zero(self, spec):
        a = a_matrix(parse_kernel(spec), 0.0)
        assert_allclose(a.as_array(), np.eye(2), atol=1e-14)

    def test_sqexp_half_lag_entries(self):
        # r = e^{-t^2}: r'(0.5) = -e^{-1/4}, r''(0.5) = -e^{-1/4},
        # sigma = sqrt(2)
        a = a_matrix(parse_kernel("sqexp:ell=1"), 0.5)
        e = math.exp(-0.25)
        assert_allclose(a.a11, e, rtol=1e-14)
        assert_allclose(a.a12, e / math.sqrt(2.0), rtol=1e-14)
        assert_allclose(a.a21, -e / math.sqrt(2.0), rtol=1e-14)
        assert_allclose(a.a22, e / 2.0, rtol=1e-14)

    def test_off_diagonal_antisymmetry_in_t(self):
        k = parse_kernel("matern52")
        for t in np.linspace(-2.0, 2.0, 17):
            assert_allclose(a_matrix(k, t).a12, -a_matrix(k, -t).a12,
                            rtol=1e-13, atol=1e-15)
            assert a_matrix(k, t).a21 == -a_matrix(k, t).a12

    @pytest.mark.parametrize("spec", A2_KERNELS)
    def test_entries_bounded_by_one(self, spec):
        k = parse_kernel(spec)
        for t in np.linspace(0.0, 3.0, 31):
            a = a_matrix(k, t)
            assert np.max(np.abs(a.as_array())) <= 1.0 + 1e-12

    def test_requires_second_derivative(self):
        with pytest.raises(NotDifferentiable):
            a_matrix(parse_kernel("matern12"), 0.5)
        # only r''(0) is needed: the 3/2 family works
        a = a_matrix(parse_kernel("matern32"), 0.3)
        assert np.isfinite(a.as_array()).all()


class TestNorms:
    def test_hs_identity_and_zero(self):
        k = parse_kernel("sqexp:ell=1")
        assert_allclose(hs_sum_norm(a_matrix(k, 0.0)), math.sqrt(2.0),
                        rtol=1e-14)
        assert hs_sum_norm(np.zeros((2, 2))) == 0.0
        assert_allclose(hs_sum_norm(a_matrix(k, 0.0)) / math.sqrt(2.0), 1.0,
                        rtol=1e-14)

    def test_hs_sqexp_half_lag(self):
        # entries e, e/sqrt2, -e/sqrt2, e/2 with e = exp(-1/4):
        # sum of squares = e^2 (1 + 1/2 + 1/2 + 1/4) = 2.25 e^2
        val = hs_sum_norm(a_matrix(parse_kernel("sqexp:ell=1"), 0.5))
        assert_allclose(val, 1.5 * math.exp(-0.25), rtol=1e-14)

    def test_operator_norm_anchors(self):
        assert_allclose(operator_norm(np.eye(2)), 1.0, rtol=1e-15)
        assert_allclose(operator_norm(np.diag([1.0, 0.5])), 1.0, rtol=1e-15)
        for th in (0.3, 1.2, 2.0):
            rot = np.array([[math.cos(th), -math.sin(th)],
                            [math.sin(th), math.cos(th)]])
            assert_allclose(operator_norm(rot), 1.0, rtol=1e-14)
        assert_allclose(operator_norm(3.0 * np.eye(2)), 3.0, rtol=1e-15)

    def test_operator_norm_matches_svd(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = rng.standard_normal((2, 2))
            assert_allclose(operator_norm(m),
                            np.linalg.svd(m, compute_uv=False)[0],
                            rtol=1e-12)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DomainError):
            operator_norm(np.eye(3))
        with pytest.raises(DomainError):
            hs_sum_norm(np.ones(4))


class TestExpansionDerivatives:
    def test_sqexp_values(self):
        d = hs_expansion_derivatives(parse_kernel("sqexp:ell=1"))
        assert abs(d["first"]) <= 1e-8
        assert_allclose(d["second"], -8.0, rtol=1e-6)
        assert_allclose(d["printed_second"], -4.0, rtol=1e-12)

    def test_matern52_negative_second(self):
        d = hs_expansion_derivatives(parse_kernel("matern52"))
        assert abs(d["first"]) <= 1e-8
        assert d["second"] < 0.0
        assert_allclose(d["second"], -80.0 / 3.0, rtol=1e-5)

    @pytest.mark.parametrize("spec", A2_KERNELS)
    def test_stencil_doubles_printed_coefficient(self, spec):
        d = hs_expansion_derivatives(parse_kernel(spec))
        assert abs(d["first"]) <= 1e-8
        assert_allclose(d["second"], 2.0 * d["printed_second"], rtol=1e-4)

    def test_requires_fourth_derivative(self):
        with pytest.raises(NotDifferentiable):
            hs_expansion_derivatives(parse_kernel("matern32"))


class TestTensorPower:
    def test_single_factor_selections(self):
        k = parse_kernel("sqexp:ell=1")
        a = a_matrix(k, 0.7)
        assert_allclose(tensor_power_quadratic_form(k, 0.7, [1.0, 0.0]),
                        a.a11, rtol=1e-14)
        assert_allclose(tensor_power_quadratic_form(k, 0.7, [0.0, 1.0]),
                        a.a22, rtol=1e-14)
        # cross terms cancel by antisymmetry: full-ones c gives the trace
        assert_allclose(tensor_power_quadratic_form(k, 0.7, [1.0, 1.0]),
                        a.a11 + a.a22, rtol=1e-13)

    def test_two_factor_corner(self):
        k = parse_kernel("matern52")
        a = a_matrix(k, 0.4)
        c = np.zeros(4)
        c[0] = 1.0
        assert_allclose(tensor_power_quadratic_form(k, 0.4, c), a.a11**2,
                        rtol=1e-14)

    def test_identity_returns_norm_squared(self):
        k = parse_kernel("rq:alpha=2")
        rng = np.random.default_rng(3)
        c = rng.standard_normal(2**5)
        assert_allclose(tensor_power_quadratic_form(k, 0.0, c),
                        float(np.dot(c, c)), rtol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_materialized_kronecker(self, n):
        k = parse_kernel("sqexp:ell=1")
        A = a_matrix(k, 0.37).as_array()
        rng = np.random.default_rng(n)
        c = rng.standard_normal(2**n)
        direct = float(c @ kron_power(A, n) @ c)
        assert_allclose(tensor_power_quadratic_form(k, 0.37, c), direct,
                        rtol=1e-12, atol=1e-14)

    def test_bounded_by_operator_norm_power(self):
        k = parse_kernel("matern52")
        rng = np.random.default_rng(11)
        for t in (0.1, 0.4, 1.0):
            op = operator_norm(a_matrix(k, t))
            for n in (2, 5, 8):
                c = rng.standard_normal(2**n)
                c[rng.random(2**n) < 0.8] = 0.0  # sparse coefficients
                qf = tensor_power_quadratic_form(k, t, c)
                assert abs(qf) <= op**n * float(np.dot(c, c)) * (1 + 1e-12)

    def test_rejects_bad_lengths(self):
        k = parse_kernel("sqexp:ell=1")
        with pytest.raises(DomainError):
            tensor_power_quadratic_form(k, 0.1, [1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            tensor_power_quadratic_form(k, 0.1, np.ones(2**13))


class TestQuadraticBound:
    @pytest.mark.parametrize("spec", A2_KERNELS)
    def test_positive_coefficient_on_window(self, spec):
        fit = quadratic_bound_fit(parse_kernel(spec))
        assert fit.holds and fit.c_hat > 0.0
        # the fitted constant sits below the t->0 coefficient
        assert fit.c_hat < fit.limit_coefficient
        # and the bound itself holds on a dense sample of the window
        k = parse_kernel(spec)
        t = np.linspace(0.0, fit.window, 97)[1:]
        nhs = np.array([hs_sum_norm(a_matrix(k, ti)) for ti in t]) / math.sqrt(2.0)
        assert np.all(nhs <= 1.0 - fit.c_hat * t**2 + 1e-12)

    def test_sqexp_limit_coefficient(self):
        fit = quadratic_bound_fit(parse_kernel("sqexp:ell=1"))
        assert_allclose(fit.limit_coefficient, 1.0, rtol=1e-12)
        assert fit.c_hat > 0.5

    def test_matern52_limit_coefficient(self):
        fit = quadratic_bound_fit(parse_kernel("matern52"))
        assert_allclose(fit.limit_coefficient, 10.0 / 3.0, rtol=1e-12)

    @pytest.mark.parametrize("spec", A2_KERNELS)
    def test_operator_reading_degenerates(self, spec):
        fit = quadratic_bound_fit(parse_kernel(spec))
        assert fit.c_hat_operator <= 0.0
        assert any("degenerates" in n for n in fit.notes)

    def test_rotation_family_has_no_bound(self):
        # A(t) for the pure cosine kernel is a rotation: both norms are
        # constant and no positive quadratic coefficient exists
        fit = quadratic_bound_fit(parse_kernel("cosine"))
        assert not fit.holds
        assert_allclose(fit.limit_coefficient, 0.0, atol=1e-12)

    def test_requires_nondegeneracy_data(self):
        with pytest.raises(NotDifferentiable):
            quadratic_bound_fit(parse_kernel("matern32"))
