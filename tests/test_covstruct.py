"""Tests for the cross-correlation matrix layer.

Entry values are pinned by hand differentiation of exp(-t^2); the
closed-form operator norm by exact 2x2 identities and numpy's SVD as an
independent oracle; the
tensor-power weight by explicitly materialized Kronecker products for
n <= 8 and by an exact rational sum for n <= 60.  The
expansion of the squared HS sum at 0 is checked against the closed
coefficient (r''''(0) - r''(0)^2)/r''(0), which the stencil doubles.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gpchaos.covstruct import (
    _op_norm_closed,
    a_matrix,
    hs_expansion_derivatives,
    quadratic_bound_fit,
    tensor_power_quadratic_form,
)
from gpchaos.errors import DomainError, NotDifferentiable
from gpchaos.kernels import parse_kernel

A2_KERNELS = ["sqexp:ell=1", "matern52", "matern:nu=2.5", "rq:alpha=2",
              "wendland:k=4", "periodic:T=2,ell=0.8"]


def kron_power(A, n):
    out = np.ones((1, 1))
    for _ in range(n):
        out = np.kron(A, out)
    return out


def symmetrized_coefficients(a, b):
    """Chaos coefficients of H_a(X) H_b(Xdot / sigma) over {x, xdot}^n,
    one binary digit per slot (1 = xdot): a! b! / n! on every index with
    exactly b xdot-slots."""
    n = a + b
    xdot_slots = np.array([bin(i).count("1") for i in range(2**n)])
    weight = math.factorial(a) * math.factorial(b) / math.factorial(n)
    return np.where(xdot_slots == b, weight, 0.0)


def exact_weight(p, q, r, s, a, b):
    """N = sum_m n!/(m! (a-m)!^2 (b-a+m)!) p^m (qr)^(a-m) s^(b-a+m) / C(n, a)
    in exact rational arithmetic on the float entries, and the bound
    2 n eps sum_m |term_m| / C(n, a) on the rounding error of any
    evaluation that takes 2n floating-point steps."""
    p, q, r, s = (Fraction(float(v)) for v in (p, q, r, s))
    n = a + b
    terms = [
        Fraction(math.factorial(n),
                 math.factorial(m) * math.factorial(a - m) ** 2
                 * math.factorial(b - a + m))
        * p**m * (q * r) ** (a - m) * s ** (b - a + m)
        for m in range(max(0, a - b), a + 1)
    ]
    scale = math.comb(n, a)
    bound = 2 * n * np.finfo(float).eps * float(sum(map(abs, terms)) / scale)
    return float(sum(terms) / scale), bound


def _as_array(a):
    """The entries of A(t) as a 2x2 array."""
    return np.array([[a.a11, a.a12], [a.a21, a.a22]])


class TestAMatrix:
    @pytest.mark.parametrize("spec", A2_KERNELS)
    def test_identity_at_zero(self, spec):
        a = a_matrix(parse_kernel(spec), 0.0)
        assert_allclose(_as_array(a), np.eye(2), atol=1e-14)

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
            assert np.max(np.abs(_as_array(a))) <= 1.0 + 1e-12

    @pytest.mark.parametrize("spec", A2_KERNELS)
    def test_array_lags_match_scalar_lags(self, spec):
        k = parse_kernel(spec)
        t = np.linspace(-1.5, 1.5, 13)
        m = a_matrix(k, t)
        for field in ("a11", "a12", "a21", "a22"):
            got = getattr(m, field)
            assert got.shape == t.shape
            assert_allclose(got, [getattr(a_matrix(k, ti), field) for ti in t],
                            rtol=1e-15, atol=1e-300)

    def test_requires_second_derivative(self):
        with pytest.raises(NotDifferentiable):
            a_matrix(parse_kernel("matern12"), 0.5)
        # only r''(0) is needed: the 3/2 family works
        a = a_matrix(parse_kernel("matern32"), 0.3)
        assert np.isfinite(_as_array(a)).all()


def operator_norm(m):
    """The closed-form largest singular value of a 2x2 array."""
    return _op_norm_closed(*m.ravel())


class TestNorms:
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


class TestExpansionDerivatives:
    def test_sqexp_values(self):
        d = hs_expansion_derivatives(parse_kernel("sqexp:ell=1"))
        assert_allclose(d["second"], -8.0, rtol=1e-6)
        assert_allclose(d["printed_second"], -4.0, rtol=1e-12)

    def test_matern52_negative_second(self):
        d = hs_expansion_derivatives(parse_kernel("matern52"))
        assert d["second"] < 0.0
        assert_allclose(d["second"], -80.0 / 3.0, rtol=1e-5)

    @pytest.mark.parametrize("spec", A2_KERNELS)
    def test_stencil_doubles_printed_coefficient(self, spec):
        d = hs_expansion_derivatives(parse_kernel(spec))
        assert_allclose(d["second"], 2.0 * d["printed_second"], rtol=1e-4)

    def test_requires_fourth_derivative(self):
        with pytest.raises(NotDifferentiable):
            hs_expansion_derivatives(parse_kernel("matern32"))


class TestTensorPower:
    def test_single_factor_selections(self):
        k = parse_kernel("sqexp:ell=1")
        a = a_matrix(k, 0.7)
        assert_allclose(tensor_power_quadratic_form(k, 0.7, 1, 0), a.a11,
                        rtol=1e-14)
        assert_allclose(tensor_power_quadratic_form(k, 0.7, 0, 1), a.a22,
                        rtol=1e-14)
        # H_1(X) H_1(Xdot/sigma): c = (0, 1/2, 1/2, 0) picks the two
        # off-diagonal products of A (x) A
        assert_allclose(tensor_power_quadratic_form(k, 0.7, 1, 1),
                        a.a11 * a.a22 + a.a12 * a.a21, rtol=1e-13)

    def test_two_factor_corner(self):
        k = parse_kernel("matern52")
        a = a_matrix(k, 0.4)
        assert_allclose(tensor_power_quadratic_form(k, 0.4, 2, 0), a.a11**2,
                        rtol=1e-14)
        assert_allclose(tensor_power_quadratic_form(k, 0.4, 0, 2), a.a22**2,
                        rtol=1e-14)

    def test_identity_returns_norm_squared(self):
        # N is normalized by <c, c>, so A(0) = I gives exactly 1
        k = parse_kernel("rq:alpha=2")
        for n in range(31):
            for a in range(n + 1):
                assert tensor_power_quadratic_form(k, 0.0, a, n - a) == 1.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_matches_materialized_kronecker(self, n):
        for spec in ("sqexp:ell=1", "wendland:k=4"):
            k = parse_kernel(spec)
            K = kron_power(_as_array(a_matrix(k, 0.37)), n)
            for a in range(n + 1):
                c = symmetrized_coefficients(a, n - a)
                assert_allclose(np.dot(c, c),
                                math.factorial(a) * math.factorial(n - a)
                                / math.factorial(n), rtol=1e-14)
                direct = float(c @ K @ c) / float(c @ c)
                assert_allclose(tensor_power_quadratic_form(k, 0.37, a, n - a),
                                direct, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("spec", A2_KERNELS)
    def test_matches_exact_rational_sum(self, spec):
        k = parse_kernel(spec)
        for t in (0.05, 0.3, 0.7, 1.5):
            m = a_matrix(k, t)
            for n in (1, 2, 5, 12, 31, 60):
                for a in range(0, n + 1, 1 if n <= 12 else 7):
                    exact, tol = exact_weight(m.a11, m.a12, m.a21, m.a22,
                                              a, n - a)
                    got = tensor_power_quadratic_form(k, t, a, n - a)
                    assert abs(got - exact) <= tol, (t, a, n - a)

    def test_swap_exchanges_the_coordinates(self):
        # N_{a,b}(A) = N_{b,a}(P A P) with P the coordinate swap; the
        # oracle is evaluated on the swapped side
        k = parse_kernel("matern52")
        for t in (0.2, 0.9):
            m = a_matrix(k, t)
            for a, b in ((3, 0), (5, 2), (9, 8), (40, 1)):
                got = tensor_power_quadratic_form(k, t, a, b)
                swapped, tol = exact_weight(m.a22, m.a21, m.a12, m.a11, b, a)
                assert abs(got - swapped) <= tol, (t, a, b)

    def test_bounded_by_operator_norm_power(self):
        k = parse_kernel("matern52")
        for t in (0.1, 0.4, 1.0):
            op = operator_norm(_as_array(a_matrix(k, t)))
            for n in (2, 5, 8, 40):
                for a in range(n + 1):
                    qf = tensor_power_quadratic_form(k, t, a, n - a)
                    assert abs(qf) <= op**n * (1 + 1e-12)

    @pytest.mark.parametrize("spec", A2_KERNELS)
    def test_array_lags_match_scalar_lags(self, spec):
        k = parse_kernel(spec)
        t = np.linspace(-1.5, 1.5, 13)
        for a, b in ((0, 0), (1, 0), (0, 3), (3, 2), (7, 6), (40, 1)):
            got = tensor_power_quadratic_form(k, t, a, b)
            assert got.shape == t.shape
            assert_allclose(got, [tensor_power_quadratic_form(k, ti, a, b) for ti in t],
                            rtol=1e-15, atol=1e-300)

    def test_rejects_bad_orders(self):
        k = parse_kernel("sqexp:ell=1")
        for a, b in ((-1, 2), (1, -2), (1.5, 0)):
            with pytest.raises(DomainError):
                tensor_power_quadratic_form(k, 0.1, a, b)


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
        nhs = np.linalg.norm(np.stack([_as_array(a_matrix(k, ti)) for ti in t]),
                             axis=(1, 2)) / math.sqrt(2.0)
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
