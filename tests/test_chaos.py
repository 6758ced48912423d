"""Tests for chaos spectra, Sobolev norms, and regularization exponents."""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from gpchaos import chaos
from gpchaos.chaos import (
    Functional,
    _scalar_point_norms,
    _time_average_weights,
    chaos_spectrum,
    integrated_chaos_norms,
    laplace_decay_constant,
    parse_functional,
    point_chaos_norms,
    regularization_exponent,
    regularization_rho,
    sobolev_norm,
    spectrum_to_csv,
    spectrum_to_dict,
)
from gpchaos.errors import DomainError, NotDifferentiable, QuadratureFailure
from gpchaos.kernels import parse_kernel
from gpchaos.quadrature import QuadLog

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)

SQEXP = parse_kernel("sqexp")
MATERN52 = parse_kernel("matern52")
MATERN32 = parse_kernel("matern32")
MATERN12 = parse_kernel("matern12")
RQ2 = parse_kernel("rq:alpha=2")

# Closed forms for the unit-time-average contraction on the squared
# exponential kernel; 2 int_0^1 (1-u) e^{-n u^2} du has an elementary
# antiderivative for every n.
SQEXP_H1_INTEGRATED = math.sqrt(math.pi) * math.erf(1.0) - (1.0 - math.exp(-1.0))
SQEXP_H2_INTEGRATED = 2.0 * math.sqrt(math.pi / 2.0) * math.erf(math.sqrt(2.0)) - (
    1.0 - math.exp(-2.0)
)
SQEXP_H1H1_INTEGRATED = (1.0 - math.exp(-2.0)) / 2.0
SQEXP_H1_XDOT_INTEGRATED = 1.0 - math.exp(-1.0)


class TestParseFunctional:
    @pytest.mark.parametrize(
        "text",
        ["H:0", "H:3", "H:2@xdot", "H2:0,0", "H2:1,1", "H2:3,2", "sign",
         "sign@xdot", "abs", "abs@xdot", "ind:0", "ind:1.5", "ind:-2@xdot", "ind:0.123456789"],
    )
    def test_round_trip(self, text):
        func = parse_functional(text)
        assert parse_functional(func.spec_string()) == func

    def test_defaults(self):
        assert parse_functional("H:3").axis == "x"
        assert parse_functional("ind").level == 0.0
        assert parse_functional("ind") == parse_functional("ind:0")
        assert parse_functional(" sign @ xdot ".replace(" ", "")).axis == "xdot"

    def test_fields(self):
        func = parse_functional("H2:3,2")
        assert (func.a, func.b) == (3, 2)
        assert func.degree == 5
        assert func.kind == "H2"
        assert parse_functional("H:4").degree == 4
        assert parse_functional("sign").degree is None

    @pytest.mark.parametrize(
        "text",
        ["", "H", "H:", "H:-1", "H:x", "H:1.5", "H2:1", "H2:1,2,3", "H2:1,-1",
         "H2:1,1@xdot", "sign:3", "abs:1", "ind:abc", "foo", "H:3@y", "@x"],
    )
    def test_rejects(self, text):
        with pytest.raises(DomainError):
            parse_functional(text)

    def test_constructor_validation(self):
        with pytest.raises(DomainError):
            Functional(kind="blah")
        with pytest.raises(DomainError):
            Functional(kind="H", m=-1)
        with pytest.raises(DomainError):
            Functional(kind="H", m=2, axis="t")
        with pytest.raises(DomainError):
            Functional(kind="H2", a=1, b=1, axis="xdot")
        with pytest.raises(DomainError):
            Functional(kind="ind", level=math.inf)
        with pytest.raises(DomainError):
            Functional(kind="H2", a=1, b=-2)


class TestHermiteCoeffs1D:
    # n! c_n^2 from the closed-form coefficients c_n

    def test_sign_exact(self):
        norms = _scalar_point_norms(parse_functional("sign"), 7)
        assert norms[0] == 0.0
        assert norms[2] == 0.0 and norms[4] == 0.0 and norms[6] == 0.0
        assert_allclose(norms[1], (2.0 * PHI0) ** 2, rtol=1e-15)
        assert_allclose(norms[3], 6.0 * (PHI0 / 3.0) ** 2, rtol=1e-15)
        # c_5 = 2 H_4(0) phi(0) / 5! with H_4(0) = 3
        assert_allclose(norms[5], 120.0 * (6.0 * PHI0 / 120.0) ** 2, rtol=1e-15)

    def test_indicator_at_zero_halves_sign(self):
        sgn = _scalar_point_norms(parse_functional("sign"), 9)
        ind = _scalar_point_norms(parse_functional("ind:0"), 9)
        assert ind[0] == 0.25
        assert_allclose(ind[1:], np.asarray(sgn[1:]) / 4.0, rtol=1e-15)

    def test_indicator_level_one(self):
        norms = _scalar_point_norms(parse_functional("ind:1"), 3)
        pdf1 = PHI0 * math.exp(-0.5)
        assert_allclose(norms[0], (0.5 * math.erfc(1.0 / math.sqrt(2.0))) ** 2, rtol=1e-14)
        assert_allclose(norms[1], pdf1**2, rtol=1e-14)
        assert_allclose(norms[2], 2.0 * (pdf1 / 2.0) ** 2, rtol=1e-14)  # H_1(1) = 1

    def test_abs_exact(self):
        norms = _scalar_point_norms(parse_functional("abs"), 6)
        assert_allclose(norms[0], 2.0 / math.pi, atol=1e-10)
        assert norms[1] == 0.0 and norms[3] == 0.0 and norms[5] == 0.0
        assert_allclose(norms[2], 2.0 * (math.sqrt(2.0 / math.pi) / 2.0) ** 2, rtol=1e-15)
        # E[|xi| H_4] = (E|xi|^5 - 6 E|xi|^3 + 3 E|xi|) = -sqrt(2/pi)
        assert_allclose(norms[4], 24.0 * (math.sqrt(2.0 / math.pi) / 24.0) ** 2, rtol=1e-14)

    @pytest.mark.parametrize("spec", ["sign", "abs", "ind:0.5", "ind:-1.3", "ind:3"])
    def test_matches_exact_rational_norms(self, spec):
        # H_k(u) at the double u is an exact rational, so H_{n-1}(u)^2 / n!
        # (and H_{n-2}(0)^2 / n! for abs) is exact up to one rounding; only
        # the Gaussian factor in front is a double.  Extended precision
        # keeps every order to a few ulps; with doubles alone, orders near a
        # zero of H_{n-1}(u) keep about 1e-11.
        func = parse_functional(spec)
        u = Fraction(func.level)
        hermite = [Fraction(1), u]
        for k in range(1, 171):
            hermite.append(u * hermite[k] - k * hermite[k - 1])
        if func.kind == "abs":
            scale, shift = 4.0 * PHI0**2, 2
        elif func.kind == "sign":
            scale, shift = 4.0 * PHI0**2, 1
        else:
            scale, shift = (PHI0 * math.exp(-0.5 * func.level**2)) ** 2, 1
        got = _scalar_point_norms(func, 171)
        rtol = 1e-14 if np.finfo(np.longdouble).nmant >= 63 else 1e-10
        for n in range(2, 172):
            exact = scale * float(Fraction(hermite[n - shift] ** 2, math.factorial(n)))
            assert got[n] == pytest.approx(exact, rel=rtol, abs=0.0), n

    @pytest.mark.parametrize("spec,l2", [("sign", 1.0), ("abs", 1.0), ("ind:0", 0.5)])
    def test_partial_parseval(self, spec, l2):
        partial = math.fsum(_scalar_point_norms(parse_functional(spec), 20))
        assert partial <= l2 + 1e-12
        assert partial >= l2 - 0.2


class TestPointNorms:
    def test_hermite_single_order(self):
        norms = point_chaos_norms(parse_functional("H:3"), SQEXP, 6)
        assert set(norms) == set(range(7))
        assert norms[3] == 6.0
        assert all(norms[n] == 0.0 for n in norms if n != 3)

    def test_hermite_zero(self):
        assert point_chaos_norms(parse_functional("H:0"), SQEXP, 2)[0] == 1.0

    def test_hermite2d_products(self):
        assert point_chaos_norms(parse_functional("H2:1,1"), SQEXP, 4)[2] == 1.0
        assert point_chaos_norms(parse_functional("H2:2,3"), SQEXP, 6)[5] == 12.0

    def test_sign_norms(self):
        norms = point_chaos_norms(parse_functional("sign"), SQEXP, 5)
        assert_allclose(norms[1], 2.0 / math.pi, rtol=1e-14)
        assert_allclose(norms[3], 1.0 / (3.0 * math.pi), rtol=1e-14)
        assert norms[0] == 0.0 and norms[2] == 0.0 and norms[4] == 0.0

    def test_abs_norms(self):
        norms = point_chaos_norms(parse_functional("abs"), SQEXP, 4)
        assert_allclose(norms[0], 2.0 / math.pi, rtol=1e-14)
        assert_allclose(norms[2], 1.0 / math.pi, rtol=1e-14)

    def test_axis_does_not_change_point_norms(self):
        at_x = point_chaos_norms(parse_functional("sign"), SQEXP, 8)
        at_xdot = point_chaos_norms(parse_functional("sign@xdot"), SQEXP, 8)
        assert at_x == at_xdot

    def test_derivative_axis_needs_second_derivative(self):
        with pytest.raises(NotDifferentiable):
            point_chaos_norms(parse_functional("H:1@xdot"), MATERN12, 3)
        with pytest.raises(NotDifferentiable):
            point_chaos_norms(parse_functional("H2:1,1"), MATERN12, 3)
        norms = point_chaos_norms(parse_functional("sign"), MATERN12, 3)
        assert norms[1] > 0.0

    def test_order_beyond_truncation_gives_zero_map(self):
        norms = point_chaos_norms(parse_functional("H:5"), SQEXP, 3)
        assert all(v == 0.0 for v in norms.values())


class TestIntegratedNorms:
    def test_sqexp_h1_closed_form(self):
        norms = integrated_chaos_norms(parse_functional("H:1"), SQEXP, 1)
        assert_allclose(norms[1], SQEXP_H1_INTEGRATED, atol=1e-12)
        assert_allclose(norms[1], 0.861528, atol=5e-7)

    def test_sqexp_h2_closed_form(self):
        norms = integrated_chaos_norms(parse_functional("H:2"), SQEXP, 2)
        assert_allclose(norms[2], SQEXP_H2_INTEGRATED, atol=1e-12)

    def test_sqexp_h1h1_closed_form(self):
        norms = integrated_chaos_norms(parse_functional("H2:1,1"), SQEXP, 2)
        assert_allclose(norms[2], SQEXP_H1H1_INTEGRATED, atol=1e-10)
        assert_allclose(norms[2], 0.43233, atol=5e-6)

    def test_sqexp_h1_on_derivative_axis(self):
        norms = integrated_chaos_norms(parse_functional("H:1@xdot"), SQEXP, 1)
        assert_allclose(norms[1], SQEXP_H1_XDOT_INTEGRATED, atol=1e-12)

    def test_constants_pass_through(self):
        assert integrated_chaos_norms(parse_functional("H:0"), SQEXP, 2)[0] == 1.0
        point = point_chaos_norms(parse_functional("abs"), SQEXP, 2)
        integ = integrated_chaos_norms(parse_functional("abs"), SQEXP, 2)
        assert integ[0] == point[0]

    @pytest.mark.parametrize("kernel", [SQEXP, MATERN52], ids=["sqexp", "matern52"])
    def test_hermite2d_collapses_to_1d(self, kernel):
        for m in range(7):
            two_d = integrated_chaos_norms(Functional(kind="H2", a=m, b=0), kernel, m)[m]
            one_d = integrated_chaos_norms(Functional(kind="H", m=m), kernel, m)[m]
            assert_allclose(two_d, one_d, atol=1e-10)

    def test_hermite2d_collapses_to_derivative_axis(self):
        for m in range(5):
            two_d = integrated_chaos_norms(Functional(kind="H2", a=0, b=m), SQEXP, m)[m]
            one_d = integrated_chaos_norms(
                Functional(kind="H", m=m, axis="xdot"), SQEXP, m
            )[m]
            assert_allclose(two_d, one_d, atol=1e-10)

    def test_h1h1_matches_determinant_oracle_on_matern(self):
        # for H_1(X) H_1(dX/sigma), symmetrized coefficients give the
        # quadratic form (a11 a22 - a12^2)/2, so the integrated norm is
        # 4 int_0^1 (1-u) (a11 a22 - a12^2)/2 du -- no tensor machinery
        kernel = MATERN52
        r2 = kernel.r2_zero()
        sigma = math.sqrt(-r2)

        def qf(u):
            a11 = kernel.r(u)
            a12 = -kernel.r_prime(u) / sigma
            a22 = kernel.r_second(u) / r2
            return 0.5 * (a11 * a22 - a12 * a12)

        expected = 4.0 * quad(lambda u: (1.0 - u) * qf(u), 0.0, 1.0, epsabs=1e-13)[0]
        norms = integrated_chaos_norms(parse_functional("H2:1,1"), kernel, 2)
        assert_allclose(norms[2], expected, rtol=1e-9)

    @pytest.mark.parametrize("kernel", [SQEXP, MATERN52, RQ2],
                             ids=["sqexp", "matern52", "rq2"])
    @pytest.mark.parametrize(
        "spec", ["H:1", "H:2", "H:3", "H:4", "H2:1,1", "sign", "abs", "ind:0",
                 "ind:1", "sign@xdot"],
    )
    def test_averaging_contracts_every_order(self, kernel, spec):
        func = parse_functional(spec)
        point = point_chaos_norms(func, kernel, 10)
        integ = integrated_chaos_norms(func, kernel, 10)
        for n in point:
            assert integ[n] <= point[n] + 1e-12

    def test_cosine_second_order_is_exactly_half(self):
        # 2 int_0^1 (1-u) cos^2(pi u) du = 1/2 + (1 - cos 2pi)/(2pi)^2 = 1/2
        kernel = parse_kernel("cosine")
        norms = integrated_chaos_norms(parse_functional("H:2"), kernel, 2)
        assert_allclose(norms[2], 1.0, atol=1e-12)  # point norm 2! times 1/2

    def test_two_dimensional_needs_fourth_derivative(self):
        with pytest.raises(NotDifferentiable):
            integrated_chaos_norms(parse_functional("H2:1,1"), MATERN32, 2)
        norms = integrated_chaos_norms(parse_functional("sign@xdot"), MATERN32, 5)
        assert 0.0 < norms[1] < point_chaos_norms(parse_functional("sign"), MATERN32, 5)[1]

    def test_two_dimensional_orders_past_twelve(self):
        norms = integrated_chaos_norms(parse_functional("H2:7,6"), SQEXP, 13)
        assert 0.0 < norms[13] <= math.factorial(7) * math.factorial(6)
        assert all(norms[n] == 0.0 for n in range(13))

    def test_bad_n_max(self):
        with pytest.raises(DomainError):
            integrated_chaos_norms(parse_functional("H:1"), SQEXP, -2)


class TestTimeAverage:
    def test_sqexp_closed_form(self):
        # 2 int_0^1 (1-u) e^{-a u^2} du
        #   = 2 (sqrt(pi) erf(sqrt a) / (2 sqrt a) - (1 - e^{-a}) / (2a))
        orders = np.arange(1, 201)
        exact = [
            2.0 * (math.sqrt(math.pi) * math.erf(math.sqrt(a)) / (2.0 * math.sqrt(a))
                   - (1.0 - math.exp(-a)) / (2.0 * a))
            for a in orders.tolist()
        ]
        assert_allclose(_time_average_weights(SQEXP.r, orders), exact, rtol=1e-12, atol=0)

    def test_cosine_trigonometric_sum(self):
        # cos^n(pi u) = 2^-n sum_j C(n, j) cos(k_j u), k_j = (n - 2j) pi, and
        # 2 int_0^1 (1-u) cos(k u) du = 2 (1 - cos k) / k^2, or 1 at k = 0
        def term(k):
            return 1.0 if k == 0 else 2.0 * (1.0 - math.cos(k * math.pi)) / (k * math.pi) ** 2

        orders = range(1, 41)
        exact = [
            math.fsum(math.comb(n, j) * term(n - 2 * j) for j in range(n + 1)) / 2.0**n
            for n in orders
        ]
        got = _time_average_weights(parse_kernel("cosine:ell=1").r, orders)
        assert_allclose(got, exact, rtol=1e-12, atol=0)

    def test_order_zero_is_exactly_one(self):
        got = _time_average_weights(MATERN52.r, [0, 3, 0])
        assert got[0] == 1.0 and got[2] == 1.0 and 0.0 < got[1] < 1.0

    def test_batch_invariance(self):
        # rows share nodes, so a batch may bisect further than one row
        # alone; both results meet the same tolerance
        orders = list(range(1, 151))  # three slices
        batch = _time_average_weights(MATERN52.r, orders)
        for n in (1, 7, 40, 64, 65, 150):
            alone = _time_average_weights(MATERN52.r, [n])[0]
            assert_allclose(batch[n - 1], alone, rtol=2e-11, atol=2e-12)

    def test_slices_bound_the_rows_of_a_pass(self):
        calls = []

        def powers(u, ns):
            calls.append(ns.size)
            return MATERN52.r(u) ** ns[:, None]

        chaos._time_average(powers, np.arange(1, 151))
        assert max(calls) == 64 and sorted(set(calls)) == [22, 64]

    def test_one_integrator_call_per_spectrum_and_fit(self, monkeypatch):
        calls = []
        integrator = chaos._time_average

        def counted(f, keys):
            calls.append(len(keys))
            return integrator(f, keys)

        monkeypatch.setattr(chaos, "_time_average", counted)
        integrated_chaos_norms(parse_functional("abs"), SQEXP, 40)
        regularization_exponent(SQEXP, "hermite1d", range(20, 32))
        regularization_exponent(SQEXP, "hermite2d", range(2, 13))
        assert calls == [20, 12, 11]


class TestQuadLog:
    def test_collects_estimates_only_while_entered(self):
        kernel = parse_kernel("sqexp")
        with QuadLog() as log:
            integrated_chaos_norms(parse_functional("H:3"), kernel, 3)
        first = log.max_error
        assert 0.0 < first <= 1e-11 and log.within_tolerance
        integrated_chaos_norms(parse_functional("H:20"), kernel, 20)
        assert log.max_error == first
        with log:
            integrated_chaos_norms(parse_functional("H2:1,1"), kernel, 2)
        assert log.max_error >= first and log.within_tolerance

    def test_flags_an_estimate_above_tolerance(self):
        # a thousand sharp periodic peaks on [0, 1] exhaust the 200
        # subintervals; nothing goes to the warnings machinery
        with QuadLog() as log, warnings.catch_warnings():
            warnings.simplefilter("error")
            regularization_rho(parse_kernel("periodic:T=0.001,ell=0.05"), "hermite1d", 3)
        assert not log.within_tolerance
        assert log.max_error > 1e-11

    def test_hitting_the_limit_clears_the_flag(self):
        # the interval around the cusp of |u - 1/3|^0.1 misses its share of
        # the tolerance at every width, so the rule bisects it up to the
        # limit, while the summed error estimate stays under the tolerance
        with QuadLog() as log:
            value = chaos._time_average(lambda u, _: np.abs(u - 1.0 / 3.0)[None] ** 0.1, [1])
        assert log.max_error <= 1e-11 * value[0] / 2.0  # the tolerance met
        assert not log.within_tolerance


class TestChaosSpectrum:
    def test_fields_and_identity_strings(self):
        spec = chaos_spectrum(parse_functional("H2:1,1"), SQEXP, 4)
        assert spec.functional == "H2:1,1"
        assert spec.kernel == SQEXP.spec_string()
        assert spec.n_max == 4
        assert set(spec.point_norms) == set(range(5))

    def test_tail_bound_vanishes_for_resolved_hermite(self):
        spec = chaos_spectrum(parse_functional("H:3"), SQEXP, 8)
        assert spec.truncation_tail_bound == 0.0

    def test_tail_bound_catches_dropped_order(self):
        spec = chaos_spectrum(parse_functional("H:3"), SQEXP, 2)
        assert spec.truncation_tail_bound == 6.0

    def test_sign_tail_bound_is_parseval_defect(self):
        spec = chaos_spectrum(parse_functional("sign"), SQEXP, 9)
        expected = 1.0 - math.fsum(spec.point_norms.values())
        assert_allclose(spec.truncation_tail_bound, expected, rtol=1e-12)
        assert 0.1 < spec.truncation_tail_bound < 0.2

    def test_tail_bound_decreases_with_truncation_order(self):
        tails = [
            chaos_spectrum(parse_functional("sign"), SQEXP, n).truncation_tail_bound
            for n in (9, 19, 39)
        ]
        assert tails[0] > tails[1] > tails[2] > 0.0

    def test_indicator_tail_uses_its_l2_mass(self):
        spec = chaos_spectrum(parse_functional("ind:1"), SQEXP, 15)
        sf = 0.5 * math.erfc(1.0 / math.sqrt(2.0))
        assert_allclose(
            spec.truncation_tail_bound,
            sf - math.fsum(spec.point_norms.values()),
            rtol=1e-10,
        )

    def test_csv_shape_and_round_trip(self):
        spec = chaos_spectrum(parse_functional("sign"), SQEXP, 5)
        text = spectrum_to_csv(spec)
        lines = text.strip().splitlines()
        assert lines[0] == "n,point_norm_sq,integrated_norm_sq,rho"
        assert len(lines) == 7
        for line in lines[1:]:
            n, p, q, rho = line.split(",")
            n = int(n)
            assert float(p) == spec.point_norms[n]
            assert float(q) == spec.integrated_norms[n]
            if spec.point_norms[n] > 0.0:
                assert_allclose(
                    float(rho), spec.integrated_norms[n] / spec.point_norms[n], rtol=1e-15
                )
            else:
                assert rho == ""

    def test_dict_schema_and_json(self):
        spec = chaos_spectrum(parse_functional("abs"), MATERN52, 6)
        payload = spectrum_to_dict(spec)
        assert payload["schema"] == "chaos-spectrum/1"
        assert len(payload["point_norms"]) == 7
        assert payload["rho"][1] is None  # abs has no odd mass
        decoded = json.loads(json.dumps(payload, sort_keys=True))
        assert decoded["kernel"] == MATERN52.spec_string()
        assert_allclose(decoded["integrated_norms"], payload["integrated_norms"])


class TestSobolevNorm:
    def test_single_order_values(self):
        norms = point_chaos_norms(parse_functional("H:3"), SQEXP, 8)
        assert_allclose(sobolev_norm(norms, 0.0), math.sqrt(6.0), rtol=1e-15)
        assert_allclose(sobolev_norm(norms, 1.0), math.sqrt(24.0), rtol=1e-15)
        assert_allclose(sobolev_norm(norms, -1.0), math.sqrt(1.5), rtol=1e-15)

    def test_hermite_ladder_is_converged(self):
        norms = point_chaos_norms(parse_functional("H:3"), SQEXP, 8)
        assert sobolev_norm(norms, 1.0).converged

    def test_empty_map(self):
        value = sobolev_norm({}, 0.0)
        assert value == 0.0 and value.converged

    def test_scalar_spectrum_is_flagged_unsettled(self):
        norms = point_chaos_norms(parse_functional("sign"), SQEXP, 41)
        for alpha in (-1.0, 0.0, 1.0):
            value = sobolev_norm(norms, alpha)
            assert float(value) > 0.0
            assert not value.converged

    def test_monotone_in_alpha(self):
        norms = point_chaos_norms(parse_functional("abs"), SQEXP, 20)
        values = [float(sobolev_norm(norms, a)) for a in (-1.0, 0.0, 0.5, 1.0)]
        assert values == sorted(values)

    def test_rejects_negative_mass(self):
        with pytest.raises(DomainError):
            sobolev_norm({0: 1.0, 1: -0.5}, 0.0)
        with pytest.raises(DomainError):
            sobolev_norm({-1: 1.0}, 0.0)

    @pytest.mark.parametrize("kernel", [SQEXP, MATERN52], ids=["sqexp", "matern52"])
    @pytest.mark.parametrize(
        "spec", ["H:1", "H:3", "H2:1,1", "sign", "abs", "ind:0"]
    )
    def test_half_order_gain_inequality(self, kernel, spec):
        # || integrated ||_{alpha + 1/2} <= C_hat || point ||_alpha with
        # C_hat^2 the envelope max_n (1+n)^{1/2} rho_n over the truncation
        func = parse_functional(spec)
        point = point_chaos_norms(func, kernel, 10)
        integ = integrated_chaos_norms(func, kernel, 10)
        c_hat_sq = max(
            math.sqrt(1.0 + n) * integ[n] / point[n]
            for n in point
            if point[n] > 0.0
        )
        for alpha in (-1.0, 0.0, 1.0):
            lhs = float(sobolev_norm(integ, alpha + 0.5))
            rhs = math.sqrt(c_hat_sq) * float(sobolev_norm(point, alpha))
            assert lhs <= rhs * (1.0 + 1e-12)


class TestRegularization:
    def test_rho_zero_is_one(self):
        assert regularization_rho(SQEXP, "hermite1d", 0) == 1.0
        assert_allclose(regularization_rho(SQEXP, "hermite2d", 0), 1.0, rtol=1e-12)

    def test_rho_one_matches_closed_form(self):
        assert_allclose(
            regularization_rho(SQEXP, "hermite1d", 1), SQEXP_H1_INTEGRATED, rtol=1e-12
        )

    def test_two_dimensional_ladder_values(self):
        # regression values, adaptive and 400-node Gauss-Legendre
        # quadratures agreeing to 2e-14; n = 2 is the closed form
        # (1 - e^-2)/2 checked elsewhere
        expected = [0.43233235838169376, 0.31673764387737874, 0.3196165081152478,
                    0.2815927185317017, 0.20415733781124587, 0.17149687396809374,
                    0.1746951137499427, 0.16025467935199436, 0.12998410228325766,
                    0.11610729099499932, 0.11747895346001522]
        got = [regularization_rho(SQEXP, "hermite2d", n) for n in range(2, 13)]
        assert_allclose(got, expected, atol=1e-9)

    def test_two_dimensional_ladder_slope(self):
        fit = regularization_exponent(SQEXP, "hermite2d", range(2, 13))
        assert fit.fitted_slope <= -0.4
        assert_allclose(fit.fitted_slope, -0.76438, atol=5e-4)

    @pytest.mark.parametrize("kernel", [SQEXP, MATERN52], ids=["sqexp", "matern52"])
    def test_one_dimensional_slope_near_minus_half(self, kernel):
        orders = sorted(set(int(round(v)) for v in np.geomspace(20.0, 200.0, 25)))
        fit = regularization_exponent(kernel, "hermite1d", orders)
        assert abs(fit.fitted_slope + 0.5) < 0.05

    @pytest.mark.parametrize("kernel", [SQEXP, MATERN52], ids=["sqexp", "matern52"])
    def test_constant_matches_quadratic_peak_model(self, kernel):
        # compare geometric centroids of the fitted series and the model
        # C n^{-1/2}, C = 2 sqrt(pi / (2 |r''(0)|))
        orders = sorted(set(int(round(v)) for v in np.geomspace(20.0, 200.0, 25)))
        fit = regularization_exponent(kernel, "hermite1d", orders)
        log_n = np.log([n for n, _ in fit.entries])
        log_rho = np.log([v for _, v in fit.entries])
        model = math.log(laplace_decay_constant(kernel)) - 0.5 * float(log_n.mean())
        gap = abs(math.exp(float(log_rho.mean())) - math.exp(model)) / math.exp(model)
        assert gap < 0.10

    def test_laplace_constant_closed_form(self):
        assert_allclose(laplace_decay_constant(SQEXP), math.sqrt(math.pi), rtol=1e-15)
        assert_allclose(
            laplace_decay_constant(MATERN52),
            2.0 * math.sqrt(math.pi / (2.0 * 5.0 / 3.0)),
            rtol=1e-15,
        )

    @pytest.mark.parametrize("kernel", [SQEXP, MATERN52, RQ2],
                             ids=["sqexp", "matern52", "rq2"])
    def test_ladder_contracts_and_decreases(self, kernel):
        rhos = [regularization_rho(kernel, "hermite1d", n) for n in range(16)]
        assert all(0.0 < v <= 1.0 + 1e-12 for v in rhos)
        assert all(rhos[i + 1] <= rhos[i] + 1e-12 for i in range(len(rhos) - 1))

    def test_validation(self):
        with pytest.raises(DomainError):
            regularization_rho(SQEXP, "zigzag", 3)
        with pytest.raises(DomainError):
            regularization_rho(SQEXP, "hermite1d", -1)
        with pytest.raises(DomainError):
            regularization_exponent(SQEXP, "hermite1d", [7])
        with pytest.raises(DomainError):
            regularization_exponent(SQEXP, "hermite1d", [0, 5])

    def test_derivative_gate_propagates(self):
        with pytest.raises(NotDifferentiable):
            regularization_rho(MATERN32, "hermite2d", 2)

    # a kernel spec from a family, a length scale down to 1e-3 and a shape
    # parameter in [0, 1) that each family maps into its own domain
    _SPECS = {
        "sqexp": lambda ell, shape: f"sqexp:ell={ell!r}",
        "matern": lambda ell, shape: f"matern:nu={1.0 + 1e-3 + 4.0 * shape!r},ell={ell!r}",
        "rq": lambda ell, shape: f"rq:alpha={0.1 + 5.0 * shape!r},ell={ell!r}",
        "periodic": lambda ell, shape: f"periodic:T={0.01 + 4.0 * shape!r},ell={ell!r}",
        "cosine": lambda ell, shape: f"cosine:ell={ell!r}",
    }

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(sorted(_SPECS)),
        ell=st.floats(1e-3, 10.0),
        shape=st.floats(0.0, 1.0, exclude_max=True),
        n=st.integers(1, 12),
    )
    @example(family="cosine", ell=1e-3, shape=0.0, n=3)
    def test_rho_is_a_variance_or_a_quadrature_failure(self, family, ell, shape, n):
        # rho_n = 2 int_0^1 (1-u) r(u)^n du is the variance of a time
        # average, so a negative value can only be a quadrature failure
        kernel = parse_kernel(self._SPECS[family](ell, shape))
        try:
            rho = regularization_rho(kernel, "hermite1d", n)
        except QuadratureFailure:
            return
        assert rho >= 0.0

    # kernels with |r| <= 1 and r >= 0: sqexp, Matern and rational quadratic
    _POSITIVE = {
        "sqexp": lambda ell, nu: f"sqexp:ell={ell!r}",
        "matern": lambda ell, nu: f"matern:nu={nu!r},ell={ell!r}",
        "rq": lambda ell, nu: f"rq:alpha={nu - 1.0!r},ell={ell!r}",
    }

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(sorted(_POSITIVE)),
        ell=st.floats(0.05, 10.0),
        nu=st.floats(1.0, 6.0, exclude_min=True),
        n=st.integers(0, 60),
    )
    def test_one_dimensional_rho_contracts_and_decreases(self, family, ell, nu, n):
        kernel = parse_kernel(self._POSITIVE[family](ell, nu))
        rho = regularization_rho(kernel, "hermite1d", n)
        assert rho <= 1.0 + 1e-12
        assert regularization_rho(kernel, "hermite1d", n + 1) <= rho + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(sorted(_POSITIVE)),
        ell=st.floats(0.05, 10.0),
        nu=st.floats(2.0, 6.0, exclude_min=True),
        n=st.integers(0, 40),
    )
    def test_two_dimensional_rho_contracts(self, family, ell, nu, n):
        # |N(u)| <= op(A(u))^n <= 1 at every lag; Matern needs nu > 2 for
        # the fourth derivative
        kernel = parse_kernel(self._POSITIVE[family](ell, nu))
        assert regularization_rho(kernel, "hermite2d", n) <= 1.0 + 1e-12
