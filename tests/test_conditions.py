"""Tests for the condition-check layer.

The verdict table is pinned against the known classification of the
catalog: squared exponential, Matern52 (and its generic-order twin),
rational quadratic alpha=2, and Wendland k=4 satisfy both integrability and
nondegeneracy; Matern12 satisfies neither; Matern32 only integrability;
cosine fails nondegeneracy with a vanishing discriminant; the periodic
kernel satisfies nondegeneracy with an explicit discriminant formula.
Norm values for the squared exponential are closed-form Gaussian moments.
"""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from gpchaos.conditions import (
    check_a1,
    check_a2,
    check_geman,
    condition_report,
    report_to_dict,
)
from gpchaos.errors import DomainError, NotDifferentiable
from gpchaos.kernels import b_representation, parse_kernel

VERDICTS = [
    # spec string, a1, a2
    ("sqexp:ell=1", True, True),
    ("matern12", False, False),
    ("matern32", True, False),
    ("matern52", True, True),
    ("matern:nu=2.5", True, True),
    ("rq:alpha=2", True, True),
    ("wendland:k=4", True, True),
    ("cosine", False, False),
    ("periodic:T=2,ell=0.8", False, True),
    ("gammaexp:gamma=1.5", False, False),
    ("gammaexp:gamma=1", False, False),
]

# A1 norms of wendland:k=4 at version 0.2.0, when its b came from a
# Gauss-Legendre spectral density with about 1e-11 of clipped noise.
WENDLAND4_A1_0_2_0 = {
    "b_in_L1": 0.72715384,
    "b_in_L2": 0.99999999999,
    "b_in_Linf": 1.9498754,
    "bprime_in_L1": 3.9666588,
    "bprime_in_L2": 4.7207747,
    "bprime_in_Linf": 7.5879101,
}


class TestVerdictTable:
    @pytest.mark.parametrize("spec,a1_expected,a2_expected", VERDICTS,
                             ids=[v[0] for v in VERDICTS])
    def test_holds_flags(self, spec, a1_expected, a2_expected):
        k = parse_kernel(spec)
        assert check_a1(k).holds is a1_expected
        assert check_a2(k).holds is a2_expected

    @pytest.mark.parametrize("spec,a1_expected,a2_expected", VERDICTS,
                             ids=[v[0] for v in VERDICTS])
    def test_nondegeneracy_implies_crossing_integrability(
            self, spec, a1_expected, a2_expected):
        rep = condition_report(parse_kernel(spec))
        if rep.a2.holds:
            assert rep.geman.holds
        assert rep.notes == ()  # no invariant violations on the catalog

    def test_generic_and_half_integer_matern_agree(self):
        rg = condition_report(parse_kernel("matern:nu=2.5"))
        rh = condition_report(parse_kernel("matern52"))
        assert (rg.a1.holds, rg.a2.holds, rg.geman.holds) == \
            (rh.a1.holds, rh.a2.holds, rh.geman.holds)
        assert_allclose(rg.a2.discriminant, rh.a2.discriminant, rtol=1e-12)


class TestA1:
    def test_sqexp_norm_values_closed_form(self):
        # b = a e^{-2x^2} with a = sqrt(2/sqrt(pi)):
        #   ||b||_1 = pi^{1/4},  ||b||_2 = 1,  ||b||_inf = a,
        #   ||b'||_1 = 2a,  ||b'||_2 = sqrt(2),  ||b'||_inf = 2a e^{-1/2}
        a1 = check_a1(parse_kernel("sqexp:ell=1"))
        amp = math.sqrt(2.0 / math.sqrt(math.pi))
        assert_allclose(a1.b_in_L1.value, math.pi**0.25, rtol=1e-8)
        assert_allclose(a1.b_in_L2.value, 1.0, rtol=1e-8)
        assert_allclose(a1.b_in_Linf.value, amp, rtol=1e-6)
        assert_allclose(a1.bprime_in_L1.value, 2.0 * amp, rtol=1e-8)
        assert_allclose(a1.bprime_in_L2.value, math.sqrt(2.0), rtol=1e-8)
        assert_allclose(a1.bprime_in_Linf.value,
                        2.0 * amp * math.exp(-0.5), rtol=1e-5)
        assert a1.b_L2_positive

    def test_matern12_unbounded_pieces(self):
        a1 = check_a1(parse_kernel("matern12"))
        assert a1.b_in_L1.finite and a1.b_in_L2.finite
        assert not a1.b_in_Linf.finite
        assert a1.b_in_Linf.value == math.inf
        # b' behaves like 1/x at 0: no L1, L2, or bound
        assert not a1.bprime_in_L1.finite
        assert not a1.bprime_in_L2.finite
        assert not a1.bprime_in_Linf.finite
        assert a1.b_L2_positive and not a1.holds

    def test_matern12_l2_norm_is_one(self):
        a1 = check_a1(parse_kernel("matern12"))
        assert_allclose(a1.b_in_L2.value, 1.0, rtol=1e-7)

    def test_gammaexp_cusp_derivative_not_square_integrable(self):
        a1 = check_a1(parse_kernel("gammaexp:gamma=1.5"))
        assert a1.b_in_L1.finite and a1.b_in_L2.finite and \
            a1.b_in_Linf.finite
        assert a1.bprime_in_L1.finite
        assert not a1.bprime_in_L2.finite
        assert not a1.bprime_in_Linf.finite
        assert not a1.holds

    def test_no_moving_average_representation(self):
        a1 = check_a1(parse_kernel("cosine"))
        assert not a1.holds and not a1.b_L2_positive
        assert math.isnan(a1.b_in_L1.value)
        assert any("not integrable" in n for n in a1.notes)

    def test_grid_family_unit_l2(self):
        a1 = check_a1(parse_kernel("rq:alpha=2"))
        assert a1.holds
        assert_allclose(a1.b_in_L2.value, 1.0, rtol=1e-6)
        assert any(n.startswith("tail model") for n in a1.notes)

    def test_wendland_b_from_closed_form_density(self):
        kernel = parse_kernel("wendland:k=4")
        rep = b_representation(kernel)
        x, b_vals, _, _ = rep.grid
        assert abs(2.0 * np.trapezoid(b_vals**2, x) - 1.0) <= 1e-12
        assert not any("clipped negative spectral noise" in n for n in rep.notes)
        a1 = check_a1(kernel)
        for name, value in WENDLAND4_A1_0_2_0.items():
            assert_allclose(getattr(a1, name).value, value, rtol=1e-4, err_msg=name)
        assert a1.holds
        assert check_a2(kernel).holds


class TestA2:
    def test_cosine_discriminant_zero(self):
        a2 = check_a2(parse_kernel("cosine"))
        assert abs(a2.discriminant) <= 1e-9
        assert not a2.holds
        assert any("not strictly positive" in n for n in a2.notes)

    def test_periodic_discriminant_formula(self):
        # 8 pi^4 (ell^2 + 1) / (T ell)^4
        for T, ell in [(2.0, 0.8), (math.pi, 1.0), (1.0, 2.0)]:
            a2 = check_a2(parse_kernel(f"periodic:T={T},ell={ell}"))
            expected = 8.0 * math.pi**4 * (ell**2 + 1.0) / (T * ell) ** 4
            assert_allclose(a2.discriminant, expected, rtol=1e-6)
            assert a2.holds

    def test_nonexistent_derivatives_fail_with_diagnostics(self):
        a2 = check_a2(parse_kernel("matern32"))
        assert not a2.holds and math.isnan(a2.r4)
        assert_allclose(a2.r2, -3.0, rtol=1e-15)
        assert any("fourth derivative" in n for n in a2.notes)
        a2lo = check_a2(parse_kernel("matern12"))
        assert any("second derivative" in n for n in a2lo.notes)

    def test_discrepancy_flags_surface_in_notes(self):
        assert any("printed" in n
                   for n in check_a2(parse_kernel("rq:alpha=2")).notes)
        assert any("printed" in n
                   for n in check_a2(parse_kernel("wendland:k=4")).notes)
        assert any("printed" in n
                   for n in check_a2(parse_kernel("matern:nu=2.5")).notes)


class TestGeman:
    def test_default_delta(self):
        assert check_geman(parse_kernel("sqexp:ell=2")).delta == 1.0
        assert check_geman(parse_kernel("matern52:ell=0.5")).delta == 0.5

    def test_integral_matches_direct_quadrature(self):
        # independent route: one adaptive quadrature over (0, delta]
        for spec in ("sqexp:ell=1", "matern52", "rq:alpha=2"):
            k = parse_kernel(spec)
            rep = check_geman(k)
            r2_0 = k.r2_zero()
            direct = quad(lambda t: abs((k.r_second(t) - r2_0) / t),
                          1e-12, rep.delta, limit=400)[0]
            assert_allclose(rep.integral, direct, atol=2e-6)

    def test_matern32_integrand_bounded_near_zero(self):
        # (r''(t) - r''(0))/t -> 6 sqrt(3) as t -> 0; integrable although
        # the fourth derivative does not exist
        k = parse_kernel("matern32")
        r2_0 = k.r2_zero()
        val = (k.r_second(1e-8) - r2_0) / 1e-8
        assert_allclose(val, 6.0 * math.sqrt(3.0), rtol=1e-6)
        assert check_geman(k).holds

    def test_raises_without_second_derivative(self):
        with pytest.raises(NotDifferentiable):
            check_geman(parse_kernel("matern12"))
        with pytest.raises(NotDifferentiable):
            check_geman(parse_kernel("gammaexp:gamma=1.5"))

    def test_rejects_bad_delta(self):
        with pytest.raises(DomainError):
            check_geman(parse_kernel("sqexp"), delta=0.0)

    def test_report_absorbs_missing_derivative(self):
        rep = condition_report(parse_kernel("matern12"))
        assert not rep.geman.holds
        assert math.isnan(rep.geman.integral)
        assert any("does not exist" in n for n in rep.geman.notes)


class TestSerialization:
    def test_schema_and_field_names(self):
        doc = report_to_dict(condition_report(parse_kernel("sqexp:ell=1")))
        assert doc["schema"] == "condition-report/1"
        assert doc["kernel"] == "sqexp:ell=1"
        assert set(doc["a1"]) == {
            "b_in_L1", "b_in_L2", "b_in_Linf", "bprime_in_L1",
            "bprime_in_L2", "bprime_in_Linf", "b_L2_positive", "holds"}
        assert set(doc["a2"]) == {"r2", "r4", "discriminant", "holds"}
        assert set(doc["geman"]) == {"delta", "integral", "holds"}
        assert doc["a1"]["b_in_L1"] == {
            "finite": True, "value": doc["a1"]["b_in_L1"]["value"]}
        assert isinstance(doc["notes"], list)

    def test_nonfinite_values_serialize_as_null(self):
        doc = report_to_dict(condition_report(parse_kernel("matern12")))
        assert doc["a1"]["b_in_Linf"]["value"] is None
        assert doc["a2"]["r2"] is None
        assert doc["geman"]["integral"] is None
        json.loads(json.dumps(doc))  # strictly JSON-serializable

    def test_json_output_is_deterministic(self):
        k = parse_kernel("matern52")
        assert json.dumps(report_to_dict(condition_report(k)), sort_keys=True, indent=2) == \
            json.dumps(report_to_dict(condition_report(k)), sort_keys=True, indent=2)
