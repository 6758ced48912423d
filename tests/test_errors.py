"""Tests for the whole-number check and the entry points that use it.

Each entry point takes a count or an order; NaN, the infinities and
fractions must all end in ``DomainError``, never in the ``ValueError`` or
``OverflowError`` that ``int()`` raises on them.
"""

import math

import numpy as np
import pytest

from gpchaos import montecarlo as mc
from gpchaos.asymptotics import gauss_theorem_value, iter_integral_closed_form
from gpchaos.chaos import Functional, point_chaos_norms
from gpchaos.covstruct import tensor_power_quadratic_form
from gpchaos.errors import DomainError, whole
from gpchaos.kernels import Wendland, parse_kernel
from gpchaos.specfun import hermite, hyp2f1_terminating

SQEXP = parse_kernel("sqexp")
H1 = Functional(kind="H", m=1)
BAD = [math.nan, math.inf, -math.inf, 2.5]


class TestWhole:
    @pytest.mark.parametrize("value", [0, 3, 3.0, np.int64(7), np.float64(2.0)])
    def test_whole_numbers_come_back_as_int(self, value):
        got = whole(value, "unused")
        assert got == value and type(got) is int

    @pytest.mark.parametrize("value", BAD + [-1, "3", None])
    def test_everything_else_is_a_domain_error(self, value):
        with pytest.raises(DomainError, match="^count must be whole$"):
            whole(value, "count must be whole")

    def test_bounds_are_inclusive(self):
        assert whole(2, "", low=2, high=2) == 2
        for value in (1, 3):
            with pytest.raises(DomainError):
                whole(value, "", low=2, high=2)


ENTRY_POINTS = {
    "build_embedding_plan": lambda v: mc.build_embedding_plan(SQEXP, v),
    "crossing_statistics.n_paths": lambda v: mc.crossing_statistics(SQEXP, 0.0, v, 64, 0),
    "crossing_statistics.seed": lambda v: mc.crossing_statistics(SQEXP, 0.0, 4, 64, v),
    "mc_integrated_functionals": lambda v: mc.mc_integrated_functionals([H1], SQEXP, v, 64, 0),
    "ms_derivative_check": lambda v: mc.ms_derivative_check(SQEXP, 0.1, v, 64, 0),
    "sample_paths": lambda v: list(mc.sample_paths(SQEXP, 64, v, 0)),
    "point_chaos_norms": lambda v: point_chaos_norms(H1, SQEXP, v),
    "Functional": lambda v: Functional(kind="H", m=v),
    "iter_integral_closed_form": iter_integral_closed_form,
    "gauss_theorem_value": gauss_theorem_value,
    "hermite": lambda v: hermite(v, np.zeros(3)),
    "hermite.ladder": lambda v: hermite({1, v}, np.zeros(3)),
    "hyp2f1_terminating": lambda v: hyp2f1_terminating(-0.5, -v, 0.5, 1.0),
    "tensor_power_quadratic_form": lambda v: tensor_power_quadratic_form(SQEXP, 0.3, 1, v),
    "maternhi": lambda v: parse_kernel(f"maternhi:m={v!r}"),
    "Wendland": lambda v: Wendland(k=v),
}


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
@pytest.mark.parametrize("value", BAD, ids=["nan", "inf", "-inf", "fraction"])
def test_non_whole_argument_is_a_domain_error(call, value):
    with pytest.raises(DomainError):
        call(value)


NON_FINITE_ENTRY_POINTS = {
    "count_crossings.level": lambda v: mc.count_crossings([1.0, -1.0, 1.0], v),
    "crossing_statistics.level": lambda v: mc.crossing_statistics(SQEXP, v, 4, 64, 0),
    "rice_crossing_mean.level": lambda v: mc.rice_crossing_mean(SQEXP, v),
    "mc_integrated_functionals.level": lambda v: mc.mc_integrated_functionals(
        [H1], SQEXP, 4, 64, 0, level=v),
    "ms_derivative_residual.h": lambda v: mc.ms_derivative_residual(SQEXP, v),
    "ms_derivative_check.h": lambda v: mc.ms_derivative_check(SQEXP, v, 4, 64, 0),
}


@pytest.mark.parametrize("call", NON_FINITE_ENTRY_POINTS.values(),
                         ids=NON_FINITE_ENTRY_POINTS.keys())
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_level_or_lag_is_a_domain_error(call, value):
    with pytest.raises(DomainError, match="must be finite"):
        call(value)
