"""The verification battery behind ``gpchaos verify-all`` and the acceptance
tests: one function per check, of the kernel and the sizes it uses, returning
``(passed, detail)``.  The tolerances are written here once.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import covstruct
from . import montecarlo as mc
from .asymptotics import (
    fit_decay_exponent,
    gauss_theorem_value,
    geometric_orders,
    hyp2f1_terminating,
    iter_integral_closed_form,
    iter_integral_series,
)
from .chaos import (
    integrated_chaos_norms,
    laplace_decay_constant,
    parse_functional,
    regularization_exponent,
)
from .conditions import condition_report
from .errors import DomainError, GpchaosError, whole
from .kernels import fd_derivatives_at_zero, r_derivatives_at_zero, reconstruct_r

__all__ = [
    "battery", "b_reconstruction", "closed_form", "condition_verdicts", "derivative_fd",
    "determinism_replay", "gauss_identity", "hs_bound", "mean_square_derivative",
    "regularization_slope",
]

GAUSS_TOL = 1e-11  # relative, terminating 2F1 against the Gauss sum
CLOSED_FORM_TOL = 1e-10  # absolute, closed form against quadrature
ANCHOR_TOL = 1e-12  # absolute, closed form at n = 0 and 1
SLOPE_TOL = 0.05  # distance of a fitted decay slope from -1/2
FD_TOL = 1e-6  # relative, analytic derivatives at 0 against Richardson
RECONSTRUCTION_TOL = 1e-5  # absolute, b * b against r on [0, 3]
Z_GATE = 3.0  # Monte Carlo standard errors
LEADING_ORDER_TOL = 0.05  # relative, difference-quotient residual vs r4 h^2 / 4
CONSTANT_GAP_TOL = 0.10  # relative, pinned-slope constant vs the Laplace constant

REGULARIZATION_ORDERS = geometric_orders(20, 200, 25)
REPLAY_GRID = 512  # grid points of the determinism replay


def gauss_identity():
    """Terminating 2F1(-1/2, -n-1; 1/2; 1) equals the Gauss-sum value, n <= 50."""
    worst = 0.0
    for n in range(51):
        closed = gauss_theorem_value(n)
        direct = hyp2f1_terminating(-0.5, -n - 1.0, 0.5, 1.0)
        worst = max(worst, abs(direct - closed) / abs(closed))
    return worst <= GAUSS_TOL, {"max_rel_error": worst, "tolerance": GAUSS_TOL}


def closed_form():
    """Iterated-integral closed form against quadrature (n <= 30, one pass
    on shared nodes), its two anchors, and its n^(-1/2) decay slope over n
    in [50, 400]."""
    worst = max(
        abs(iter_integral_closed_form(n) - value)
        for n, value in iter_integral_series(1.0, 1.0, range(31))
    )
    anchor0 = abs(iter_integral_closed_form(0) - 0.5)
    anchor1 = abs(iter_integral_closed_form(1) - 5.0 / 12.0)
    orders = geometric_orders(50, 400, 25)
    series = fit_decay_exponent([(n, iter_integral_closed_form(n)) for n in orders])
    ok = (
        worst <= CLOSED_FORM_TOL
        and anchor0 <= ANCHOR_TOL
        and anchor1 <= ANCHOR_TOL
        and abs(series.fitted_slope + 0.5) <= SLOPE_TOL
    )
    return ok, {
        "max_abs_error": worst,
        "anchor_errors": [anchor0, anchor1],
        "slope": series.fitted_slope,
    }


def condition_verdicts(kernel):
    """The A1, A2 and Geman verdicts; reported, never failed."""
    report = condition_report(kernel)
    return True, {
        "a1_holds": report.a1.holds,
        "a2_holds": report.a2.holds,
        "geman_holds": report.geman.holds,
    }


def derivative_fd(kernel):
    """Analytic r''(0), and r''''(0) where it exists, against the
    finite-difference oracle."""
    analytic = r_derivatives_at_zero(kernel)
    kernel.r2_zero()  # NotDifferentiable: the check does not apply
    fd = fd_derivatives_at_zero(kernel)
    rel2 = abs(fd["r2"] - analytic.r2) / abs(analytic.r2)
    detail = {"r2_rel_error": rel2}
    ok = rel2 <= FD_TOL
    if analytic.r4_available:
        rel4 = abs(fd["r4"] - analytic.r4) / abs(analytic.r4)
        detail["r4_rel_error"] = rel4
        ok = ok and rel4 <= FD_TOL
    return ok, detail


def b_reconstruction(kernel, points):
    """The moving-average kernel reconstructs r at ``points`` lags on [0, 3]."""
    t = np.linspace(0.0, 3.0, points)
    worst = float(np.abs(reconstruct_r(kernel, t) - kernel.r(t)).max())
    return worst <= RECONSTRUCTION_TOL, {"max_abs_error": worst, "window": [0.0, 3.0]}


def hs_bound(kernel):
    """The HS expansion is concave at 0 and the fitted quadratic bound holds."""
    derivs = covstruct.hs_expansion_derivatives(kernel)
    fit = covstruct.quadratic_bound_fit(kernel)
    return derivs["second"] < 0.0 and fit.holds, {
        "second_derivative": derivs["second"],
        "c_hat": fit.c_hat,
        "window": fit.window,
    }


def _judge_chaos(kernel, functionals, outs):
    """Integrated chaos norm of each Hermite functional within ``Z_GATE``
    standard errors of its Monte Carlo second moment in ``outs``."""
    detail = {}
    ok = True
    for functional, out in zip(functionals, outs):
        target = integrated_chaos_norms(functional, kernel, n_max=functional.degree)[
            functional.degree
        ]
        z = (out.second_moment - target) / out.second_std_error
        detail[functional.spec_string()] = {"target": target, "z": z}
        ok = ok and abs(z) <= Z_GATE
    return ok, detail


def _judge_crossings(kernel, stats):
    """Mean zero crossings on [0, 1] of ``stats`` at the Rice value."""
    rice = mc.rice_crossing_mean(kernel, 0.0)
    z = (stats.mean - rice) / stats.std_error
    return abs(z) <= Z_GATE, {"mean": stats.mean, "rice": rice, "z": z}


def _built(plan):
    """``plan``; the GpchaosError of a failed build is raised again."""
    if isinstance(plan, GpchaosError):
        raise plan
    return plan


def mean_square_derivative(kernel, paths, grid, seed, plan=None):
    """The difference-quotient residual is r''''(0) h^2 / 4 to leading order
    at h = 0.01, and matches Monte Carlo at h = 0.05 (on ``plan``)."""
    analytic = mc.ms_derivative_residual(kernel, 0.01)
    leading = kernel.r4_zero() / 4.0 * 0.01**2  # NotDifferentiable without r(0)
    rel = abs(analytic / leading - 1.0)
    h, residual = mc.ms_derivative_check(kernel, 0.05, paths, grid, seed, plan=_built(plan))
    z = (residual.mean - mc.ms_derivative_residual(kernel, h)) / residual.std_error
    return rel <= LEADING_ORDER_TOL and abs(z) <= Z_GATE, {
        "leading_order_rel_error": rel,
        "mc_z": z,
        "h": h,
    }


def regularization_slope(kernel):
    """rho_n of the 1-D Hermite ladder decays like n^(-1/2) with the Laplace
    constant, over n in [20, 200]."""
    constant = laplace_decay_constant(kernel)
    series = regularization_exponent(kernel, "hermite1d", REGULARIZATION_ORDERS)
    # The freely fitted intercept absorbs any slope error over a finite
    # window, so judge the constant with the slope pinned at -1/2.
    pinned = math.exp(
        math.fsum(math.log(v) + 0.5 * math.log(n) for n, v in series.entries)
        / len(series.entries)
    )
    gap = abs(pinned / constant - 1.0)
    ok = abs(series.fitted_slope + 0.5) <= SLOPE_TOL and gap <= CONSTANT_GAP_TOL
    return ok, {
        "slope": series.fitted_slope,
        "constant_rel_gap": gap,
        "laplace_constant": constant,
    }


def determinism_replay(kernel, seed, plan=None):
    """Crossing statistics are identical at one and two workers (on
    ``plan``, a REPLAY_GRID embedding).  The paths fill one sampler chunk
    and one pair of a second, so the two-worker run hands a chunk to each
    of its threads; a second chunk would only add time and memory."""
    plan = mc.build_embedding_plan(kernel, REPLAY_GRID) if plan is None else _built(plan)
    paths = 2 * mc._pair_chunk(plan) + 1
    one, two = (
        mc.crossing_statistics(kernel, 0.0, paths, REPLAY_GRID, seed, workers=workers, plan=plan)
        for workers in (1, 2)
    )
    return one == two, {"mean": one.mean, "second_moment": one.second_moment, "paths": paths}


def _run(name, fn):
    """Run one check; a package error (the check does not apply to the
    kernel, or its numerics failed) is a skip, never a crash."""
    try:
        passed, detail = fn()
    except GpchaosError as exc:
        return {"name": name, "status": "skip", "detail": {"reason": str(exc)}}
    return {"name": name, "status": "pass" if passed else "fail", "detail": detail}


def battery(kernel, paths, grid, seed, plan=None):
    """The eleven checks of ``verify-all`` as (name, status, detail) entries;
    the Monte Carlo checks draw ``paths`` >= 2 paths (at most 6,000 for the
    derivative check) on ``grid`` points from a nonnegative integer
    ``seed``.  They share one embedding plan on ``grid`` (``plan``, if given),
    and ``chaos-vs-monte-carlo`` and ``level-crossings`` one sampler pass.  A
    failed build is not retried: ``plan`` is its GpchaosError, which each
    Monte Carlo check skips with."""
    if paths < 2:
        raise DomainError(f"the battery needs at least 2 paths, got {paths}")
    whole(seed, f"seed={seed} must be a nonnegative integer")
    try:
        plan = mc.build_embedding_plan(kernel, grid) if plan is None else plan
    except GpchaosError as exc:
        plan = exc
    functionals = [parse_functional(s) for s in ("H:1", "H:2")]
    shared = functools.cache(lambda: mc.mc_integrated_functionals(
        functionals, kernel, paths, grid, seed, plan=_built(plan), level=0.0))
    checks = (
        ("gauss-hypergeometric-identity", gauss_identity),
        ("iterated-integral-closed-form", closed_form),
        ("condition-verdicts", lambda: condition_verdicts(kernel)),
        ("derivative-finite-difference", lambda: derivative_fd(kernel)),
        ("b-reconstruction", lambda: b_reconstruction(kernel, 13)),
        ("hs-quadratic-bound", lambda: hs_bound(kernel)),
        ("chaos-vs-monte-carlo", lambda: _judge_chaos(kernel, functionals, shared()[:-1])),
        ("level-crossings", lambda: _judge_crossings(kernel, shared()[-1])),
        ("mean-square-derivative",
         lambda: mean_square_derivative(kernel, min(paths, 6000), grid, seed, plan)),
        ("regularization-slope", lambda: regularization_slope(kernel)),
        ("determinism-replay",
         lambda: determinism_replay(kernel, seed, plan if grid == REPLAY_GRID else None)),
    )
    return [_run(name, fn) for name, fn in checks]
