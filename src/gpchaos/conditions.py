"""Integrability and nondegeneracy checks gating the chaos machinery.

Three verdicts per kernel:

* A1 -- the moving-average kernel b and its derivative lie in L1 and L2
  (boundedness is tracked as well), and ||b||_2 > 0.  Membership is decided
  from the local-singularity metadata carried by the b representation; the
  numeric norm values come from adaptive quadrature (closed forms) or the
  sampled grid (numeric inversions).
* A2 -- the fourth derivative of r exists near 0 and the discriminant
  r''''(0) - r''(0)^2 is strictly positive.
* G  -- (r''(t) - r''(0))/t is absolutely integrable on (0, delta]; decided
  by dyadic refinement toward 0 with a Cauchy threshold, a numeric proxy
  for membership that is recorded as such in the report.

``condition_report`` bundles the three into one serializable document.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, NoBRepresentation, NotDifferentiable
from .kernels import Kernel, b_representation, r_derivatives_at_zero

__all__ = [
    "A1Report",
    "A2Report",
    "ConditionReport",
    "GemanReport",
    "NormCheck",
    "check_a1",
    "check_a2",
    "check_geman",
    "condition_report",
    "report_to_dict",
]

GEMAN_CAUCHY_TOL = 1e-6


@dataclass(frozen=True)
class NormCheck:
    """One membership verdict: is the norm finite, and its numeric value."""

    finite: bool
    value: float


@dataclass(frozen=True)
class A1Report:
    b_in_L1: NormCheck
    b_in_L2: NormCheck
    b_in_Linf: NormCheck
    bprime_in_L1: NormCheck
    bprime_in_L2: NormCheck
    bprime_in_Linf: NormCheck
    b_L2_positive: bool
    holds: bool
    notes: tuple = ()


@dataclass(frozen=True)
class A2Report:
    r2: float
    r4: float
    discriminant: float
    holds: bool
    notes: tuple = ()


@dataclass(frozen=True)
class GemanReport:
    delta: float
    integral: float
    holds: bool
    notes: tuple = ()


@dataclass(frozen=True)
class ConditionReport:
    kernel: str
    a1: A1Report
    a2: A2Report
    geman: GemanReport
    notes: tuple = ()


# --------------------------------------------------------------------------
# local-singularity bookkeeping
#
# The b representation describes behavior at 0 as one of: None (bounded),
# "log" (logarithmic divergence), or a float p < 0 (growth like |x|^p).


def _in_l1(sing):
    return sing is None or sing == "log" or sing > -1.0


def _in_l2(sing):
    return sing is None or sing == "log" or sing > -0.5


def _in_linf(sing):
    return sing is None


# --------------------------------------------------------------------------
# numeric norms


def _closed_integral(f, scale):
    """Integral of f over (0, inf) split at a window edge; returns
    (value, quadrature error bound)."""
    edge = 8.0 * scale
    body, body_err = quad(f, 0.0, edge, limit=200)
    tail, tail_err = quad(f, edge, np.inf, limit=200)
    return body + tail, body_err + tail_err


def _closed_sup(f, scale):
    xs = np.linspace(0.0, 8.0 * scale, 4097)
    xs[0] = 1e-9 * scale  # odd derivatives jump at 0; probe the limit
    return float(np.abs(f(xs)).max())


def _norm_checks(fun, vals_grid, x_grid, sing, scale, errs):
    """L1/L2/Linf checks for one function (b or b'). ``vals_grid`` is None
    for closed-form representations."""
    if _in_l1(sing):
        if vals_grid is None:
            v, e = _closed_integral(lambda x: abs(fun(x)), scale)
            errs.append(e)
            l1 = NormCheck(True, 2.0 * v)
        else:
            l1 = NormCheck(True, float(
                2.0 * np.trapezoid(np.abs(vals_grid), x_grid)))
    else:
        l1 = NormCheck(False, math.inf)
    if _in_l2(sing):
        if vals_grid is None:
            v, e = _closed_integral(lambda x: fun(x) ** 2, scale)
            errs.append(e)
            l2 = NormCheck(True, math.sqrt(2.0 * v))
        else:
            l2 = NormCheck(True, float(math.sqrt(
                2.0 * np.trapezoid(vals_grid**2, x_grid))))
    else:
        l2 = NormCheck(False, math.inf)
    if _in_linf(sing):
        if vals_grid is None:
            linf = NormCheck(True, _closed_sup(fun, scale))
        else:
            linf = NormCheck(True, float(np.max(np.abs(vals_grid))))
    else:
        linf = NormCheck(False, math.inf)
    return l1, l2, linf


def check_a1(kernel: Kernel) -> A1Report:
    """Membership of b and b' in L1, L2, L_inf, plus ||b||_2 > 0.

    A kernel without a moving-average representation fails with a
    diagnostic rather than raising; smoothness away from 0 is structural
    for every catalog family and is not retested numerically.
    """
    try:
        rep = b_representation(kernel)
    except NoBRepresentation as exc:
        bad = NormCheck(False, math.nan)
        return A1Report(bad, bad, bad, bad, bad, bad, False, False,
                        (str(exc),))
    scale = kernel.length_scale
    errs = []
    if rep.grid is not None:
        x, b_vals, bp_vals, _ = rep.grid
    else:
        x = b_vals = bp_vals = None
    b1, b2, binf = _norm_checks(rep.b, b_vals, x, rep.b_singularity,
                                scale, errs)
    p1, p2, pinf = _norm_checks(rep.b_prime, bp_vals, x,
                                rep.bprime_singularity, scale, errs)
    positive = b2.finite and b2.value > 0.0
    holds = all(c.finite for c in (b1, b2, binf, p1, p2, pinf)) and positive
    notes = list(rep.notes)
    notes.append(f"tail model {rep.tail[0]!r}, parameter {rep.tail[1]:g}")
    if errs:
        notes.append(f"quadrature error bounds <= {max(errs):.2e}")
    if rep.truncation_error:
        notes.append(
            f"grid truncation bound {rep.truncation_error:.2e}")
    return A1Report(b1, b2, binf, p1, p2, pinf, positive, holds,
                    tuple(notes))


def check_a2(kernel: Kernel) -> A2Report:
    """Existence of r''''(0) and positivity of r''''(0) - r''(0)^2."""
    d = r_derivatives_at_zero(kernel)
    notes = list(d.notes)
    if not d.r4_available:
        if d.r2_available:
            notes.append("fourth derivative does not exist near 0")
        else:
            notes.append("second derivative does not exist at 0")
        return A2Report(d.r2, d.r4, d.discriminant, False, tuple(notes))
    holds = d.discriminant > 0.0
    if not holds:
        notes.append("discriminant is not strictly positive")
    return A2Report(d.r2, d.r4, d.discriminant, holds, tuple(notes))


def check_geman(kernel: Kernel, delta: float = None) -> GemanReport:
    """Dyadic-refinement integrability of (r''(t) - r''(0))/t on (0, delta].

    Slices [delta/2^{j+1}, delta/2^j] are integrated one at a time; the
    partial sums converge (Cauchy, threshold 1e-6) exactly when successive
    refinements stop contributing.  Raises NotDifferentiable when r''(0)
    does not exist.
    """
    if delta is None:
        delta = min(1.0, kernel.length_scale)
    if delta <= 0:
        raise DomainError("delta must be positive")
    r2_0 = kernel.r2_zero()  # NotDifferentiable propagates

    def integrand(t):
        return abs((kernel.r_second(t) - r2_0) / t)

    total = 0.0
    hi = delta
    converged = False
    notes = [
        "dyadic-refinement Cauchy criterion, threshold "
        f"{GEMAN_CAUCHY_TOL:g}; a numeric proxy for L1 membership",
    ]
    for _ in range(60):
        lo = hi / 2.0
        slice_val = quad(integrand, lo, hi, limit=100)[0]
        total += slice_val
        hi = lo
        if slice_val < GEMAN_CAUCHY_TOL:
            converged = True
            break
    if not converged:
        notes.append(
            f"refinement stalled: last slice contributed {slice_val:.3e} "
            f"above threshold; integral reported down to t = {hi:.3e}")
    return GemanReport(float(delta), total, converged, tuple(notes))


def condition_report(kernel: Kernel, delta: float = None) -> ConditionReport:
    """Full verdict document for one kernel.

    ``check_geman``'s NotDifferentiable is absorbed here: a kernel whose
    second derivative fails to exist cannot satisfy the crossing condition,
    and the aggregate report should say so rather than raise.
    """
    a1 = check_a1(kernel)
    a2 = check_a2(kernel)
    try:
        geman = check_geman(kernel, delta)
    except NotDifferentiable as exc:
        d = delta if delta is not None else min(1.0, kernel.length_scale)
        geman = GemanReport(float(d), math.nan, False, (str(exc),))
    notes = []
    if a2.holds and not geman.holds:
        notes.append(
            "invariant violation: nondegeneracy holds but the crossing "
            "integrability test failed")
    return ConditionReport(kernel.spec_string(), a1, a2, geman,
                           tuple(notes))


# --------------------------------------------------------------------------
# serialization


def _json_value(v):
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def _norm_dict(c: NormCheck):
    return {"finite": c.finite, "value": _json_value(c.value)}


def report_to_dict(report: ConditionReport) -> dict:
    a1 = report.a1
    doc = {
        "schema": "condition-report/1",
        "kernel": report.kernel,
        "a1": {
            "b_in_L1": _norm_dict(a1.b_in_L1),
            "b_in_L2": _norm_dict(a1.b_in_L2),
            "b_in_Linf": _norm_dict(a1.b_in_Linf),
            "bprime_in_L1": _norm_dict(a1.bprime_in_L1),
            "bprime_in_L2": _norm_dict(a1.bprime_in_L2),
            "bprime_in_Linf": _norm_dict(a1.bprime_in_Linf),
            "b_L2_positive": a1.b_L2_positive,
            "holds": a1.holds,
        },
        "a2": {
            "r2": _json_value(report.a2.r2),
            "r4": _json_value(report.a2.r4),
            "discriminant": _json_value(report.a2.discriminant),
            "holds": report.a2.holds,
        },
        "geman": {
            "delta": report.geman.delta,
            "integral": _json_value(report.geman.integral),
            "holds": report.geman.holds,
        },
        "notes": list(report.a1.notes) + list(report.a2.notes)
        + list(report.geman.notes) + list(report.notes),
    }
    return doc

