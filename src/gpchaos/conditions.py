"""Integrability and nondegeneracy checks gating the chaos machinery.

Three verdicts per kernel:

* A1 -- the moving-average kernel b and its derivative lie in L1 and L2
  (boundedness is tracked as well), and ||b||_2 > 0.  Membership is decided
  from the local-singularity metadata carried by the b representation; the
  numeric norm values come from the package's integrator (closed forms) or
  the sampled grid (numeric inversions).
* A2 -- the fourth derivative of r exists near 0 and the discriminant
  r''''(0) - r''(0)^2 is strictly positive.
* G  -- (r''(t) - r''(0))/t is absolutely integrable on (0, delta]; decided
  from the lowest non-even exponent p of r at 0, since the integrand
  behaves like t^(p - 3): it holds when r''(0) exists and p > 2 or r has
  no such term.  The integral's value is reported alongside.

``condition_report`` bundles the three into one serializable document.
"""

import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import NoBRepresentation, NotDifferentiable
from .kernels import Kernel, b_representation, r_derivatives_at_zero
from .quadrature import integrate

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
# numeric norms
#
# The b representation describes behavior at 0 as one of: None (bounded),
# "log" (logarithmic divergence), or a float p < 0 (growth like |x|^p).


def _closed_integral(f, sing, k, scale):
    """Integral of |f|^k over (0, inf), where f behaves like ``sing`` at 0;
    returns (value, quadrature error estimate).  A power singularity x^p
    sets the endpoint map to 1 / (k p + 1), which leaves the integrand
    constant at 0; a logarithm takes the cube."""
    if sing is None:
        power = 1.0
    elif sing == "log":
        power = 3.0
    else:
        power = 1.0 / (k * sing + 1.0)
    (value,), (error,) = integrate(
        lambda x, _: np.abs(f(x))[None] ** k, [k], 0.0, math.inf, power, scale)
    return value, error


def _closed_sup(f, scale):
    xs = np.linspace(0.0, 8.0 * scale, 4097)
    xs[0] = 1e-9 * scale  # odd derivatives jump at 0; probe the limit
    return float(np.abs(f(xs)).max())


def _norm_checks(fun, vals_grid, x_grid, sing, scale, errs):
    """L1/L2/Linf checks for one function (b or b'). ``vals_grid`` is None
    for closed-form representations.  A logarithm lies in every Lk, |x|^p
    in Lk when k p > -1, and only a bounded function in Linf."""
    checks = []
    for k in (1, 2):
        if not (sing is None or sing == "log" or k * sing > -1.0):
            checks.append(NormCheck(False, math.inf))
            continue
        if vals_grid is None:
            v, e = _closed_integral(fun, sing, k, scale)
            errs.append(e)
        else:
            v = np.trapezoid(np.abs(vals_grid) ** k, x_grid)
        checks.append(NormCheck(True, float(2.0 * v) ** (1.0 / k)))
    if sing is not None:
        checks.append(NormCheck(False, math.inf))
    elif vals_grid is None:
        checks.append(NormCheck(True, _closed_sup(fun, scale)))
    else:
        checks.append(NormCheck(True, float(np.max(np.abs(vals_grid)))))
    return checks


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


def _geman_delta(kernel: Kernel) -> float:
    return float(min(1.0, kernel.length_scale))


def check_geman(kernel: Kernel) -> GemanReport:
    """Integrability of (r''(t) - r''(0))/t on (0, delta], delta =
    min(1, length scale), from the Taylor exponent of r at 0.

    With p the lowest non-even exponent of r at 0 (``_odd_taylor_power``),
    the integrand behaves like t^(p - 3), so the condition holds when p > 2
    or r has no such term.  The integral is reported as well, from one
    adaptive pass; for 2 < p < 3 the map t = delta u^(1/(p - 2)) leaves its
    leading term constant.  Raises NotDifferentiable when r''(0) does not
    exist.
    """
    delta = _geman_delta(kernel)
    r2_0 = kernel.r2_zero()  # NotDifferentiable propagates
    p = kernel._odd_taylor_power()
    term = "no non-even term" if p is None else f"lowest non-even term |t|^{p:g}"
    if p is not None and p <= 2.0:
        return GemanReport(delta, math.inf, False, (f"r has {term} at 0",))
    power = 1.0 / (p - 2.0) if p is not None and p < 3.0 else 1.0
    (value,), (error,) = integrate(
        lambda t, _: np.abs((kernel.r_second(t) - r2_0) / t)[None], [0], 0.0, delta, power)
    notes = (f"r has {term} at 0; integral quadrature error estimate {error:.2e}",)
    return GemanReport(delta, float(value), True, notes)


def condition_report(kernel: Kernel) -> ConditionReport:
    """Full verdict document for one kernel.

    ``check_geman``'s NotDifferentiable is absorbed here: a kernel whose
    second derivative fails to exist cannot satisfy the crossing condition,
    and the aggregate report should say so rather than raise.
    """
    a1 = check_a1(kernel)
    a2 = check_a2(kernel)
    try:
        geman = check_geman(kernel)
    except NotDifferentiable as exc:
        geman = GemanReport(_geman_delta(kernel), math.nan, False, (str(exc),))
    notes = []
    if a2.holds and not geman.holds:
        notes.append(
            "invariant violation: nondegeneracy holds but the crossing "
            "integrability test failed")
    return ConditionReport(kernel.spec_string(), a1, a2, geman,
                           tuple(notes))


# --------------------------------------------------------------------------
# serialization


def _record(value):
    """A report record as JSON data: its fields but ``notes``, a non-finite float as None."""
    if is_dataclass(value):
        return {f.name: _record(getattr(value, f.name)) for f in fields(value) if f.name != "notes"}
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def report_to_dict(report: ConditionReport) -> dict:
    """The report's records, with the notes of all four parts in one list."""
    parts = (report.a1, report.a2, report.geman, report)
    return {"schema": "condition-report/1", **_record(report),
            "notes": [note for part in parts for note in part.notes]}
