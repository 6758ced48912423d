"""Integrability and nondegeneracy checks gating the chaos machinery.

Three verdicts per kernel:

* A1 -- the moving-average kernel b and its derivative lie in L1 and L2
  (boundedness is tracked as well), and ||b||_2 > 0.  Membership is decided
  from the local-singularity metadata carried by the b representation; the
  numeric norm values come from the package's integrator (closed forms) or
  the sampled grid (numeric inversions).
* A2 -- r''''(0) exists and the discriminant r''''(0) - r''(0)^2 is
  strictly positive.
* G  -- (r''(t) - r''(0))/t is absolutely integrable on (0, delta]; with p
  the lowest non-even exponent of r at 0, the integrand behaves like
  t^(p - 3), so it holds exactly when r''(0) exists (p > 2 or r has no such
  term).  The integral's value is reported alongside.

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


# --------------------------------------------------------------------------
# numeric norms


def _closed_sup(f, scale):
    xs = np.linspace(0.0, 8.0 * scale, 4097)
    xs[0] = 1e-9 * scale  # odd derivatives jump at 0; probe the limit
    return float(np.abs(f(xs)).max())


def _norm_checks(fun, vals_grid, x_grid, sing, scale, errs):
    """L1/L2/Linf checks for one function (b or b'), which behaves like
    ``sing`` at 0 (as ``BKernel.b_singularity`` says). ``vals_grid`` is None
    for closed-form representations.  A logarithm lies in every Lk, |x|^p
    in Lk when k p > -1, and only a bounded function in Linf."""
    checks = []
    for k in (1, 2):
        if not (sing is None or sing == "log" or k * sing > -1.0):
            checks.append(NormCheck(False, math.inf))
            continue
        if vals_grid is None:
            (v,), (e,) = integrate(lambda x, _: np.abs(fun(x))[None] ** k, [k], math.inf,
                                   sing if sing in (None, "log") else k * sing, scale)
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
    return A1Report(b1, b2, binf, p1, p2, pinf, positive, holds,
                    tuple(notes))


def check_a2(kernel: Kernel) -> A2Report:
    """Existence of r''''(0) and positivity of r''''(0) - r''(0)^2."""
    d = r_derivatives_at_zero(kernel)
    holds = d.r4_available and d.discriminant > 0.0
    notes = d.notes
    if d.r4_available and not holds:
        notes += ("discriminant is not strictly positive",)
    return A2Report(d.r2, d.r4, d.discriminant, holds, notes)


def check_geman(kernel: Kernel) -> GemanReport:
    """Integrability of (r''(t) - r''(0))/t on (0, delta], delta =
    min(1, length scale), from the Taylor exponent of r at 0.

    With p the lowest non-even exponent of r at 0 (``_odd_taylor_power``),
    the integrand behaves like t^(p - 3), so the condition holds exactly
    when r''(0) exists: p > 2, or r has no such term.  The integral is
    reported as well, from one adaptive pass.  A kernel without r''(0)
    fails, with the NotDifferentiable message as its note.
    """
    delta = float(min(1.0, kernel.length_scale))
    try:
        r2_0 = kernel.r2_zero()
    except NotDifferentiable as exc:
        return GemanReport(delta, math.nan, False, (str(exc),))
    p = kernel._odd_taylor_power()
    (value,), (error,) = integrate(
        lambda t, _: np.abs((kernel.r_second(t) - r2_0) / t)[None], [0], delta,
        None if p is None else p - 3.0)
    term = "no non-even term" if p is None else f"lowest non-even term |t|^{p:g}"
    notes = (f"r has {term} at 0; integral quadrature error estimate {error:.2e}",)
    return GemanReport(delta, float(value), True, notes)


def condition_report(kernel: Kernel) -> ConditionReport:
    """Full verdict document for one kernel."""
    return ConditionReport(kernel.spec_string(), check_a1(kernel), check_a2(kernel),
                           check_geman(kernel))


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
    """The report's records, with the notes of its three parts in one list."""
    parts = (report.a1, report.a2, report.geman)
    return {"schema": "condition-report/1", **_record(report),
            "notes": [note for part in parts for note in part.notes]}
