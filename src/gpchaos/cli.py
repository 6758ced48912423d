"""Command-line front end: reproducible JSON/CSV verification reports.

Every report embeds the library version and the fully-resolved run
configuration, so a report is enough to rerun the numbers.  Verdicts are
data, not process outcomes: a kernel failing an admissibility check is a
successful run (exit 0).  Exit codes: 0 success, 2 usage or parse error,
3 runtime evaluation failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from . import montecarlo as mc
from .asymptotics import (
    fit_decay_exponent,
    geometric_orders,
    iter_integral_series,
    series_to_csv,
)
from .chaos import (
    chaos_spectrum,
    laplace_decay_constant,
    parse_functional,
    regularization_exponent,
    sobolev_norm,
    spectrum_to_csv,
    spectrum_to_dict,
)
from .conditions import condition_report, report_to_dict
from .errors import DomainError, GpchaosError, NonFiniteResult
from .kernels import parse_kernel
from .quadrature import QuadLog
from .verify import battery


def _emit(text: str, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _numpy_value(value):
    """``json.dumps`` hook: a real numpy scalar or array as its Python value,
    extended precision, which has no Python type, as floats."""
    if isinstance(value, (np.generic, np.ndarray)) and value.dtype.kind != "c":
        return (value.astype(float) if value.dtype.kind == "f" else value).tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _strict_json(value, **kwargs) -> str:
    """JSON text with no NaN or Infinity tokens; a non-finite number is a
    runtime failure, not a report."""
    try:
        return json.dumps(value, allow_nan=False, sort_keys=True, default=_numpy_value, **kwargs)
    except ValueError as exc:
        raise NonFiniteResult(f"report holds a non-finite number ({exc})") from None


def _config(args, **resolved) -> dict:
    """The run configuration: every parsed option but ``--out``, with the
    values the run resolved from them (canonical kernel and functional
    specs, default alphas, the crossing level) in place of the raw text."""
    return {**{k: v for k, v in vars(args).items() if k != "out"}, **resolved}


def _report(schema: str, config: dict, **body) -> str:
    """A JSON report: the schema, version and config envelope around ``body``."""
    return _strict_json(
        {"schema": schema, "version": __version__, "config": config, **body}, indent=2) + "\n"


def _csv_with_config(body: str, config: dict) -> str:
    header = f"# gpchaos {__version__}\n# config: {_strict_json(config)}\n"
    return header + body


def _finite_float(text: str) -> float:
    """argparse type for float flags: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite value: {text!r}")
    return value


def _add_common(parser, formats=("json",)):
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")
    parser.add_argument("--out", default=None, help="output file (default: stdout)")
    parser.add_argument(
        "--format",
        choices=list(formats),
        default=formats[0],
        help=f"output format (default {formats[0]})",
    )


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpchaos",
        description="Verification reports for time-averaged Gaussian-process functionals.",
    )
    parser.add_argument("--version", action="version", version=f"gpchaos {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("conditions", help="admissibility verdicts for a covariance kernel")
    p.add_argument("--kernel", required=True, help="kernel specification, e.g. sqexp:ell=1")
    _add_common(p)

    p = sub.add_parser("asymptotics", help="iterated-integral decay series and slope fit")
    p.add_argument("--n-min", type=int, default=50, dest="n_min")
    p.add_argument("--n-max", type=int, default=400, dest="n_max")
    _add_common(p, formats=("json", "csv"))

    p = sub.add_parser("chaos", help="chaos spectrum and regularization fit for a functional")
    p.add_argument("--kernel", required=True)
    p.add_argument("--functional", default="H:1", help="e.g. H:3, H2:1,1, sign, abs, ind:0.5")
    p.add_argument("--n-min", type=int, default=20, dest="n_min", help="slope fit window start")
    p.add_argument("--n-max", type=int, default=40, dest="n_max", help="spectrum truncation order")
    p.add_argument(
        "--alpha",
        type=_finite_float,
        action="append",
        dest="alphas",
        help="smoothness weight for norm summaries (repeatable; default 0)",
    )
    _add_common(p, formats=("json", "csv"))

    p = sub.add_parser("simulate", help="Monte Carlo crossings or functional moments")
    p.add_argument("--kernel", required=True)
    p.add_argument(
        "--functional",
        action="append",
        dest="functionals",
        help="integrated functional to estimate (repeatable); omit for level crossings",
    )
    p.add_argument(
        "--level", type=_finite_float, default=None,
        help="crossing level (default 0); not with --functional",
    )
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--grid", type=int, default=2048)
    _add_common(p)

    p = sub.add_parser("verify-all", help="aggregate pass/fail battery on one kernel")
    p.add_argument("--kernel", default="sqexp")
    p.add_argument("--paths", type=int, default=20000)
    p.add_argument("--grid", type=int, default=512)
    _add_common(p)
    return parser


# ---------------------------------------------------------------------------
# subcommands


def cmd_conditions(args) -> str:
    kernel = parse_kernel(args.kernel)
    body = report_to_dict(condition_report(kernel))
    return _report(body.pop("schema"), _config(args, kernel=kernel.spec_string()), **body)


def cmd_asymptotics(args) -> str:
    lo = max(args.n_min, 1)
    if args.n_min < 0 or args.n_max < lo:
        raise DomainError(f"bad order window [{args.n_min}, {args.n_max}]")
    config = _config(args)
    entries = iter_integral_series(geometric_orders(lo, args.n_max, 40))
    if args.format == "csv":
        return _csv_with_config(series_to_csv(entries), config)
    series = fit_decay_exponent(entries)
    return _report(
        "decay-report/1",
        config,
        entries=[[n, v] for n, v in entries],
        fit={
            "slope": series.fitted_slope,
            "log_constant": series.fitted_log_constant,
            "window": list(series.fit_window),
            "residual": series.residual,
        },
    )


def cmd_chaos(args) -> str:
    kernel = parse_kernel(args.kernel)
    functional = parse_functional(args.functional)
    if args.n_min < 0:
        raise DomainError(f"bad fit window start n_min={args.n_min}")
    if functional.degree is not None and args.n_max < functional.degree:
        raise DomainError(
            f"n_max={args.n_max} is below the functional degree {functional.degree}"
        )
    alphas = args.alphas if args.alphas else [0.0]
    config = _config(
        args, kernel=kernel.spec_string(), functional=functional.spec_string(), alphas=alphas
    )
    with QuadLog() as quad_errors:
        spectrum = chaos_spectrum(functional, kernel, n_max=args.n_max)
    if args.format == "csv":
        return _csv_with_config(spectrum_to_csv(spectrum), config)

    sobolev = {}
    for alpha in alphas:
        point = sobolev_norm(spectrum.point_norms, alpha)
        integrated = sobolev_norm(spectrum.integrated_norms, alpha + 0.5)
        sobolev[f"{alpha:g}"] = {
            "point": float(point),
            "point_converged": point.converged,
            "integrated_half_up": float(integrated),
            "integrated_converged": integrated.converged,
            "ratio": float(integrated) / float(point) if point > 0 else None,
        }

    regularization = {"family": "hermite1d"}
    try:
        lo = max(args.n_min, 1)
        hi = max(args.n_max, lo + 5)
        orders = geometric_orders(lo, hi, 12)
        with quad_errors:
            series = regularization_exponent(kernel, "hermite1d", orders)
        regularization["orders"] = orders
        regularization["slope"] = series.fitted_slope
        regularization["log_constant"] = series.fitted_log_constant
    except GpchaosError as exc:
        regularization["skipped"] = str(exc)
    try:
        regularization["laplace_constant"] = laplace_decay_constant(kernel)
    except GpchaosError:
        regularization["laplace_constant"] = None

    return _report(
        "chaos-report/1",
        config,
        spectrum=spectrum_to_dict(spectrum),
        sobolev=sobolev,
        regularization=regularization,
        diagnostics={
            "max_quad_error": quad_errors.max_error,
            "quad_within_tolerance": quad_errors.within_tolerance,
        },
    )


def _plan_diagnostics(plan) -> dict:
    """The plan a report's Monte Carlo ran on, with the derivative channel's
    variance sum lambda^2 eig / m over the support as a share of -r''(0)."""
    variance = plan.angular_frequencies[plan.support] ** 2 @ plan.eigenvalues[plan.support]
    return {
        "embedding_size": plan.embedding_size,
        "support_size": plan.support.size,
        "synthesis": "direct" if plan.direct_synthesis else "band",
        "band_length": None if plan.direct_synthesis else plan.band_length,
        "clipped": plan.clipped,
        "min_eigenvalue": plan.min_eigenvalue,
        "periodization_bias": plan.periodization_bias,
        "derivative_variance_ratio": variance / plan.embedding_size / plan.sigma**2,
        "notes": plan.notes,
    }


def cmd_simulate(args) -> str:
    kernel = parse_kernel(args.kernel)
    functionals = [parse_functional(s) for s in args.functionals] if args.functionals else None
    if functionals and args.level is not None:
        raise DomainError("--level sets the crossing level; functional runs take none")
    level = 0.0 if args.level is None and not functionals else args.level
    config = _config(
        args,
        kernel=kernel.spec_string(),
        functionals=[f.spec_string() for f in functionals] if functionals else None,
        level=level,
    )
    plan = mc.build_embedding_plan(kernel, args.grid)
    body = {"diagnostics": _plan_diagnostics(plan)}
    if functionals is None:
        stats = mc.crossing_statistics(
            kernel, level, args.paths, args.grid, args.seed, plan=plan
        )
        body["crossings"] = {
            "level": level,
            "mean": stats.mean,
            "variance": stats.variance,
            "second_moment": stats.second_moment,
            "std_error": stats.std_error,
            "rice_mean": mc.rice_crossing_mean(kernel, level),
        }
    else:
        outs = mc.mc_integrated_functionals(
            functionals, kernel, args.paths, args.grid, args.seed, plan=plan
        )
        body["moments"] = [
            {
                "functional": spec,
                "mean": out.mean,
                "mean_std_error": out.std_error,
                "second_moment": out.second_moment,
                "std_error": out.second_std_error,
            }
            for spec, out in zip(config["functionals"], outs)
        ]
    return _report("simulate-report/1", config, **body)


def cmd_verify_all(args) -> str:
    kernel = parse_kernel(args.kernel)
    plan, checks = battery(kernel, args.paths, args.grid, args.seed)
    statuses = [c["status"] for c in checks]
    return _report(
        "verify-all/1",
        _config(args, kernel=kernel.spec_string()),
        plan={"error": str(plan)} if isinstance(plan, GpchaosError) else _plan_diagnostics(plan),
        checks=checks,
        passed=statuses.count("pass"),
        failed=statuses.count("fail"),
        skipped=statuses.count("skip"),
        all_pass="fail" not in statuses,
    )


_COMMANDS = {
    "conditions": cmd_conditions,
    "asymptotics": cmd_asymptotics,
    "chaos": cmd_chaos,
    "simulate": cmd_simulate,
    "verify-all": cmd_verify_all,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = _COMMANDS[args.command]
    try:
        # numpy warnings would precede the one error line; a non-finite
        # result still fails, through NonFiniteResult or the integrator
        with np.errstate(all="ignore"):
            text = handler(args)
    except (GpchaosError, ArithmeticError) as exc:
        # a bare DomainError is a bad value inside a well-formed flag, a
        # usage problem; its subclasses and the rest are runtime failures,
        # such as float arithmetic that overflows, named with the kernel
        where = f"{args.kernel}: " if isinstance(exc, ArithmeticError) and "kernel" in args else ""
        print(f"gpchaos: {where}{exc}", file=sys.stderr)
        return 2 if type(exc) is DomainError else 3
    _emit(text, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
