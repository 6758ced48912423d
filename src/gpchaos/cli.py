"""Command-line front end: reproducible JSON/CSV verification reports.

Every report embeds the library version and the fully-resolved run
configuration, so a report is enough to rerun the numbers.  Verdicts are
data, not process outcomes: a kernel failing an admissibility check is a
successful run (exit 0).  Exit codes: 0 success, 2 usage or parse error,
3 runtime evaluation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from . import montecarlo as mc
from .asymptotics import fit_decay_exponent, iter_integral_series, series_to_csv
from .chaos import (
    QuadLog,
    chaos_spectrum,
    laplace_decay_constant,
    parse_functional,
    regularization_exponent,
    sobolev_norm,
    spectrum_to_csv,
    spectrum_to_dict,
)
from .conditions import condition_report, report_to_dict
from .errors import DomainError, NonFiniteResult
from .kernels import parse_kernel
from .verify import _RUNTIME_ERRORS, battery


def _jsonable(value):
    """Convert numpy scalars/arrays and tuples so json.dumps accepts them."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _emit(text: str, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _strict_json(value, **kwargs) -> str:
    """JSON text with no NaN or Infinity tokens; a non-finite number is a
    runtime failure, not a report."""
    try:
        return json.dumps(_jsonable(value), allow_nan=False, sort_keys=True, **kwargs)
    except ValueError as exc:
        raise NonFiniteResult(f"report holds a non-finite number ({exc})") from None


def _json_report(payload: dict) -> str:
    return _strict_json(payload, indent=2) + "\n"


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
    p.add_argument("--level", type=_finite_float, default=0.0)
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
    config = {
        "command": "conditions",
        "kernel": kernel.spec_string(),
        "format": args.format,
        "seed": args.seed,
    }
    payload = report_to_dict(condition_report(kernel))
    payload["version"] = __version__
    payload["config"] = config
    return _json_report(payload)


def cmd_asymptotics(args) -> str:
    if args.n_min < 0 or args.n_max < args.n_min:
        raise DomainError(f"bad order window [{args.n_min}, {args.n_max}]")
    config = {
        "command": "asymptotics",
        "n_min": args.n_min,
        "n_max": args.n_max,
        "format": args.format,
        "seed": args.seed,
    }
    orders = sorted(set(int(round(v)) for v in np.geomspace(max(args.n_min, 1), args.n_max, 40)))
    entries = iter_integral_series(1.0, 1.0, orders)
    if args.format == "csv":
        return _csv_with_config(series_to_csv(entries), config)
    series = fit_decay_exponent(entries)
    payload = {
        "schema": "decay-report/1",
        "version": __version__,
        "config": config,
        "entries": [[n, v] for n, v in entries],
        "fit": {
            "slope": series.fitted_slope,
            "log_constant": series.fitted_log_constant,
            "window": list(series.fit_window),
            "residual": series.residual,
        },
    }
    return _json_report(payload)


def cmd_chaos(args) -> str:
    kernel = parse_kernel(args.kernel)
    functional = parse_functional(args.functional)
    if functional.degree is not None and args.n_max < functional.degree:
        raise DomainError(
            f"n_max={args.n_max} is below the functional degree {functional.degree}"
        )
    alphas = args.alphas if args.alphas else [0.0]
    config = {
        "command": "chaos",
        "kernel": kernel.spec_string(),
        "functional": functional.spec_string(),
        "n_min": args.n_min,
        "n_max": args.n_max,
        "alphas": alphas,
        "format": args.format,
        "seed": args.seed,
    }
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
        orders = sorted(set(int(round(v)) for v in np.geomspace(lo, hi, 12)))
        with quad_errors:
            series = regularization_exponent(kernel, "hermite1d", orders)
        regularization["orders"] = orders
        regularization["slope"] = series.fitted_slope
        regularization["log_constant"] = series.fitted_log_constant
    except _RUNTIME_ERRORS as exc:
        regularization["skipped"] = str(exc)
    try:
        regularization["laplace_constant"] = laplace_decay_constant(kernel)
    except _RUNTIME_ERRORS as exc:
        regularization["laplace_constant"] = None

    payload = {
        "schema": "chaos-report/1",
        "version": __version__,
        "config": config,
        "spectrum": spectrum_to_dict(spectrum),
        "sobolev": sobolev,
        "regularization": regularization,
        "diagnostics": {
            "max_quad_error": quad_errors.max_error,
            "quad_within_tolerance": quad_errors.within_tolerance,
        },
    }
    return _json_report(payload)


def cmd_simulate(args) -> str:
    kernel = parse_kernel(args.kernel)
    functionals = [parse_functional(s) for s in args.functionals] if args.functionals else None
    config = {
        "command": "simulate",
        "kernel": kernel.spec_string(),
        "functionals": [f.spec_string() for f in functionals] if functionals else None,
        "level": args.level,
        "paths": args.paths,
        "grid": args.grid,
        "format": args.format,
        "seed": args.seed,
    }
    plan = mc.build_embedding_plan(kernel, args.grid)
    payload = {
        "schema": "simulate-report/1",
        "version": __version__,
        "config": config,
        "diagnostics": {
            "embedding_size": plan.embedding_size,
            "support_size": plan.support.size,
            "clipped": plan.clipped,
            "min_eigenvalue": plan.min_eigenvalue,
            "notes": plan.notes,
        },
    }
    if functionals is None:
        stats = mc.crossing_statistics(
            kernel, args.level, n_paths=args.paths, grid_points=args.grid, seed=args.seed,
            plan=plan,
        )
        payload["crossings"] = {
            "level": stats.level,
            "mean": stats.mean,
            "variance": stats.variance,
            "second_moment": stats.second_moment,
            "std_error": stats.std_error,
            "rice_mean": mc.rice_crossing_mean(kernel, args.level),
        }
    else:
        outs = mc.mc_integrated_functionals(
            functionals, kernel, n_paths=args.paths, grid_points=args.grid, seed=args.seed,
            plan=plan,
        )
        payload["moments"] = [
            {
                "functional": out.functional,
                "mean": out.mean,
                "mean_std_error": out.mean_std_error,
                "second_moment": out.second_moment,
                "std_error": out.std_error,
            }
            for out in outs
        ]
    return _json_report(payload)


def cmd_verify_all(args) -> str:
    kernel = parse_kernel(args.kernel)
    config = {
        "command": "verify-all",
        "kernel": kernel.spec_string(),
        "paths": args.paths,
        "grid": args.grid,
        "format": args.format,
        "seed": args.seed,
    }
    checks = battery(kernel, args.paths, args.grid, args.seed)
    statuses = [c["status"] for c in checks]
    payload = {
        "schema": "verify-all/1",
        "version": __version__,
        "config": config,
        "checks": checks,
        "passed": statuses.count("pass"),
        "failed": statuses.count("fail"),
        "skipped": statuses.count("skip"),
        "all_pass": "fail" not in statuses,
    }
    return _json_report(payload)


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
        text = handler(args)
    except (*_RUNTIME_ERRORS, NonFiniteResult) as exc:
        # a bare DomainError is a bad value inside a well-formed flag, a
        # usage problem; its subclasses and the rest are runtime failures
        print(f"gpchaos: {exc}", file=sys.stderr)
        return 2 if type(exc) is DomainError else 3
    _emit(text, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
