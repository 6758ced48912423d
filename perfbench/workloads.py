"""The benchmark's three workloads: the gpchaos commands each one runs, and
the correctness gate every report must pass.

Each workload is a list of ``gpchaos`` argument vectors.  The benchmark seed
is passed to every command as ``--seed``; it selects the Monte Carlo streams
and leaves the deterministic reports unchanged.
"""

from __future__ import annotations

import json
import math

WORKLOADS = ("verify-sparse", "simulate-dense", "reports")

# verify-all at its default sizes: sqexp's embedding has 27 useful modes of
# 4,096, so nearly all of the time goes to drawing modes that are zero.
VERIFY_KERNEL = "sqexp"
VERIFY_CHECKS = 11

# simulate-dense: wide eigen-supports at large embeddings.  The path counts
# give the two commands roughly equal time on one core.
SIMULATE_FUNCTIONALS = ("H:1", "H:2", "H:3", "H:4", "H2:1,1")
SIMULATE_MOMENTS = {"kernel": "matern52", "grid": 2048, "paths": 1900}
SIMULATE_CROSSINGS = {"kernel": "rq:alpha=2,ell=1", "grid": 512, "paths": 480}

# |z| gate on simulate estimates.  A second-moment estimate is scaled by an
# upper bound on its standard error, not by the sample's own: the square of
# a high Hermite order is so heavy tailed that a typical sample misses the
# tail and reports an error bar far too small.
Z_GATE = 6.0

REPORT_KERNELS = (
    "sqexp",
    "matern32",
    "matern52",
    "matern:nu=2.5,ell=1",
    "matern:nu=0.5,ell=1",
    "maternhi:m=3",
    "rq:alpha=2,ell=1",
    "wendland:k=4",
    "gammaexp:gamma=1.5",
    "cosine",
    "periodic:T=2,ell=0.8",
)
CHAOS_KERNELS = ("sqexp", "matern52", "rq:alpha=2,ell=1", "wendland:k=4")
CHAOS_FUNCTIONALS = ("H:3", "sign", "abs", "ind:0.5", "H:2@xdot")
H2_ORDER = 12

# Acceptance criterion 03: kernel -> (A1 holds, A2 holds); None leaves a
# verdict unpinned.  Kernels absent here are only checked for a clean report.
CONDITION_VERDICTS = {
    "sqexp": (True, True),
    "matern:nu=0.5,ell=1": (False, False),
    "matern32": (True, False),
    "matern52": (True, True),
    "matern:nu=2.5,ell=1": (True, True),
    "rq:alpha=2,ell=1": (True, True),
    "wendland:k=4": (None, True),
    "cosine": (None, False),
    "periodic:T=2,ell=0.8": (None, True),
}

# Toy sizes for the smoke test: every command kind, a few seconds in all.
TOY = {
    "verify": {"paths": 400, "grid": 128},
    "moments": {"kernel": "matern52", "grid": 256, "paths": 200},
    "crossings": {"kernel": "rq:alpha=2,ell=1", "grid": 64, "paths": 100},
    "report_kernels": ("sqexp", "matern32", "cosine"),
    "chaos_kernels": ("sqexp",),
    "h2_order": 4,
}


def commands(workload: str, seed: int, toy: bool = False) -> list:
    """The gpchaos argument vectors one run of ``workload`` executes."""
    seed_args = ["--seed", str(seed)]
    if workload == "verify-sparse":
        sizes = (
            ["--paths", str(TOY["verify"]["paths"]), "--grid", str(TOY["verify"]["grid"])]
            if toy
            else []
        )
        return [["verify-all", "--kernel", VERIFY_KERNEL, *sizes, *seed_args]]
    if workload == "simulate-dense":
        moments = TOY["moments"] if toy else SIMULATE_MOMENTS
        crossings = TOY["crossings"] if toy else SIMULATE_CROSSINGS
        functional_args = [a for f in SIMULATE_FUNCTIONALS for a in ("--functional", f)]
        return [
            ["simulate", "--kernel", moments["kernel"], "--grid", str(moments["grid"]),
             "--paths", str(moments["paths"]), *functional_args, *seed_args],
            ["simulate", "--kernel", crossings["kernel"], "--grid", str(crossings["grid"]),
             "--paths", str(crossings["paths"]), *seed_args],
        ]
    if workload == "reports":
        report_kernels = TOY["report_kernels"] if toy else REPORT_KERNELS
        chaos_kernels = TOY["chaos_kernels"] if toy else CHAOS_KERNELS
        order = TOY["h2_order"] if toy else H2_ORDER
        out = [["conditions", "--kernel", k, *seed_args] for k in report_kernels]
        for kernel in chaos_kernels:
            for functional in CHAOS_FUNCTIONALS:
                out.append(["chaos", "--kernel", kernel, "--functional", functional,
                            "--n-max", "40", "--alpha", "0", "--alpha", "1", *seed_args])
            for a in range(order + 1):
                out.append(["chaos", "--kernel", kernel, "--functional",
                            f"H2:{a},{order - a}", "--n-max", str(order), *seed_args])
        out.append(["asymptotics", *seed_args])
        return out
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def sampled_paths(argv) -> int:
    """Paths the command samples: verify-all draws its path count for the
    chaos and crossing checks, up to 6,000 for the derivative check, and
    2 x 500 for its replay check."""
    if argv[0] == "simulate":
        return int(_option(argv, "--paths"))
    if argv[0] == "verify-all":
        paths = int(_option(argv, "--paths")) if "--paths" in argv else 20000
        return 2 * paths + min(paths, 6000) + 1000
    return 0


# A traced run times layers the workload never calls on this reference
# instead, so every per-layer metric exists on every workload; the summary
# marks those metrics as not reached.  A small verify-all calls every layer;
# one H2 chaos report adds the tensor-power form and asymptotics the series.
REFERENCE_COMMANDS = (
    ("verify-all", "--kernel", "sqexp", "--paths", "1000", "--grid", "256"),
    ("chaos", "--kernel", "sqexp", "--functional", "H2:1,1", "--n-max", "2"),
    ("asymptotics",),
)
REFERENCE_SAMPLER = (("sqexp", 256, 2048),)


def sampler_configs(workload: str, toy: bool = False):
    """(kernel, grid, probe paths) of each embedding plan the workload's
    commands build, and whether the workload reaches the sampler at all.

    The probe path counts span a few sampler chunks, about half a second of
    sampling each.
    """
    if workload == "verify-sparse":
        return [(VERIFY_KERNEL, TOY["verify"]["grid"] if toy else 512, 64 if toy else 2048)], True
    if workload == "simulate-dense":
        moments = TOY["moments"] if toy else SIMULATE_MOMENTS
        crossings = TOY["crossings"] if toy else SIMULATE_CROSSINGS
        return [
            (moments["kernel"], moments["grid"], 32 if toy else 256),
            (crossings["kernel"], crossings["grid"], 32 if toy else 64),
        ], True
    if toy:
        return [(spec, grid, 64) for spec, grid, _ in REFERENCE_SAMPLER], False
    return list(REFERENCE_SAMPLER), False


# ---------------------------------------------------------------------------
# correctness gate


class GateFailure(Exception):
    """A report that parsed but violates the workload's contract."""


def _reject_constant(token):
    raise GateFailure(f"non-strict JSON token {token}")


def parse_report(text: str) -> dict:
    """Parse a report as strict JSON: NaN and Infinity tokens are failures."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise GateFailure(f"report is not JSON: {exc}") from None


def _option(argv, flag):
    return argv[argv.index(flag) + 1]


def _check_verify(report):
    if not report.get("all_pass"):
        failing = [c["name"] for c in report.get("checks", []) if c["status"] != "pass"]
        raise GateFailure(f"verify-all did not pass: {failing}")
    if report.get("passed", 0) < VERIFY_CHECKS:
        raise GateFailure(f"only {report.get('passed')} of {VERIFY_CHECKS} checks passed")


def _gate_z(label, estimate, target, std_error):
    if not std_error > 0.0:
        raise GateFailure(f"{label}: standard error {std_error} is not positive")
    z = (estimate - target) / std_error
    if not abs(z) <= Z_GATE:
        raise GateFailure(f"{label}: z = {z:.2f} outside +-{Z_GATE:g} (target {target:.6g})")


def _check_simulate(argv, report, targets):
    if "moments" in report:
        n_paths = int(_option(argv, "--paths"))
        for moment in report["moments"]:
            key = (_option(argv, "--kernel"), moment["functional"])
            target, fourth = targets[key]
            _gate_z(f"{key[0]} {key[1]} second moment", moment["second_moment"],
                    target, math.sqrt(max(fourth - target * target, 0.0) / n_paths))
    else:
        crossings = report["crossings"]
        key = (_option(argv, "--kernel"), "crossings")
        _gate_z(f"{key[0]} crossing mean", crossings["mean"], targets[key],
                crossings["std_error"])


def _check_conditions(argv, report):
    expected = CONDITION_VERDICTS.get(_option(argv, "--kernel"))
    if expected is None:
        return
    got = (report["a1"]["holds"], report["a2"]["holds"])
    for want, have, name in zip(expected, got, ("a1", "a2")):
        if want is not None and want != have:
            raise GateFailure(f"{name} verdict {have}, criterion 03 expects {want}")


def _check_chaos(report):
    for rho in report["spectrum"]["rho"]:
        if rho is not None and not 0.0 < rho <= 1.0:
            raise GateFailure(f"chaos rho {rho} outside (0, 1]")


def _hermite_fourth_moment(m: int) -> float:
    """E[H_m(xi)^4] for a standard normal xi; Gauss-Hermite with 2m+1 nodes
    is exact for the degree-4m integrand."""
    import numpy as np

    from gpchaos.specfun import hermite

    nodes, weights = np.polynomial.hermite_e.hermegauss(2 * m + 1)
    return float(weights @ hermite(m, nodes) ** 4 / math.sqrt(2.0 * math.pi))


def _fourth_moment_bound(functional) -> float:
    """Upper bound on E[Y^4] for Y the grid average of the functional.

    The trapezoid weights sum to one, so Jensen gives E[Y^4] <= E[f^4] at a
    single time, where X_t and dX_t/sigma are independent standard normals.
    """
    if functional.kind == "H2":
        return _hermite_fourth_moment(functional.a) * _hermite_fourth_moment(functional.b)
    return _hermite_fourth_moment(functional.m)


def simulate_targets(argvs) -> dict:
    """Exact targets of every simulate estimate, computed once and outside
    the timed region: for a second moment, the integrated chaos norm and a
    bound on the fourth moment that sets its error bar; for a crossing mean,
    the Rice formula."""
    from gpchaos import montecarlo as mc
    from gpchaos.chaos import integrated_chaos_norms, parse_functional
    from gpchaos.kernels import parse_kernel

    targets = {}
    for argv in argvs:
        if argv[0] != "simulate":
            continue
        spec = _option(argv, "--kernel")
        kernel = parse_kernel(spec)
        functionals = [argv[i + 1] for i, a in enumerate(argv) if a == "--functional"]
        for text in functionals:
            functional = parse_functional(text)
            norms = integrated_chaos_norms(functional, kernel, n_max=functional.degree)
            targets[(spec, functional.spec_string())] = (
                norms[functional.degree], _fourth_moment_bound(functional))
        if not functionals:
            targets[(spec, "crossings")] = mc.rice_crossing_mean(kernel, 0.0)
    return targets


def check_command(argv, code, text, targets) -> str | None:
    """Return None when the command passed the gate, else the reason."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = parse_report(text)
        kind = argv[0]
        if kind == "verify-all":
            _check_verify(report)
        elif kind == "simulate":
            _check_simulate(argv, report, targets)
        elif kind == "conditions":
            _check_conditions(argv, report)
        elif kind == "chaos":
            _check_chaos(report)
    except GateFailure as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed report: {exc!r}"
    return None
