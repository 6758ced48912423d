"""One run of a workload, in a fresh interpreter so that cached ``b`` builds
start cold, as they do for every CLI user.

Usage: python3 perfbench/child.py --workload NAME --seed N [--toy] [--trace FILE]

The workload's commands are driven in-process through
``gpchaos.cli.main(argv)``.  Prints one JSON line: wall and CPU time of the
commands (the import is not included), the process's peak resident memory,
and every command's exit code, report and error output.  With ``--trace`` the
commands run under the span tracer; the spans are written to FILE at the
end, and the line also carries the per-layer metrics and self time per
module.  Worker and BLAS settings come from the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback

import spans
import workloads


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_commands(argvs, tracer=None, first_id=0) -> list:
    from gpchaos import cli

    results = []
    for command_id, argv in enumerate(argvs, start=first_id):
        out, err = io.StringIO(), io.StringIO()
        root = tracer.command(command_id) if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                with root:
                    code = cli.main(list(argv))
            except Exception:  # a traceback fails the command, not the run
                code = -1
                err.write(traceback.format_exc())
        results.append(
            {"argv": list(argv), "code": code, "report": out.getvalue(), "stderr": err.getvalue()}
        )
    return results


def layer_metrics(tracer, argvs, workload, seed, toy) -> dict:
    """Per-layer metrics of a traced run, each flagged with whether the
    workload's own commands reached it.  Layers they never call are timed
    on the reference commands instead."""
    own = list(tracer.spans)
    found = spans.span_metrics(own, spans.SPAN_METRICS + spans.SUMMARY_ONLY_METRICS)
    reached = {name: value is not None for name, value in found.items()}
    if any(value is None for name, value in found.items() if name in spans.PER_LAYER_UNITS):
        run_commands(workloads.REFERENCE_COMMANDS, tracer, first_id=len(argvs))
        reference = spans.span_metrics(tracer.spans[len(own):])
        for name, value in reference.items():
            if found[name] is None:
                found[name] = value
    tracer.uninstall()
    configs, sampler_reached = workloads.sampler_configs(workload, toy)
    for name, value in spans.sampler_metrics(configs, seed).items():
        found[name] = value
        reached[name] = sampler_reached
    return {
        name: {"value": value, "reached": reached[name]}
        for name, value in found.items()
        if value is not None
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--trace", default=None, help="write spans to this file")
    args = parser.parse_args(argv)

    import gpchaos.cli  # noqa: F401  (imported before the timed region)

    argvs = workloads.commands(args.workload, args.seed, args.toy)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    results = run_commands(argvs, tracer)
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    payload = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commands": results,
    }
    if tracer is not None:
        payload["self_time_s"] = spans.self_times(tracer.spans)
        payload["layers"] = layer_metrics(tracer, argvs, args.workload, args.seed, args.toy)
        with open(args.trace, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
