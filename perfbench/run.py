"""gpchaos benchmark: three CLI workloads, end-to-end metrics, and a traced
run for per-layer metrics.

Run from the root of a gpchaos checkout:

    python3 perfbench/run.py --workload verify-sparse --seed 0 --seconds 20 --trace 0

Every run of a workload's commands happens in a fresh interpreter (see
``child.py``) with ``GPCHAOS_WORKERS=1``.  ``--trace 0`` repeats the
workload until ``--seconds`` have passed and reports medians of the
end-to-end metrics.  ``--trace 1`` runs the workload once untraced and once
traced, and reports per-layer metrics and the tracing overhead.  ``--check``
runs the workload once and prints the gate's verdict on each command.
``--toy`` shrinks every workload for a quick smoke run.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Run records, spans and summaries go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
OUT_DIR = HERE / "out"

# Interpreter start plus `import gpchaos.cli`, timed this many times a run.
SETUP_REPEATS = 7

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

CHILD_TIMEOUT_S = 170


class ChildFailure(Exception):
    """A workload child that crashed or printed no result."""


def child_env(root: Path, workers: int) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["GPCHAOS_WORKERS"] = str(workers)
    return env


def time_setup(root: Path) -> float:
    env = child_env(root, 1)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import gpchaos.cli"], env=env, cwd=root,
                   check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


def run_child(root, workload, seed, toy, workers=1, trace_file=None) -> dict:
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed)]
    if toy:
        cmd.append("--toy")
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    proc = subprocess.run(cmd, env=child_env(root, workers), cwd=root, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailure(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


class Gate:
    """Counts attempted and failed commands across every child of a run."""

    def __init__(self, targets):
        self.targets = targets
        self.attempted = 0
        self.failures = []

    def check(self, child) -> None:
        for command in child["commands"]:
            self.attempted += 1
            reason = workloads.check_command(
                command["argv"], command["code"], command["report"], self.targets
            )
            if reason is not None:
                self.failures.append({"argv": command["argv"], "reason": reason,
                                      "stderr": command["stderr"][-500:]})

    def check_replay(self, one_worker, two_workers) -> None:
        """verify-all reports must be byte-identical at 1 and 2 workers."""
        self.check(two_workers)
        for a, b in zip(one_worker["commands"], two_workers["commands"]):
            self.attempted += 1
            if a["report"] != b["report"]:
                self.failures.append({"argv": a["argv"], "reason":
                                      "report differs between 1 and 2 workers", "stderr": ""})

    @property
    def ops_failed_frac(self) -> float:
        return len(self.failures) / self.attempted if self.attempted else 1.0


# ---------------------------------------------------------------------------
# run records


def _read_text(path, default=None):
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return default


def _cpu_model():
    text = _read_text("/proc/cpuinfo", "")
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        level = _read_text(index / "level")
        kind = _read_text(index / "type")
        size = _read_text(index / "size")
        if level and size and kind and kind.strip() != "Instruction":
            sizes[f"L{level.strip()}"] = size.strip()
    return sizes


def _git_commit(root: Path):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _line_count(directory: Path) -> int:
    total = 0
    for path in sorted(directory.rglob("*.py")):
        with open(path, encoding="utf-8") as handle:
            total += sum(1 for _ in handle)
    return total


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    caches = _cache_sizes()
    nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k, "default") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "gpchaos_workers": 1,
        "commit": _git_commit(root),
        "seed": seed,
        "lines_src": _line_count(root / "src"),
        "lines_tests": _line_count(root / "tests") if (root / "tests").is_dir() else None,
        "note": (
            f"shared {nproc}-core sandbox, measured without machine-wide tracing; "
            "spans come from wrappers around public gpchaos calls only"
        ),
    }


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _summary_line(name, values, unit):
    q1, med, q3 = _quartiles(values)
    return f"{name:<20} {med:>12.4f} {unit:<6} (n={len(values)}, q1 {q1:.4f}, q3 {q3:.4f})"


# ---------------------------------------------------------------------------
# modes


def timed(root, args, gate, record) -> dict:
    """Repeat the workload until --seconds have passed; medians over runs."""
    setup = [time_setup(root) for _ in range(SETUP_REPEATS)]
    children = []
    start = time.perf_counter()
    while not children or time.perf_counter() - start < args.seconds:
        child = run_child(root, args.workload, args.seed, args.toy)
        gate.check(child)
        children.append(child)
    if args.workload == "verify-sparse":
        gate.check_replay(children[0], run_child(root, args.workload, args.seed, args.toy,
                                                 workers=2))
    samples = {
        "setup_s": setup,
        "wall_s": [c["wall_s"] for c in children],
        "cpu_s": [c["cpu_s"] for c in children],
        "peak_rss_mb": [c["peak_rss_mb"] for c in children],
    }
    paths = sum(workloads.sampled_paths(a) for a in workloads.commands(
        args.workload, args.seed, args.toy))
    lines = [_summary_line(name, values, END_TO_END_UNITS[name])
             for name, values in samples.items()]
    if paths:
        rates = [paths / w for w in samples["wall_s"]]
        samples["paths_per_s"] = rates
        lines.append(_summary_line("paths_per_s", rates, "1/s"))
    lines.append(f"{'ops_failed_frac':<20} {gate.ops_failed_frac:>12.4f} {'ratio':<6} "
                 f"(n={gate.attempted} commands)")
    print(f"# {args.workload} seed {args.seed}: medians over runs")
    print("\n".join(lines))
    record["samples"] = samples
    return {name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def traced(root, args, gate, record, stem) -> dict:
    """One untraced and one traced run; per-layer metrics and overhead."""
    untraced = run_child(root, args.workload, args.seed, args.toy)
    gate.check(untraced)
    trace_file = OUT_DIR / f"{stem}-spans.json"
    traced_child = run_child(root, args.workload, args.seed, args.toy, trace_file=trace_file)
    gate.check(traced_child)
    if args.workload == "verify-sparse":
        gate.check_replay(untraced, run_child(root, args.workload, args.seed, args.toy,
                                              workers=2))
    layers = traced_child["layers"]
    layers[spans.REPORT_BYTES[0]] = {
        "value": sum(len(c["report"]) for c in traced_child["commands"]), "reached": True}
    units = dict(spans.PER_LAYER_UNITS)
    units.update({name: unit for name, _, unit, _, _ in spans.SUMMARY_ONLY_METRICS})
    overhead = traced_child["wall_s"] - untraced["wall_s"]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "untraced_wall_s": untraced["wall_s"],
        "traced_wall_s": traced_child["wall_s"],
        "tracing_overhead_s": overhead,
        "self_time_s": traced_child["self_time_s"],
        "per_layer": {name: {"unit": units[name], **entry} for name, entry in layers.items()},
        "spans_file": str(trace_file.relative_to(root)),
    }
    summary_file = OUT_DIR / "trace-summary.json"
    merged = json.loads(summary_file.read_text()) if summary_file.is_file() else {}
    merged[args.workload] = summary
    summary_file.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    print(f"# {args.workload} seed {args.seed}: traced run (not reached = timed on the "
          "reference commands)")
    for name in sorted(layers):
        entry = layers[name]
        flag = "" if entry["reached"] else "  (not reached)"
        print(f"{name:<40} {entry['value']:>14.6g} {units[name]}{flag}")
    print("# self time per module (s): " + ", ".join(
        f"{k} {v:.3f}" for k, v in traced_child["self_time_s"].items()))
    print(f"# tracing overhead: {overhead:.3f} s (traced {traced_child['wall_s']:.3f} s, "
          f"untraced {untraced['wall_s']:.3f} s)")
    record["summary_file"] = str(summary_file.relative_to(root))
    return {name: {"value": layers[name]["value"], "unit": unit}
            for name, unit in spans.PER_LAYER_UNITS.items()}


def check(root, args, gate) -> None:
    """Untimed: run the workload once and print the gate's verdict per command."""
    child = run_child(root, args.workload, args.seed, args.toy)
    gate.check(child)
    bad = {tuple(f["argv"]): f["reason"] for f in gate.failures}
    for command in child["commands"]:
        reason = bad.get(tuple(command["argv"]))
        print(f"{'FAIL' if reason else 'ok  '} gpchaos {' '.join(command['argv'])}"
              + (f": {reason}" if reason else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gpchaos benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true", help="untimed: gate one run")
    parser.add_argument("--toy", action="store_true", help="toy sizes for a smoke run")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gpchaos" / "__init__.py").is_file():
        print("perfbench: src/gpchaos not found; run from the root of a gpchaos checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    args.seed %= 1 << 32  # gpchaos seeds are nonnegative

    gate = Gate(workloads.simulate_targets(workloads.commands(args.workload, args.seed,
                                                              args.toy)))
    if args.check:
        check(root, args, gate)
        return 0 if not gate.failures else 1

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-toy" if args.toy else "")
    record = {"workload": args.workload, "trace": args.trace, "toy": args.toy,
              "environment": environment(root, args.seed)}
    if args.trace:
        metrics = traced(root, args, gate, record, stem)
    else:
        metrics = timed(root, args, gate, record)
    record.update(attempted=gate.attempted, failures=gate.failures,
                  ops_failed_frac=gate.ops_failed_frac, metrics=metrics)
    suffix = "-traced" if args.trace else ""
    (OUT_DIR / f"{stem}{suffix}-record.json").write_text(json.dumps(record, indent=2) + "\n")
    for failure in gate.failures[:5]:
        print(f"# FAILED gpchaos {' '.join(failure['argv'])}: {failure['reason']}")
    result = {"correct": not gate.failures, "attempted": gate.attempted,
              "failed": len(gate.failures), "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
