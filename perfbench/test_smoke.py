"""Smoke test of the benchmark at toy sizes (about a minute on two cores).

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def _command(argv, report, code=0):
    text = report if isinstance(report, str) else json.dumps(report)
    return {"argv": argv, "code": code, "report": text, "stderr": ""}


def test_bad_reports_count_in_ops_failed_frac():
    matern32 = ["conditions", "--kernel", "matern32"]
    good_verdict = {"a1": {"holds": True}, "a2": {"holds": False}}
    spectrum = {"spectrum": {"rho": [1.0, None, 0.5]}}
    child = {"commands": [
        _command(["asymptotics"], '{"fit": {"slope": NaN}}'),
        _command(matern32, {"a1": {"holds": True}, "a2": {"holds": True}}),
        _command(["chaos", "--kernel", "sqexp"], {"spectrum": {"rho": [1.0, 1.5]}}),
        _command(["verify-all"], {"all_pass": True, "passed": 10}),
        _command(matern32, good_verdict, code=3),
        _command(matern32, good_verdict),
        _command(["chaos", "--kernel", "sqexp"], spectrum),
    ]}
    gate = run.Gate(targets={})
    gate.check(child)
    assert gate.attempted == 7
    assert len(gate.failures) == 5
    assert gate.ops_failed_frac == pytest.approx(5 / 7)


def test_simulate_estimate_outside_the_z_gate_fails():
    argv = ["simulate", "--kernel", "sqexp", "--paths", "100", "--functional", "H:1"]
    targets = {("sqexp", "H:1"): (0.5, 3.0), ("rq", "crossings"): 1.0}
    near = {"moments": [{"functional": "H:1", "second_moment": 0.6}]}
    far = {"moments": [{"functional": "H:1", "second_moment": 2.0}]}
    assert workloads.check_command(argv, 0, json.dumps(near), targets) is None
    assert "z =" in workloads.check_command(argv, 0, json.dumps(far), targets)
    crossings = ["simulate", "--kernel", "rq", "--paths", "100"]
    off = {"crossings": {"mean": 2.0, "std_error": 0.1}}
    assert "z =" in workloads.check_command(crossings, 0, json.dumps(off), targets)


def test_reports_differing_across_worker_counts_fail():
    report = {"all_pass": True, "passed": 11}
    one = {"commands": [_command(["verify-all"], report)]}
    two = {"commands": [_command(["verify-all"], {**report, "seed": 1})]}
    gate = run.Gate(targets={})
    gate.check_replay(one, two)
    assert gate.attempted == 2
    assert [f["reason"] for f in gate.failures] == ["report differs between 1 and 2 workers"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reports",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
