"""End-to-end tests for the command-line front end."""

import json
import math
import subprocess
import sys

import pytest
from scipy.integrate import IntegrationWarning

from gpchaos import __version__
from gpchaos import montecarlo as mc
from gpchaos.cli import main
from gpchaos.kernels import parse_kernel


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestConditionsCommand:
    def test_smooth_kernel_verdicts(self, capsys):
        report = run_json(capsys, "conditions", "--kernel", "sqexp:ell=1")
        assert report["schema"] == "condition-report/1"
        assert report["version"] == __version__
        assert report["a1"]["holds"] is True
        assert report["a2"]["holds"] is True
        assert report["config"]["command"] == "conditions"
        assert report["config"]["kernel"] == "sqexp:ell=1"
        assert report["config"]["seed"] == 0

    def test_failing_verdicts_still_exit_zero(self, capsys):
        report = run_json(capsys, "conditions", "--kernel", "matern:nu=0.5,ell=1")
        assert report["a1"]["holds"] is False
        assert report["a2"]["holds"] is False

    def test_oscillating_kernel_fails_a2(self, capsys):
        report = run_json(capsys, "conditions", "--kernel", "cosine:ell=1")
        assert report["a2"]["holds"] is False

    def test_unknown_kernel_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "conditions", "--kernel", "nosuch:z=1")
        assert code == 2
        assert "nosuch" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "conditions", "--kernel", "sqexp", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["a1"]["holds"] is True


class TestArgumentErrors:
    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_missing_required_kernel(self, capsys):
        assert run_cli(capsys, "chaos")[0] == 2

    def test_version_flag(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        assert __version__ in out

    def test_module_entry_point(self, tmp_path, cli_env):
        proc = subprocess.run(
            [sys.executable, "-m", "gpchaos", "--version"],
            env=cli_env(),
            capture_output=True,
            text=True,
            cwd=str(tmp_path),
        )
        assert proc.returncode == 0
        assert __version__ in proc.stdout


class TestAsymptoticsCommand:
    def test_json_fit(self, capsys):
        report = run_json(capsys, "asymptotics", "--n-min", "50", "--n-max", "400")
        assert report["schema"] == "decay-report/1"
        assert -0.55 <= report["fit"]["slope"] <= -0.40
        assert report["config"]["n_min"] == 50
        ns = [n for n, _ in report["entries"]]
        assert ns == sorted(ns)
        assert ns[0] >= 50 and ns[-1] <= 400

    def test_csv_embeds_config(self, capsys):
        code, out, _ = run_cli(
            capsys, "asymptotics", "--format", "csv", "--n-min", "1", "--n-max", "8"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"# gpchaos {__version__}"
        assert lines[1].startswith("# config: ")
        assert json.loads(lines[1][len("# config: "):])["command"] == "asymptotics"
        assert lines[2] == "n,value"
        first = lines[3].split(",")
        assert int(first[0]) == 1
        assert math.isclose(float(first[1]), 5.0 / 12.0, rel_tol=1e-12)

    def test_bad_window(self, capsys):
        assert run_cli(capsys, "asymptotics", "--n-min", "10", "--n-max", "5")[0] == 2


class TestChaosCommand:
    def test_json_report(self, capsys):
        report = run_json(
            capsys, "chaos", "--kernel", "sqexp", "--functional", "H:2",
            "--alpha", "0", "--alpha", "1",
        )
        assert report["schema"] == "chaos-report/1"
        assert report["config"]["functional"] == "H:2"
        assert report["spectrum"]["schema"] == "chaos-spectrum/1"
        assert set(report["sobolev"]) == {"0", "1"}
        # single-order spectrum: the half-order-shifted ratio is
        # (1+m)^(1/4) * sqrt(rho_m) at every alpha
        ratios = [block["ratio"] for block in report["sobolev"].values()]
        assert math.isclose(ratios[0], ratios[1], rel_tol=1e-12)
        rho2 = 2.0 * math.sqrt(math.pi / 2.0) * math.erf(math.sqrt(2.0)) - (
            1.0 - math.exp(-2.0)
        )
        assert math.isclose(ratios[0], 3.0**0.25 * math.sqrt(rho2 / 2.0), rel_tol=1e-10)
        reg = report["regularization"]
        assert -0.55 <= reg["slope"] <= -0.35
        assert math.isclose(reg["laplace_constant"], math.sqrt(math.pi), rel_tol=1e-12)

    def test_csv_spectrum(self, capsys):
        code, out, _ = run_cli(
            capsys, "chaos", "--kernel", "sqexp", "--functional", "H:2", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"# gpchaos {__version__}"
        assert lines[2] == "n,point_norm_sq,integrated_norm_sq,rho"
        row2 = lines[3 + 2].split(",")
        assert math.isclose(float(row2[1]), 2.0, rel_tol=1e-12)

    def test_rough_kernel_reports_what_it_can(self, capsys):
        report = run_json(
            capsys, "chaos", "--kernel", "matern:nu=0.5,ell=1",
            "--functional", "sign", "--n-max", "12",
        )
        assert report["regularization"]["laplace_constant"] is None
        assert "slope" in report["regularization"]

    def test_rough_kernel_derivative_functional_is_runtime_error(self, capsys):
        code, _, err = run_cli(
            capsys, "chaos", "--kernel", "matern:nu=0.5,ell=1", "--functional", "H2:1,1"
        )
        assert code == 3
        assert "r''(0)" in err

    def test_truncation_below_degree(self, capsys):
        code, _, _ = run_cli(
            capsys, "chaos", "--kernel", "sqexp", "--functional", "H:5", "--n-max", "3"
        )
        assert code == 2

    def test_bad_functional(self, capsys):
        code, _, _ = run_cli(
            capsys, "chaos", "--kernel", "sqexp", "--functional", "H:nope"
        )
        assert code == 2

    def test_failed_quadrature_is_a_runtime_error(self, capsys):
        # the order-3 time average of a fast cosine comes out negative
        with pytest.warns(IntegrationWarning):
            code, out, err = run_cli(
                capsys, "chaos", "--kernel", "cosine:ell=0.001", "--functional", "H:3",
                "--n-max", "6",
            )
        assert code == 3
        assert out == ""
        assert err.startswith("gpchaos: ") and "variance" in err
        assert "Traceback" not in err

    def test_quadrature_diagnostics_block(self, capsys):
        code, out, err = run_cli(
            capsys, "chaos", "--kernel", "sqexp", "--functional", "H2:1,1", "--n-max", "4"
        )
        assert code == 0, err

        def reject(token):
            raise ValueError(f"non-strict JSON token {token}")

        report = json.loads(out, parse_constant=reject)
        diagnostics = report["diagnostics"]
        assert set(diagnostics) == {"max_quad_error", "quad_within_tolerance"}
        assert 0.0 < diagnostics["max_quad_error"] <= 1e-11
        assert diagnostics["quad_within_tolerance"] is True


class TestSimulateCommand:
    def test_crossing_report(self, capsys):
        report = run_json(
            capsys, "simulate", "--kernel", "sqexp", "--paths", "2000",
            "--grid", "256", "--seed", "5",
        )
        block = report["crossings"]
        rice = math.sqrt(2.0) / math.pi
        assert math.isclose(block["rice_mean"], rice, rel_tol=1e-12)
        assert abs(block["mean"] - rice) < 5 * block["std_error"]
        assert report["config"]["functionals"] is None

    def test_functional_moments(self, capsys):
        report = run_json(
            capsys, "simulate", "--kernel", "sqexp", "--functional", "H:0",
            "--functional", "H:1", "--paths", "400", "--grid", "128",
        )
        moments = report["moments"]
        assert [m["functional"] for m in moments] == ["H:0", "H:1"]
        assert math.isclose(moments[0]["second_moment"], 1.0, rel_tol=1e-12)
        assert moments[0]["std_error"] < 1e-12

    def test_report_matches_library_call(self, capsys):
        report = run_json(
            capsys, "simulate", "--kernel", "sqexp", "--paths", "300",
            "--grid", "128", "--seed", "9",
        )
        stats = mc.crossing_statistics(
            parse_kernel("sqexp"), 0.0, n_paths=300, grid_points=128, seed=9
        )
        assert report["crossings"]["mean"] == stats.mean
        assert report["crossings"]["second_moment"] == stats.second_moment

    def test_rough_kernel_is_runtime_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", "--kernel", "matern:nu=0.5,ell=1",
            "--paths", "10", "--grid", "64",
        )
        assert code == 3

    def test_oscillating_kernel_embedding_failure(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--kernel", "cosine", "--paths", "10", "--grid", "64"
        )
        assert code == 3
        assert "eigenvalue" in err

    def test_bad_paths_value(self, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", "--kernel", "sqexp", "--paths", "0", "--grid", "64"
        )
        assert code == 2

    def test_diagnostics_block(self, capsys):
        report = run_json(
            capsys, "simulate", "--kernel", "sqexp", "--paths", "20", "--grid", "512",
        )
        plan = mc.build_embedding_plan(parse_kernel("sqexp"), 512)
        assert report["diagnostics"] == {
            "embedding_size": 4096,
            "support_size": 27,
            "clipped": plan.clipped,
            "min_eigenvalue": plan.min_eigenvalue,
            "notes": list(plan.notes),
        }

    def test_report_is_byte_identical_on_rerun(self, capsys):
        argv = ("simulate", "--kernel", "sqexp", "--functional", "H:2",
                "--paths", "40", "--grid", "128", "--seed", "3")
        first = run_cli(capsys, *argv)
        assert first[0] == 0
        assert run_cli(capsys, *argv) == first


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("conditions", "--kernel", "rq:alpha=inf"),
            ("conditions", "--kernel", "sqexp:ell=nan"),
            ("simulate", "--kernel", "sqexp", "--level", "nan", "--paths", "10", "--grid", "64"),
            ("chaos", "--kernel", "sqexp", "--functional", "ind:nan"),
            ("simulate", "--kernel", "sqexp:ell=nan", "--paths", "10", "--grid", "64"),
            ("chaos", "--kernel", "sqexp", "--alpha", "inf"),
        ],
        ids=["rq-alpha-inf", "sqexp-ell-nan", "level-nan", "ind-nan", "simulate-ell-nan",
             "alpha-inf"],
    )
    def test_rejected_as_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "non-finite" in err

    def test_non_finite_result_is_runtime_error(self, capsys, monkeypatch):
        monkeypatch.setattr(mc, "rice_crossing_mean", lambda kernel, level: math.nan)
        code, out, err = run_cli(
            capsys, "simulate", "--kernel", "sqexp", "--paths", "10", "--grid", "64"
        )
        assert code == 3
        assert out == ""
        assert "non-finite" in err


class TestVerifyAll:
    def test_smooth_kernel_all_pass(self, capsys):
        report = run_json(
            capsys, "verify-all", "--paths", "2000", "--grid", "256", "--seed", "0"
        )
        assert report["schema"] == "verify-all/1"
        assert report["all_pass"] is True
        assert report["failed"] == 0
        assert report["skipped"] == 0
        assert [c["name"] for c in report["checks"]] == [
            "gauss-hypergeometric-identity", "iterated-integral-closed-form",
            "condition-verdicts", "derivative-finite-difference", "b-reconstruction",
            "hs-quadratic-bound", "chaos-vs-monte-carlo", "level-crossings",
            "mean-square-derivative", "regularization-slope", "determinism-replay",
        ]

    def test_rough_kernel_skips_gated_checks(self, capsys):
        report = run_json(
            capsys, "verify-all", "--kernel", "matern:nu=0.5,ell=1",
            "--paths", "500", "--grid", "128",
        )
        assert report["all_pass"] is True
        assert report["failed"] == 0
        assert report["skipped"] > 0
        for check in report["checks"]:
            if check["status"] == "skip":
                assert check["detail"]["reason"]
        verdicts = next(c for c in report["checks"] if c["name"] == "condition-verdicts")
        assert verdicts["detail"]["a1_holds"] is False

    def test_bad_kernel_exits_usage(self, capsys):
        assert run_cli(capsys, "verify-all", "--kernel", "bogus")[0] == 2

    def test_worker_count_never_changes_the_report(self, capsys, monkeypatch):
        monkeypatch.setenv("GPCHAOS_WORKERS", "1")
        code, one, _ = run_cli(
            capsys, "verify-all", "--paths", "600", "--grid", "128", "--seed", "0"
        )
        assert code == 0
        monkeypatch.setenv("GPCHAOS_WORKERS", "3")
        code, three, _ = run_cli(
            capsys, "verify-all", "--paths", "600", "--grid", "128", "--seed", "0"
        )
        assert code == 0
        assert one == three
