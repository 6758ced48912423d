"""End-to-end tests for the command-line front end."""

import argparse
import contextlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpchaos import __version__, cli, errors, verify
from gpchaos import montecarlo as mc
from gpchaos.cli import build_parser, main
from gpchaos.chaos import parse_functional
from gpchaos.kernels import parse_kernel


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


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

    @pytest.mark.parametrize("kernel", ["matern:nu=1000", "rq:alpha=1000"])
    def test_bessel_order_1000(self, capsys, kernel):
        # K_nu overflowed where z^2 >= 2 nu: Matern exited 3 with a NaN
        # integral, and rq's grid b came out non-finite, failing A1
        report = run_json(capsys, "conditions", "--kernel", kernel)
        assert report["a1"]["holds"] and report["a2"]["holds"] and report["geman"]["holds"]
        assert report["a1"]["b_in_L2"]["value"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kernel", ["matern:nu=1000.5", "matern:nu=1e300", "rq:alpha=1e300"])
    def test_bessel_order_above_the_cap_is_usage_error(self, capsys, kernel):
        code, out, err = run_cli(capsys, "conditions", "--kernel", kernel)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "must be at most 1000" in err

    def test_oscillating_kernel_fails_a2(self, capsys):
        report = run_json(capsys, "conditions", "--kernel", "cosine:ell=1")
        assert report["a2"]["holds"] is False

    def test_unknown_kernel_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "conditions", "--kernel", "nosuch:z=1")
        assert code == 2
        assert "nosuch" in err

    @pytest.mark.parametrize("kernel", ["matern:nu=1.5,nu=2.5", "periodic:T=2,period=3"])
    def test_repeated_kernel_parameter_is_usage_error(self, capsys, kernel):
        code, out, err = run_cli(capsys, "conditions", "--kernel", kernel)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "twice" in err

    @pytest.mark.parametrize("spelling,family", [("gammaexp:gamma=1", "matern:nu=0.5"),
                                                 ("gammaexp:gamma=2", "sqexp")])
    def test_gammaexp_reports_as_the_family_it_equals(self, capsys, spelling, family):
        assert run_cli(capsys, "conditions", "--kernel", spelling) \
            == run_cli(capsys, "conditions", "--kernel", family)

    @pytest.mark.parametrize("gamma", ["0", "2.5", "-1", "nan"])
    def test_gammaexp_outside_its_domain_is_usage_error(self, capsys, gamma):
        message = ("non-finite value in 'gamma=nan'" if gamma == "nan"
                   else "gammaexp: gamma must lie in (0, 2]")
        assert run_cli(capsys, "conditions", "--kernel", f"gammaexp:gamma={gamma}") \
            == (2, "", f"gpchaos: {message}\n")

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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_window_without_a_positive_order_is_usage_error(self, capsys, fmt):
        code, out, err = run_cli(
            capsys, "asymptotics", "--n-min", "0", "--n-max", "0", "--format", fmt
        )
        assert code == 2
        assert out == ""
        assert err == "gpchaos: bad order window [0, 0]\n"


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

    def test_negative_fit_window_start_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "chaos", "--kernel", "sqexp", "--n-min", "-3")
        assert (code, out) == (2, "")
        assert err == "gpchaos: bad fit window start n_min=-3\n"

    @pytest.mark.parametrize("level,order0", [("1e300", 0.0), ("-1e200", 1.0)])
    def test_indicator_far_in_the_tail(self, capsys, level, order0):
        # phi(u) underflows to 0, so every order above 0 is exactly 0 in
        # double precision; the Hermite recurrence overflows into NaN there
        argv = ("chaos", "--kernel", "sqexp", "--functional", f"ind:{level}")
        report = json.loads(run_cli(capsys, *argv)[1], parse_constant=_reject_constant)
        expected = [order0] + [0.0] * 40
        assert report["spectrum"]["point_norms"] == expected
        assert report["spectrum"]["integrated_norms"] == expected
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0, err
        rows = out.splitlines()[3:]
        rho = "1.0" if order0 else ""
        assert rows == [f"0,{order0!r},{order0!r},{rho}"] + [f"{n},0.0,0.0," for n in range(1, 41)]

    @pytest.mark.parametrize("spec,message", [
        ("@x", "unknown functional kind '' in '@x'"),
        ("H:-1", "Hermite order m=-1 must be a nonnegative integer in 'H:-1'"),
    ])
    def test_functional_error_quotes_the_spec(self, capsys, spec, message):
        code, out, err = run_cli(capsys, "chaos", "--kernel", "sqexp", "--functional", spec)
        assert (code, out) == (2, "")
        assert err == f"gpchaos: {message}\n"

    def test_failed_quadrature_is_a_runtime_error(self, tmp_path, cli_env):
        # the order-1 time average of a fast cosine is exactly 0 and comes
        # out at -4e-15; a child process, so the stderr line is the CLI's own
        proc = subprocess.run(
            [sys.executable, "-m", "gpchaos", "chaos", "--kernel", "cosine:ell=0.01",
             "--functional", "H:1", "--n-max", "6"],
            env=cli_env(), capture_output=True, text=True, cwd=str(tmp_path),
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        err = proc.stderr
        assert len(err.splitlines()) == 1, err
        assert err.startswith("gpchaos: ") and "variance" in err
        # the integrator's own diagnosis rides along
        assert "Gauss-Legendre 20/10 on 128 subintervals, stopped by the limit of 200" in err

    def test_exact_zero_time_average_is_not_a_failure(self, capsys):
        # the order-1 time average of cos(10 pi u) is exactly 0 and comes out
        # a round-off below it, inside a tolerance the rule met
        report = run_json(
            capsys, "chaos", "--kernel", "cosine:ell=0.1", "--functional", "H:1", "--n-max", "6"
        )
        assert report["spectrum"]["integrated_norms"][1] == 0.0

    def test_unresolved_quadrature_is_flagged(self, capsys):
        # five thousand cosine periods on [0, 1] exhaust the subinterval
        # limit; the order-3 average stays positive, so the report stands
        # and says its quadrature missed the tolerance
        code, out, err = run_cli(
            capsys, "chaos", "--kernel", "cosine:ell=0.001", "--functional", "H:3",
            "--n-max", "6",
        )
        assert code == 0, err
        assert json.loads(out)["diagnostics"]["quad_within_tolerance"] is False

    @pytest.mark.parametrize("functional", ["sign", "abs", "ind:0.5"])
    def test_scalar_spectrum_past_order_170(self, capsys, functional):
        code, out, err = run_cli(
            capsys, "chaos", "--kernel", "sqexp", "--functional", functional,
            "--n-max", "400",
        )
        assert code == 0, err

        def reject(token):
            raise ValueError(f"non-strict JSON token {token}")

        report = json.loads(out, parse_constant=reject)
        point = report["spectrum"]["point_norms"]
        assert len(point) == 401 and all(0.0 <= v <= 1.0 for v in point)
        assert report["diagnostics"]["quad_within_tolerance"] is True

    def test_two_dimensional_order_thirteen(self, capsys):
        code, out, err = run_cli(
            capsys, "chaos", "--kernel", "sqexp", "--functional", "H2:7,6", "--n-max", "13"
        )
        assert code == 0, err

        def reject(token):
            raise ValueError(f"non-strict JSON token {token}")

        report = json.loads(out, parse_constant=reject)
        norm = report["spectrum"]["integrated_norms"][13]
        assert 0.0 < norm <= math.factorial(7) * math.factorial(6)

    @pytest.mark.parametrize("functional,degree", [("H:170", 170), ("H2:170,1", 171)])
    def test_sobolev_norm_past_the_double_range(self, capsys, functional, degree):
        # one point norm of 170! at order `degree` with weight 1 + degree:
        # the weighted sum overflows a double, its square root does not
        code, out, err = run_cli(
            capsys, "chaos", "--kernel", "sqexp", "--functional", functional,
            "--n-max", str(degree), "--alpha", "1",
        )
        assert code == 0, err

        def reject(token):
            raise ValueError(f"non-strict JSON token {token}")

        report = json.loads(out, parse_constant=reject)
        exact = math.isqrt((1 + degree) * math.factorial(170))
        assert report["sobolev"]["1"]["point"] == pytest.approx(exact, rel=1e-12)

    def test_two_dimensional_point_norm_overflow_is_a_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "chaos", "--kernel", "sqexp", "--functional", "H2:100,100",
            "--n-max", "200",
        )
        assert code == 2
        assert out == ""
        assert err == "gpchaos: 100! * 100! does not fit in double precision\n"

    def test_sobolev_weight_overflow_is_a_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "chaos", "--kernel", "sqexp", "--functional", "H:4", "--n-max", "40",
            "--alpha", "300",
        )
        assert code == 2
        assert out == ""
        assert err == "gpchaos: Sobolev weight (1 + 40)^300 does not fit in double precision\n"

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
        assert report["config"]["level"] is None

    def test_level_is_for_crossing_runs_only(self, capsys):
        # a functional run reads no level, so it takes none; a crossing run
        # records the level it counted at, 0 when none is given
        argv = ("simulate", "--kernel", "sqexp", "--paths", "20", "--grid", "64")
        code, out, err = run_cli(capsys, *argv, "--functional", "H:1", "--level", "0.5")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "--level" in err
        assert run_json(capsys, *argv)["config"]["level"] == 0.0
        assert run_json(capsys, *argv, "--level", "0.5")["config"]["level"] == 0.5

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

    def test_report_shape(self, capsys):
        # the benchmark's gate reads these keys
        crossings = run_json(
            capsys, "simulate", "--kernel", "sqexp", "--level", "0.5", "--paths", "300",
            "--grid", "128", "--seed", "9",
        )["crossings"]
        assert set(crossings) == {
            "level", "mean", "variance", "second_moment", "std_error", "rice_mean"}
        stats = mc.crossing_statistics(parse_kernel("sqexp"), 0.5, 300, 128, 9)
        assert crossings["level"] == 0.5
        assert (crossings["variance"], crossings["std_error"]) == (stats.variance,
                                                                  stats.std_error)
        specs = ("H:2", "abs@xdot", "H2:1,1")
        argv = [a for spec in specs for a in ("--functional", spec)]
        moments = run_json(
            capsys, "simulate", "--kernel", "matern52", *argv, "--paths", "200",
            "--grid", "128", "--seed", "4",
        )["moments"]
        outs = mc.mc_integrated_functionals(
            [parse_functional(spec) for spec in specs], parse_kernel("matern52"), 200, 128, 4
        )
        assert [m["functional"] for m in moments] == list(specs)
        for block, out in zip(moments, outs):
            assert set(block) == {
                "functional", "mean", "mean_std_error", "second_moment", "std_error"}
            assert block["mean"] == out.mean
            assert block["mean_std_error"] == out.std_error
            assert block["second_moment"] == out.second_moment
            assert block["std_error"] == out.second_std_error

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
        ratio = report["diagnostics"].pop("derivative_variance_ratio")
        assert report["diagnostics"] == {
            "embedding_size": 4096,
            "support_size": 27,
            "synthesis": "direct",
            "band_length": None,
            "clipped": plan.clipped,
            "min_eigenvalue": plan.min_eigenvalue,
            "periodization_bias": plan.periodization_bias,
            "notes": list(plan.notes),
        }
        variance = np.sum(plan.angular_frequencies ** 2 * plan.eigenvalues) / 4096
        assert ratio == pytest.approx(variance / 2.0, rel=1e-12)
        assert ratio == pytest.approx(1.0, abs=1e-11)
        band = run_json(
            capsys, "simulate", "--kernel", "matern52", "--paths", "2", "--grid", "2048",
        )["diagnostics"]
        assert band["embedding_size"] == 32768
        assert band["support_size"] == 1139
        assert band["synthesis"] == "band"
        assert band["band_length"] == 3200

    @pytest.mark.parametrize("grid,ratio", [(256, 0.99774), (2048, 0.99873)])
    def test_derivative_variance_ratio_shows_the_nyquist_cut(self, capsys, grid, ratio):
        # matern32's spectrum falls like lambda^-4, so lambda^2 times it has
        # a tail past the grid's Nyquist frequency that the plan cannot hold
        report = run_json(capsys, "simulate", "--kernel", "matern32", "--paths", "2",
                          "--grid", str(grid))
        assert report["diagnostics"]["derivative_variance_ratio"] == pytest.approx(
            ratio, abs=1e-5)
        assert report["diagnostics"]["notes"] == []

    def test_report_is_byte_identical_on_rerun(self, capsys):
        argv = ("simulate", "--kernel", "sqexp", "--functional", "H:2",
                "--paths", "40", "--grid", "128", "--seed", "3")
        first = run_cli(capsys, *argv)
        assert first[0] == 0
        assert run_cli(capsys, *argv) == first


def test_cli_import_leaves_scipy_integrate_unloaded(cli_env):
    # the runtime is numpy alone: the package's own integrator, FFTs through
    # numpy.fft, and log-gamma and K_nu from specfun; numpy.f2py came in
    # only through scipy.special
    proc = subprocess.run(
        [sys.executable, "-c",
         "import gpchaos.cli, sys; "
         "print(*sorted(m for m in sys.modules "
         "if m.split('.')[0] == 'scipy' or m.startswith('numpy.f2py')))"],
        env=cli_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


class TestStrictJson:
    @pytest.mark.parametrize("value,plain", [
        (np.bool_(True), True),
        (np.int64(7), 7),
        (np.float32(0.1), float(np.float32(0.1))),
        (np.float64(0.1), 0.1),
        ({"a": np.array([[1.5, 2.0], [3.0, 4.0]]), "b": (np.array([True, False]),)},
         {"a": [[1.5, 2.0], [3.0, 4.0]], "b": [[True, False]]}),
        (np.longdouble(1.5), 1.5),
        (np.array([0.25, 3.0], dtype=np.longdouble), [0.25, 3.0]),
    ], ids=["bool", "int64", "float32", "float64", "nested-arrays", "longdouble",
            "longdouble-array"])
    def test_numpy_values_serialize_as_python_values(self, value, plain):
        assert cli._strict_json(value) == json.dumps(plain, sort_keys=True)

    def test_nan_inside_an_array_is_non_finite(self):
        with pytest.raises(errors.NonFiniteResult):
            cli._strict_json({"x": np.array([1.0, np.nan])})

    def test_nan_inside_an_array_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(mc, "rice_crossing_mean", lambda kernel, level: np.array([math.nan]))
        code, out, err = run_cli(
            capsys, "simulate", "--kernel", "sqexp", "--paths", "10", "--grid", "64"
        )
        assert (code, out) == (3, "")
        assert "non-finite" in err

    def test_nan_in_extended_precision_is_non_finite(self):
        with pytest.raises(errors.NonFiniteResult):
            cli._strict_json({"x": np.array([1.0, np.nan], dtype=np.longdouble)})

    def test_other_objects_are_rejected(self):
        with pytest.raises(TypeError):
            cli._strict_json({"x": object()})

    @pytest.mark.parametrize("value", [
        np.clongdouble(1.5 + 1j), np.array([1j], dtype=np.clongdouble), np.complex128(1j),
    ], ids=["clongdouble", "clongdouble-array", "complex128"])
    def test_complex_values_are_rejected(self, value):
        with pytest.raises(TypeError):
            cli._strict_json({"x": value})


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

    def test_float_overflow_is_runtime_error(self, capsys):
        # ell = 1e-320 squares to zero, and the kernel divides by it
        code, out, err = run_cli(capsys, "chaos", "--kernel", "sqexp:ell=1e-320")
        assert code == 3
        assert out == ""
        assert err.splitlines()[-1] == "gpchaos: sqexp:ell=1e-320: float division by zero"

    def test_float_overflow_is_one_line_naming_the_kernel(self, tmp_path, cli_env):
        # a child process, so numpy warnings would reach its stderr
        for command, spec in (("conditions", "rq:alpha=112,ell=1e300"),
                              ("chaos", "sqexp:ell=1e-320")):
            proc = subprocess.run(
                [sys.executable, "-m", "gpchaos", command, "--kernel", spec],
                env=cli_env(), capture_output=True, text=True, cwd=str(tmp_path),
            )
            assert proc.returncode == 3 and proc.stdout == ""
            assert len(proc.stderr.splitlines()) == 1, proc.stderr
            assert proc.stderr.startswith(f"gpchaos: {spec}: ")

    @pytest.mark.parametrize("argv", [
        ("chaos", "--kernel", "matern:nu=100", "--functional", "H:2", "--n-max", "4"),
        ("conditions", "--kernel", "matern:nu=100"),
    ], ids=["chaos", "conditions"])
    def test_large_matern_order_reports(self, capsys, argv):
        run_json(capsys, *argv)

    def test_non_finite_result_is_runtime_error(self, capsys, monkeypatch):
        monkeypatch.setattr(mc, "rice_crossing_mean", lambda kernel, level: math.nan)
        code, out, err = run_cli(
            capsys, "simulate", "--kernel", "sqexp", "--paths", "10", "--grid", "64"
        )
        assert code == 3
        assert out == ""
        assert "non-finite" in err


class TestParser:
    def test_one_parser_serves_every_call(self, capsys):
        assert build_parser() is build_parser()
        # appended values of one call do not reach the next
        first = run_json(capsys, "chaos", "--kernel", "sqexp", "--functional", "H:2",
                         "--n-max", "4", "--alpha", "1", "--alpha", "2")
        second = run_json(capsys, "chaos", "--kernel", "sqexp", "--n-max", "4")
        assert first["config"]["alphas"] == [1.0, 2.0]
        assert (second["config"]["alphas"], second["config"]["functional"]) == ([0.0], "H:1")
        both = run_json(capsys, "simulate", "--kernel", "sqexp", "--paths", "4", "--grid", "64",
                        "--functional", "H:1", "--functional", "H:2")
        neither = run_json(capsys, "simulate", "--kernel", "sqexp", "--paths", "4",
                           "--grid", "64")
        assert [m["functional"] for m in both["moments"]] == ["H:1", "H:2"]
        assert neither["config"]["functionals"] is None and "crossings" in neither


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

    def test_rough_matern_reconstructs_r(self, capsys):
        # b ~ x^-0.4 at 0, so the reconstruction integrals are singular like x^-0.8
        report = run_json(capsys, "verify-all", "--kernel", "matern:nu=0.1",
                          "--paths", "200", "--grid", "64")
        check = next(c for c in report["checks"] if c["name"] == "b-reconstruction")
        assert check["status"] == "pass"
        assert report["all_pass"] is True

    def test_heavy_tailed_kernel_passes_the_derivative_gates(self, capsys):
        # the plan's lopsided window of wraps put a spike at lag 0 that read
        # crossings z = +5.30 and mc_z = +32.4; b-reconstruction and
        # regularization-slope fail on rq:alpha=0.6 for reasons of their own
        report = run_json(capsys, "verify-all", "--kernel", "rq:alpha=0.6",
                          "--paths", "2000", "--grid", "256", "--seed", "0")
        status = {c["name"]: c["status"] for c in report["checks"]}
        assert status["level-crossings"] == "pass"
        assert status["mean-square-derivative"] == "pass"

    def test_bad_kernel_exits_usage(self, capsys):
        assert run_cli(capsys, "verify-all", "--kernel", "bogus")[0] == 2

    def test_a_sample_with_no_spread_skips_its_check(self, capsys):
        # both paths cross zero equally often: the crossing mean has standard
        # error 0, so no z-score exists and level-crossings skips
        report = run_json(capsys, "verify-all", "--paths", "2", "--grid", "8", "--seed", "1")
        check = next(c for c in report["checks"] if c["name"] == "level-crossings")
        assert check == {"name": "level-crossings", "status": "skip", "detail": {
            "reason": "Monte Carlo standard error is 0: every path gave the same value"}}

    def test_kernel_without_second_derivative_skips_the_derivative_checks(self, capsys):
        # gammaexp:gamma=1.5 has a |t|^1.5 term at 0, so no r''(0): the
        # checks that read r'' skip with that reason
        report = run_json(capsys, "verify-all", "--kernel", "gammaexp:gamma=1.5",
                          "--paths", "20", "--grid", "64")
        reasons = {c["name"]: c["detail"].get("reason") for c in report["checks"]}
        for name in ("hs-quadratic-bound", "derivative-finite-difference"):
            assert reasons[name] == "gammaexp:ell=1,gamma=1.5: r''(0) does not exist"

    def test_plan_block_is_the_simulate_diagnostics(self, capsys):
        argv = ("--kernel", "matern52", "--paths", "20", "--grid", "64")
        report = run_json(capsys, "verify-all", *argv)
        assert report["plan"] == run_json(capsys, "simulate", *argv)["diagnostics"]
        assert report["plan"]["embedding_size"] == 1024

    @pytest.mark.parametrize("spec", ["cosine", "matern12"])
    def test_plan_block_holds_the_build_error(self, capsys, spec):
        argv = ("--kernel", spec, "--paths", "20", "--grid", "64")
        report = run_json(capsys, "verify-all", *argv)
        code, _, err = run_cli(capsys, "simulate", *argv)
        assert code == 3
        assert report["plan"] == {"error": err.removeprefix("gpchaos: ").rstrip("\n")}
        mc_checks = [c for c in report["checks"] if c["name"] in _MC_CHECKS]
        assert [c["detail"]["reason"] for c in mc_checks] == [report["plan"]["error"]] * 4

    @pytest.mark.parametrize("spec,argv,grids", [
        ("cosine", (), [512]),
        ("periodic:T=2,ell=0.8", (), [512]),
        ("cosine", ("--grid", "256"), [256]),
    ])
    def test_a_failing_plan_is_built_once(self, capsys, monkeypatch, spec, argv, grids):
        # the plan block's build is the one every Monte Carlo check skips
        # with; neither the battery nor a check builds it again
        built = _count_builds(monkeypatch)
        report = run_json(capsys, "verify-all", "--kernel", spec, "--seed", "0", *argv)
        assert built == grids
        reasons = {c["detail"]["reason"] for c in report["checks"] if c["name"] in _MC_CHECKS}
        assert reasons == {report["plan"]["error"]}

    @pytest.mark.parametrize("grid", [256, 512])
    @pytest.mark.parametrize("spec", ["sqexp", "rq:alpha=2,ell=1"])
    def test_a_passing_plan_is_built_once(self, capsys, monkeypatch, spec, grid):
        # the determinism replay runs on the plan of the other Monte Carlo
        # checks, at any grid
        built = _count_builds(monkeypatch)
        report = run_json(capsys, "verify-all", "--kernel", spec, "--grid", str(grid),
                          "--paths", "400", "--seed", "0")
        assert built == [grid]
        statuses = [c["status"] for c in report["checks"] if c["name"] in _MC_CHECKS]
        assert statuses == ["pass"] * 4

    def test_kernel_without_fourth_derivative_skips_the_residual_check(self, capsys):
        # matern32 has r''(0) but no r''''(0), which scales the leading order
        report = run_json(
            capsys, "verify-all", "--kernel", "matern32", "--paths", "300", "--grid", "128"
        )
        check = next(c for c in report["checks"] if c["name"] == "mean-square-derivative")
        assert check["status"] == "skip"
        assert "r''''(0) does not exist" in check["detail"]["reason"]

    @pytest.mark.parametrize("paths", ["1", "0"])
    def test_fewer_than_two_paths_is_usage_error(self, capsys, paths):
        # one path has no standard error to scale a z-score by
        code, out, err = run_cli(capsys, "verify-all", "--paths", paths, "--grid", "64")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "at least 2 paths" in err

    def test_negative_seed_is_usage_error(self, capsys):
        # every Monte Carlo check skipped on it, and the run passed
        code, out, err = run_cli(capsys, "verify-all", "--paths", "20", "--grid", "64",
                                 "--seed", "-1")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "seed=-1 must be a nonnegative integer" in err

    @pytest.mark.parametrize("grid", ["1", "0", "-5"])
    def test_grid_below_two_is_usage_error(self, capsys, grid):
        # the Monte Carlo checks skipped on it and the run passed; simulate
        # exits 2 with the same message
        code, out, err = run_cli(capsys, "verify-all", "--paths", "20", "--grid", grid)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and f"grid_points={grid} must be an integer >= 2" in err
        assert run_cli(capsys, "simulate", "--kernel", "sqexp", "--grid", grid)[::2] == (2, err)

    def test_single_path_simulation_still_reports(self, capsys):
        run_json(capsys, "simulate", "--kernel", "sqexp", "--paths", "1", "--grid", "64")

    @pytest.mark.parametrize("spec", ["sqexp", "matern52", "wendland:k=4"])
    def test_replay_spans_two_chunks_on_two_threads(self, monkeypatch, spec):
        pools = []
        pool = mc.ThreadPoolExecutor

        def counting_pool(max_workers):
            pools.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(mc, "ThreadPoolExecutor", counting_pool)
        kernel = parse_kernel(spec)
        plan = mc.build_embedding_plan(kernel, 512)
        passed, detail = verify.determinism_replay(kernel, 512, 3, plan)
        assert passed
        assert detail["paths"] == 2 * mc._pair_chunk(plan) + 1
        assert pools == [2]

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


def _count_builds(monkeypatch):
    """The grid of each embedding plan built from here on, in order."""
    built = []
    build = mc.build_embedding_plan
    monkeypatch.setattr(mc, "build_embedding_plan",
                        lambda kernel, grid: built.append(grid) or build(kernel, grid))
    return built


_MC_CHECKS = ("chaos-vs-monte-carlo", "level-crossings", "mean-square-derivative",
              "determinism-replay")


def _standalone_checks(kernel, paths, grid, seed):
    """The battery's Monte Carlo checks run one at a time, each on paths and
    a plan of its own."""
    functionals = [parse_functional(s) for s in ("H:1", "H:2")]
    return [verify._run(name, fn) for name, fn in zip(_MC_CHECKS, (
        lambda: verify._judge_chaos(kernel, functionals, mc.mc_integrated_functionals(
            functionals, kernel, paths, grid, seed)),
        lambda: verify._judge_crossings(
            kernel, mc.crossing_statistics(kernel, 0.0, paths, grid, seed)),
        lambda: verify.mean_square_derivative(kernel, min(paths, 6000), grid, seed),
        lambda: verify.determinism_replay(kernel, grid, seed,
                                          mc.build_embedding_plan(kernel, grid)),
    ))]


class TestBattery:
    """The battery draws the chaos and crossing paths in one pass, on one plan."""

    @pytest.mark.parametrize("grid", [128, 512])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_shared_pass_matches_the_standalone_checks(self, monkeypatch, grid, workers):
        monkeypatch.setenv("GPCHAOS_WORKERS", workers)
        kernel = parse_kernel("sqexp")
        plan = mc.build_embedding_plan(kernel, grid)
        paths = 4 * mc._pair_chunk(plan) + 1  # three blocks
        _, checks = verify.battery(kernel, paths, grid, 5)
        checks = [c for c in checks if c["name"] in _MC_CHECKS]
        assert [c["status"] for c in checks] == ["pass"] * 4
        assert checks == _standalone_checks(kernel, paths, grid, 5)

    @pytest.mark.parametrize("spec", ["matern12", "matern32", "cosine", "periodic:T=2,ell=0.8",
                                      "gammaexp:gamma=1.5"])
    def test_skip_reasons_match_the_standalone_checks(self, spec):
        kernel = parse_kernel(spec)
        checks = [c for c in verify.battery(kernel, 400, 128, 0)[1] if c["name"] in _MC_CHECKS]
        assert "skip" in [c["status"] for c in checks]
        assert checks == _standalone_checks(kernel, 400, 128, 0)

    def test_default_sizes_draw_each_pair_once(self, monkeypatch):
        # 10,000 pairs for the chaos and crossing checks together, 3,000 for
        # the derivative check and 2 x 122 for the replay at 1 and 2 workers,
        # all on one plan; the derivative check synthesizes two grid columns
        pairs, widths = [], {}
        draws, direct = mc._support_draws, mc._direct_paths

        def counting_draws(seed, pair_start, out):
            pairs.append(len(out))
            return draws(seed, pair_start, out)

        def counting_direct(plan, draws, folded, coef, dcoef, x, xdot, columns=None):
            widths[x.shape[1]] = widths.get(x.shape[1], 0) + len(draws)
            return direct(plan, draws, folded, coef, dcoef, x, xdot, columns)

        monkeypatch.setattr(mc, "_support_draws", counting_draws)
        builds = _count_builds(monkeypatch)
        monkeypatch.setattr(mc, "_direct_paths", counting_direct)
        monkeypatch.setenv("GPCHAOS_WORKERS", "1")
        _, checks = verify.battery(parse_kernel("sqexp"), 20000, 512, 0)
        assert all(c["status"] == "pass" for c in checks)
        assert sum(pairs) == 10000 + 3000 + 2 * 122
        assert builds == [512]
        assert widths == {512: 10000 + 2 * 122, 2: 3000}


# Spec strings from the kernel and functional grammars: each family with
# its own parameters and a foreign one, values of every float class, and
# broken separators.
_FAMILY_KEYS = {
    "sqexp": ("ell",), "matern": ("nu", "ell"), "maternhi": ("m", "ell"),
    "gammaexp": ("gamma", "ell"), "rq": ("alpha", "ell"), "wendland": ("k",),
    "cosine": ("ell",), "periodic": ("T", "period", "ell"), "matern52": ("ell",),
    " Sqexp ": ("ell",), "bogus": ("ell",), "": ("ell",),
}
_VALUES = st.one_of(
    st.floats(1e-3, 1e3).map(repr),
    st.integers(-3, 120).map(str),
    st.floats().map(repr),
    st.sampled_from(["", "abc", "1e-320", "1e300", "-0", "1.5.2", "0x10"]),
)
_WELL_FORMED_KERNELS = st.sampled_from(sorted(_FAMILY_KEYS)).flatmap(lambda family: st.builds(
    lambda values: family + ":" + ",".join(map("=".join, zip(_FAMILY_KEYS[family], values))),
    st.lists(_VALUES, min_size=2, max_size=2),
))
_MALFORMED_KERNELS = st.sampled_from(sorted(_FAMILY_KEYS)).flatmap(lambda family: st.builds(
    lambda colon, params: family + colon + ",".join(params),
    st.sampled_from([":", "", "::"]),
    st.lists(st.builds(lambda key, sep, value: key + sep + value,
                       st.sampled_from(_FAMILY_KEYS[family] + ("x",)),
                       st.sampled_from(["=", "", "=="]), _VALUES),
             max_size=3),
))
_KERNEL_SPECS = st.one_of(_WELL_FORMED_KERNELS, _MALFORMED_KERNELS)
_AXES = st.sampled_from(["", "@x", "@xdot", "@y", "@"])
_FUNCTIONAL_SPECS = st.one_of(
    st.builds("H:{}{}".format, st.integers(0, 8), _AXES),
    st.builds("H2:{},{}".format, st.integers(0, 4), st.integers(0, 4)),
    st.builds("{}{}".format, st.sampled_from(["sign", "abs"]), _AXES),
    st.builds("ind:{}{}".format, _VALUES, _AXES),
    st.builds(lambda name, args, axis: name + args + axis,
              st.sampled_from(["H", "H2", "sign", "ind", "bogus", ""]),
              st.one_of(st.just(""), st.builds(":{}".format, _VALUES),
                        st.builds(":{},{}".format, _VALUES, _VALUES)),
              _AXES),
)


def _subcommand_parsers():
    (action,) = (a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction))
    return action.choices


_CHEAP_ARGS = {
    "conditions": ["--kernel", "sqexp"],
    "asymptotics": ["--n-min", "1", "--n-max", "30"],
    "chaos": ["--kernel", "sqexp", "--n-max", "6"],
    "simulate": ["--kernel", "sqexp", "--paths", "20", "--grid", "64"],
    "verify-all": ["--paths", "20", "--grid", "64"],
}


@pytest.mark.parametrize("command", sorted(_CHEAP_ARGS))
def test_config_records_every_option_but_out(capsys, monkeypatch, command):
    # the battery's checks are tested above; only the envelope matters here
    monkeypatch.setattr(cli, "battery", lambda *args: (errors.GpchaosError("not built"), []))
    assert set(_subcommand_parsers()) == set(_CHEAP_ARGS)
    parser = _subcommand_parsers()[command]
    options = {a.dest for a in parser._actions if a.dest != "help"}
    report = run_json(capsys, command, *_CHEAP_ARGS[command])
    assert set(report["config"]) == options - {"out"} | {"command"}
    assert report["config"]["command"] == command


def test_every_package_error_is_a_gpchaos_error():
    found = [obj for obj in vars(errors).values()
             if isinstance(obj, type) and issubclass(obj, Exception)]
    assert errors.QuadratureFailure in found
    assert all(issubclass(cls, errors.GpchaosError) for cls in found)


class TestSpecGrammarFuzz:
    @staticmethod
    def _run(*argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        return code, out.getvalue(), err.getvalue()

    @settings(max_examples=150, deadline=None)
    @given(kernel=_KERNEL_SPECS, functional=_FUNCTIONAL_SPECS)
    def test_every_spec_exits_with_a_documented_code(self, kernel, functional):
        # an uncaught exception fails the test with its traceback
        for argv in (("chaos", "--kernel", kernel, "--functional", functional, "--n-max", "6"),
                     ("conditions", "--kernel", kernel)):
            code, out, err = self._run(*argv)
            assert code in (0, 2, 3), (argv, code, err)
            assert "Traceback" not in err
            if code == 0:
                json.loads(out, parse_constant=_reject_constant)
            else:
                assert out == "" and err.splitlines()[-1].startswith("gpchaos: "), (argv, err)
