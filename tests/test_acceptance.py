"""Acceptance battery: one test and one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
the Monte Carlo criteria use fixed seeds, so every line is reproducible.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from gpchaos import covstruct, verify
from gpchaos import montecarlo as mc
from gpchaos.chaos import (
    chaos_spectrum,
    parse_functional,
    regularization_exponent,
    sobolev_norm,
)
from gpchaos.conditions import condition_report
from gpchaos.kernels import parse_kernel, r_derivatives_at_zero


def _verdict(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number:02d}: {label}{suffix}")
    assert ok, f"criterion {number:02d}: {label}{suffix}"


def test_criterion_01_hypergeometric_identity():
    ok, detail = verify.gauss_identity()
    _verdict(1, "terminating 2F1 equals the Gauss-sum value, n <= 50",
             ok, f"max rel err {detail['max_rel_error']:.2e}")


def test_criterion_02_closed_form_and_decay_slope():
    ok, detail = verify.closed_form()
    _verdict(2, "closed form vs quadrature, anchors, n^(-1/2) slope", ok,
             f"max abs err {detail['max_abs_error']:.1e}, "
             f"anchors {max(detail['anchor_errors']):.1e}, slope {detail['slope']:.4f}")


def test_criterion_03_condition_verdict_table():
    expected = {
        "sqexp": (True, True),
        "matern:nu=0.5,ell=1": (False, False),
        "matern32": (True, False),
        "matern52": (True, True),
        "matern:nu=2.5,ell=1": (True, True),
        "rq:alpha=2,ell=1": (True, True),
    }
    ok = True
    for spec, (a1, a2) in expected.items():
        report = condition_report(parse_kernel(spec))
        ok = ok and report.a1.holds == a1 and report.a2.holds == a2

    # generic Matern path agrees with the half-integer closed form
    generic = r_derivatives_at_zero(parse_kernel("matern:nu=2.5,ell=1"))
    closed = r_derivatives_at_zero(parse_kernel("matern52"))
    ok = ok and math.isclose(generic.r2, closed.r2, rel_tol=1e-9)
    ok = ok and math.isclose(generic.r4, closed.r4, rel_tol=1e-9)

    wendland = condition_report(parse_kernel("wendland:k=4"))
    ok = ok and wendland.a2.holds

    cosine = condition_report(parse_kernel("cosine"))
    ok = ok and (not cosine.a2.holds) and abs(cosine.a2.discriminant) <= 1e-9

    t_per, ell = 2.0, 0.8
    periodic = condition_report(parse_kernel(f"periodic:T={t_per:g},ell={ell:g}"))
    disc = 8.0 * math.pi**4 * (ell**2 + 1.0) / (t_per * ell) ** 4
    ok = ok and periodic.a2.holds
    ok = ok and abs(periodic.a2.discriminant / disc - 1.0) <= 1e-6
    _verdict(3, "admissibility verdict table over the kernel catalog", ok,
             "9 kernels")


def test_criterion_04_derivative_oracle_concordance():
    catalog = (
        "sqexp", "matern32", "matern52", "matern:nu=2.5,ell=1",
        "rq:alpha=2,ell=1", "wendland:k=4", "cosine", "periodic:T=2,ell=0.8",
    )
    ok, errors = True, []
    for spec in catalog:
        passed, detail = verify.derivative_fd(parse_kernel(spec))
        ok = ok and passed
        errors.extend(detail.values())
    matern_notes = r_derivatives_at_zero(parse_kernel("matern:nu=2.5,ell=1")).notes
    rq_notes = r_derivatives_at_zero(parse_kernel("rq:alpha=2,ell=1")).notes
    flagged = any("inconsistent" in n for n in matern_notes) and any(
        "inconsistent" in n for n in rq_notes
    )
    ok = ok and flagged
    _verdict(4, "analytic derivatives match Richardson differences; "
                "print discrepancies flagged", ok,
             f"{len(errors)} values, max rel err {max(errors):.1e}")


def test_criterion_05_b_reconstruction():
    specs = ("sqexp", "matern32", "matern52", "matern:nu=2.5,ell=1", "rq:alpha=2,ell=1")
    ok, worst = True, 0.0
    for spec in specs:
        passed, detail = verify.b_reconstruction(parse_kernel(spec), points=31)
        ok = ok and passed
        worst = max(worst, detail["max_abs_error"])
    _verdict(5, "moving-average kernel reconstructs r on [0, 3]",
             ok, f"5 kernels, max abs err {worst:.1e}")


def test_criterion_06_chaos_vs_monte_carlo():
    specs = ["H:1", "H:2", "H:3", "H:4", "H2:1,1"]
    ok, worst = True, 0.0
    functionals = [parse_functional(s) for s in specs]
    for kspec in ("sqexp", "matern52"):
        kernel = parse_kernel(kspec)
        passed, detail = verify._judge_chaos(kernel, functionals, mc.mc_integrated_functionals(
            functionals, kernel, n_paths=100000, grid_points=2048, seed=0))
        ok = ok and passed
        worst = max([worst] + [abs(d["z"]) for d in detail.values()])
    _verdict(6, "integrated chaos norms within 3 SE of Monte Carlo",
             ok, f"10 checks, worst |z| {worst:.2f}")


def test_criterion_07_regularization_rate():
    ok = True
    details = []
    for spec in ("sqexp", "matern:nu=2.5,ell=1"):
        passed, detail = verify.regularization_slope(parse_kernel(spec))
        ok = ok and passed
        details.append(f"{spec}: slope {detail['slope']:.3f}, "
                       f"C gap {detail['constant_rel_gap']:.1%}")

    two_d = regularization_exponent(parse_kernel("sqexp"), "hermite2d", range(2, 13))
    ok = ok and two_d.fitted_slope <= -0.4
    details.append(f"2-D slope {two_d.fitted_slope:.3f}")

    # half-order gain: integrated norm at alpha + 1/2 bounded by
    # C_hat * point norm at alpha with C_hat^2 = max (1+n)^(1/2) rho_n
    kernels = (parse_kernel("sqexp"), parse_kernel("matern52"))
    functional_specs = ("H:1", "H:3", "H2:1,1", "sign", "abs", "ind:0.5")
    for kernel in kernels:
        for fspec in functional_specs:
            spectrum = chaos_spectrum(parse_functional(fspec), kernel, n_max=24)
            c_sq = max(
                (1.0 + n) ** 0.5 * spectrum.integrated_norms[n] / spectrum.point_norms[n]
                for n in spectrum.point_norms
                if spectrum.point_norms[n] > 0.0
            )
            for alpha in (-1.0, 0.0, 1.0):
                lhs = float(sobolev_norm(spectrum.integrated_norms, alpha + 0.5))
                rhs = math.sqrt(c_sq) * float(sobolev_norm(spectrum.point_norms, alpha))
                ok = ok and lhs <= rhs * (1.0 + 1e-12)
    _verdict(7, "half-order smoothing rate and norm inequality", ok,
             "; ".join(details))


def test_criterion_08_hs_expansion_bound():
    a2_catalog = (
        "sqexp", "matern52", "matern:nu=2.5,ell=1", "rq:alpha=2,ell=1",
        "wendland:k=4", "periodic:T=2,ell=0.8",
    )
    ok = True
    for spec in a2_catalog:
        ok = ok and verify.hs_bound(parse_kernel(spec))[0]

    # Kronecker multiplicativity of the contraction norms, n <= 6,
    # checked on materialized powers against the 2x2 closed forms
    kernel = parse_kernel("sqexp")
    a = covstruct.a_matrix(kernel, 0.37)
    mat = np.array([[a.a11, a.a12], [a.a21, a.a22]])
    power = np.eye(1)
    for n in range(1, 7):
        power = np.kron(mat, power)
        ok = ok and math.isclose(
            float(np.linalg.norm(power, 2)),
            float(covstruct._op_norm_closed(a.a11, a.a12, a.a21, a.a22)) ** n,
            rel_tol=1e-10,
        )
        ok = ok and math.isclose(
            float(np.linalg.norm(power)), float(np.linalg.norm(mat)) ** n,
            rel_tol=1e-10,
        )
    _verdict(8, "HS expansion concave at 0, quadratic bound holds, "
                "Kronecker norms multiply", ok, "6 kernels, n <= 6")


def test_criterion_09_crossings():
    kernel = parse_kernel("sqexp")
    coarse = mc.crossing_statistics(kernel, 0.0, n_paths=100000, grid_points=2048, seed=0)
    rice = math.sqrt(2.0) / math.pi
    z = abs(coarse.mean - rice) / coarse.std_error
    fine = mc.crossing_statistics(kernel, 0.0, n_paths=100000, grid_points=4096, seed=0)
    rel = abs(fine.second_moment - coarse.second_moment) / coarse.second_moment
    ok = z <= 3.0 and rel < 0.02
    _verdict(9, "mean crossings at the Rice value; second moment stable "
                "under grid doubling", ok, f"|z| {z:.2f}, rel change {rel:.4f}")


def test_criterion_10_mean_square_derivative():
    # for sqexp r(0) = 12, so the leading term r(0) h^2 / 4 is 3h^2
    ok, detail = verify.mean_square_derivative(
        parse_kernel("sqexp"), paths=20000, grid=512, seed=0
    )
    _verdict(10, "difference-quotient residual is 3h^2 and matches MC", ok,
             f"rel err {detail['leading_order_rel_error']:.1e} at h=0.01, "
             f"|z| {abs(detail['mc_z']):.2f} at h=0.05")


def test_criterion_11_determinism(tmp_path, cli_env):
    label = "verify-all is byte-identical across worker counts"
    outputs = []
    for workers in ("1", "4"):
        target = tmp_path / f"verify-{workers}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "gpchaos", "verify-all", "--seed", "0",
             "--out", str(target)],
            env=cli_env(GPCHAOS_WORKERS=workers), capture_output=True,
            text=True, cwd=str(tmp_path),
        )
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines()
            last = lines[-1] if lines else "no stderr"
            _verdict(11, label, False,
                     f"workers={workers} exited {proc.returncode}: {last}")
        outputs.append(target.read_bytes())
    identical = outputs[0] == outputs[1]
    all_pass = json.loads(outputs[0])["all_pass"]
    ok = identical and all_pass
    _verdict(11, label, ok, f"identical={identical}, all_pass={all_pass}")


def test_criterion_12_class_sweep_of_geman_and_a2():
    # Geman's condition holds iff r''(0) exists (Matern nu > 1, gamma = 2);
    # A2 needs the fourth derivative as well (Matern nu > 2, Wendland k >= 2)
    # and a positive discriminant, which is exactly 0 for the cosine
    expected = {}  # spec -> (Geman holds, A2 holds)
    for nu in (0.9, 1.0, 1.02, 1.05, 1.1, 1.2, 1.5, 1.9, 2.0, 2.05, 2.5):
        expected[f"matern:nu={nu:g}"] = (nu > 1.0, nu > 2.0)
    for k in (1, 2, 3, 4):
        expected[f"wendland:k={k}"] = (True, k >= 2)
    for m in (0, 1, 2, 3):
        expected[f"maternhi:m={m}"] = (m >= 1, m >= 2)
    for gamma in (0.5, 1.0, 1.5, 1.9, 2.0):
        expected[f"gammaexp:gamma={gamma:g}"] = (gamma == 2.0, gamma == 2.0)
    for alpha in (0.5, 1.0, 2.0, 10.0):
        expected[f"rq:alpha={alpha:g}"] = (True, True)
    expected["cosine"] = (True, False)  # the discriminant is exactly 0
    expected["periodic:T=2,ell=0.8"] = (True, True)
    wrong = []
    for spec, (geman, a2) in expected.items():
        report = condition_report(parse_kernel(spec))
        if (report.geman.holds, report.a2.holds) != (geman, a2):
            wrong.append(spec)
    _verdict(12, "Geman and A2 verdicts across the class thresholds", not wrong,
             f"{len(expected)} kernels, wrong: {', '.join(wrong) or 'none'}")
