"""The benchmark's tracer and sampler probe still find every library call
they time.

``perfbench/spans.py`` wraps public functions by name, and its sampler probe
calls a few more, so deleting or renaming one of them would break only the
traced benchmark run; these tests make it a Tier-1 failure.  The module is
loaded by path and not edited.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from gpchaos import cli
from gpchaos import montecarlo as mc
from gpchaos.chaos import parse_functional
from gpchaos.kernels import parse_kernel

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_timed_call_and_restores_it(spans):
    modules = {name: importlib.import_module(f"gpchaos.{name}") for name in spans.LAYER_CALLS}
    originals = {
        (module, name): getattr(modules[module], name)
        for module, names in spans.LAYER_CALLS.items()
        for name in names
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (module, name), fn in originals.items():
            assert getattr(modules[module], name).__wrapped__ is fn, f"{module}.{name}"
        # a call imported into another module is wrapped there too
        assert cli.parse_kernel.__wrapped__ is originals["kernels", "parse_kernel"]
    finally:
        tracer.uninstall()
    for (module, name), fn in originals.items():
        assert getattr(modules[module], name) is fn, f"{module}.{name}"
    assert cli.parse_kernel is originals["kernels", "parse_kernel"]


def test_sampler_probe_calls_exist(spans):
    # the probe calls sample_paths(plan=), count_crossings on each path and
    # crossing_statistics(workers=); a changed signature fails here.  The
    # matern52 plan takes the band route, and the probe pulls its paths one
    # by one through three blocks of one reused workspace
    for spec, grid, n_paths in (("sqexp", 64, 8), ("matern52", 512, 160)):
        metrics = spans.sampler_metrics([(spec, grid, n_paths)], seed=0)
        plan = mc.build_embedding_plan(parse_kernel(spec), grid)
        assert plan.direct_synthesis == (spec == "sqexp")
        assert metrics["montecarlo.embedding_size"] == plan.embedding_size
        assert metrics["montecarlo.support_size"] == plan.support.size
        assert metrics["montecarlo.sample_ms_per_path"] > 0.0
        assert metrics["montecarlo.count_crossings_us_per_path"] > 0.0
        assert metrics["montecarlo.speedup_2w"] > 0.0
    assert n_paths > 2 * 2 * mc._pair_chunk(plan)


def test_traced_h2_report_records_the_tensor_form(spans, capsys):
    # covstruct.tensor_form_us is computed from these spans, so a chaos
    # report that stops calling the public form breaks the traced run
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(["chaos", "--kernel", "sqexp", "--functional", "H2:1,1", "--n-max", "2"])
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr().err
    names = {span[3] for span in tracer.spans}
    assert {"covstruct.tensor_power_quadratic_form", "chaos.integrated_chaos_norms"} <= names
    metrics = spans.span_metrics(tracer.spans)
    assert metrics["covstruct.tensor_form_us"] > 0.0


def test_traced_monte_carlo_functionals_record_hermite(spans):
    # specfun.hermite_s is computed from these spans, and on the
    # verify-sparse and simulate-dense runs the Monte Carlo statistic is
    # the only caller of the public Hermite recurrence
    tracer = spans.Tracer()
    tracer.install()
    try:
        mc.mc_integrated_functionals(
            [parse_functional("H:2")], parse_kernel("sqexp"), n_paths=4, grid_points=64, seed=0
        )
    finally:
        tracer.uninstall()
    assert spans.span_metrics(tracer.spans)["specfun.hermite_s"] > 0.0


def test_traced_verify_all_reaches_every_monte_carlo_oracle(spans, capsys):
    # montecarlo.crossings_s, msderiv_s and functionals_s are read from these
    # spans; the shared chaos and crossing pass goes through the public
    # mc_integrated_functionals, and no oracle's span holds another's
    oracles = {f"montecarlo.{name}" for name in
               ("crossing_statistics", "mc_integrated_functionals", "ms_derivative_check")}
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(["verify-all", "--paths", "400", "--grid", "128"])
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr().err
    names = {span[0]: span[3] for span in tracer.spans}
    assert oracles <= set(names.values())
    assert all(names.get(span[1]) not in oracles for span in tracer.spans if span[3] in oracles)
    metrics = spans.span_metrics(tracer.spans)
    for metric in ("montecarlo.crossings_s", "montecarlo.msderiv_s", "montecarlo.functionals_s"):
        assert metrics[metric] > 0.0
