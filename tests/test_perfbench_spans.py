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


def test_sampler_probe_calls_exist():
    for name in ("sample_paths", "count_crossings", "build_embedding_plan"):
        assert callable(getattr(mc, name)), name
