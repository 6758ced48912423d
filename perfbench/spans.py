"""Spans around the public calls that gpchaos commands make, and the
per-layer metrics computed from them.

The tracer swaps selected public functions in every loaded ``gpchaos``
module namespace for timing wrappers, so the library carries no hooks and
every span times a call into a module from outside it.  A span records its
name (``<module>.<function>``), its start and end, its parent span and the
id of the CLI command it ran under.  Spans stay in memory until the run
ends.  Kernel methods and private helpers are not wrapped; their time counts
toward the module that called them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

# The public calls timed in each layer.  A function imported into several
# modules (hyp2f1_terminating, hermite) is wrapped once, under the module
# that defines it.
LAYER_CALLS = {
    "specfun": ("hermite", "hyp2f1_terminating"),
    "kernels": (
        "parse_kernel",
        "b_representation",
        "r_derivatives_at_zero",
        "fd_derivatives_at_zero",
        "reconstruct_r",
    ),
    "conditions": ("condition_report", "check_a1", "check_a2", "check_geman"),
    "covstruct": ("hs_expansion_derivatives", "quadratic_bound_fit", "tensor_power_quadratic_form"),
    "asymptotics": (
        "iter_integral_series",
        "iter_integral_closed_form",
        "iter_integral_quadrature",
        "fit_decay_exponent",
    ),
    "chaos": (
        "parse_functional",
        "chaos_spectrum",
        "point_chaos_norms",
        "integrated_chaos_norms",
        "regularization_exponent",
        "laplace_decay_constant",
        "sobolev_norm",
    ),
    "montecarlo": (
        "build_embedding_plan",
        "crossing_statistics",
        "mc_integrated_functionals",
        "ms_derivative_check",
        "ms_derivative_residual",
        "rice_crossing_mean",
    ),
}

# Spans of these calls also record the spec of their first argument (the
# kernel being built, or the functional being normed).
DETAILED = frozenset({"kernels.b_representation", "chaos.integrated_chaos_norms"})

ROOT = "cli.main"
B_BUILD = "kernels.b_representation"

# (metric, span name, unit, reduction, detail prefix).  Reductions: "total"
# sums span durations; "minus_b" subtracts the b builds nested inside, so the
# layer is timed with b already built; "per_call" is the mean duration.
SPAN_METRICS = (
    ("montecarlo.crossings_s", "montecarlo.crossing_statistics", "s", "total", None),
    ("montecarlo.msderiv_s", "montecarlo.ms_derivative_check", "s", "total", None),
    ("montecarlo.functionals_s", "montecarlo.mc_integrated_functionals", "s", "total", None),
    ("montecarlo.plan_s", "montecarlo.build_embedding_plan", "s", "total", None),
    ("specfun.hermite_s", "specfun.hermite", "s", "total", None),
    ("specfun.hyp2f1_s", "specfun.hyp2f1_terminating", "s", "total", None),
    ("kernels.b_build_s", B_BUILD, "s", "total", None),
    ("kernels.fd_oracle_s", "kernels.fd_derivatives_at_zero", "s", "total", None),
    ("kernels.reconstruct_s", "kernels.reconstruct_r", "s", "minus_b", None),
    ("conditions.report_s", "conditions.condition_report", "s", "minus_b", None),
    ("conditions.geman_s", "conditions.check_geman", "s", "total", None),
    ("covstruct.tensor_form_us", "covstruct.tensor_power_quadratic_form", "us", "per_call", None),
    ("covstruct.bound_fit_s", "covstruct.quadratic_bound_fit", "s", "total", None),
    ("chaos.h2_norms_s", "chaos.integrated_chaos_norms", "s", "total", "H2:"),
    ("chaos.spectrum_s", "chaos.chaos_spectrum", "s", "total", None),
    ("chaos.ladder1d_s", "chaos.regularization_exponent", "s", "total", None),
    ("asymptotics.series_s", "asymptotics.iter_integral_series", "s", "total", None),
    ("asymptotics.closed_form_s", "asymptotics.iter_integral_closed_form", "s", "total", None),
)

# Reported in the summary only: the Wendland build runs on ``reports``
# alone and costs more than a whole run of the other workloads.
SUMMARY_ONLY_METRICS = (
    ("kernels.b_build_wendland_s", B_BUILD, "s", "total", "wendland"),
)

SAMPLER_METRICS = (
    ("montecarlo.sample_ms_per_path", "ms"),
    ("montecarlo.count_crossings_us_per_path", "us"),
    ("montecarlo.embedding_size", "count"),
    ("montecarlo.support_size", "count"),
    ("montecarlo.support_frac", "ratio"),
    ("montecarlo.clipped", "count"),
    ("montecarlo.speedup_2w", "ratio"),
)

REPORT_BYTES = ("cli.report_bytes", "bytes")

# Every metric a traced run emits, with its unit.
PER_LAYER_UNITS = {
    **{name: unit for name, _, unit, _, _ in SPAN_METRICS},
    **dict(SAMPLER_METRICS),
    REPORT_BYTES[0]: REPORT_BYTES[1],
}

FIELDS = ("id", "parent", "command", "name", "detail", "start_ns", "end_ns")


class Tracer:
    """Records spans while installed; ``uninstall`` restores the library."""

    def __init__(self):
        self.spans = []
        self.command_id = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name, detail=None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, parent, self.command_id, name, detail, start, end))

    @contextlib.contextmanager
    def command(self, command_id):
        """Root span of one CLI command; every span inside carries its id."""
        self.command_id = command_id
        try:
            with self.span(ROOT):
                yield
        finally:
            self.command_id = None

    def _wrap(self, name, fn):
        detailed = name in DETAILED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            detail = args[0].spec_string() if detailed and args else None
            with self.span(name, detail):
                return fn(*args, **kwargs)

        return traced

    def install(self):
        wrappers = {}
        for module, names in LAYER_CALLS.items():
            mod = importlib.import_module(f"gpchaos.{module}")
            for fname in names:
                fn = getattr(mod, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{module}.{fname}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "gpchaos" and not modname.startswith("gpchaos."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def dump(self) -> dict:
        return {"fields": list(FIELDS), "spans": [list(s) for s in self.spans]}


# ---------------------------------------------------------------------------
# metrics from spans


def self_times(spans) -> dict:
    """Seconds per module spent in its own spans, excluding child spans."""
    child_ns = defaultdict(int)
    for span_id, parent, _, _, _, start, end in spans:
        if parent is not None:
            child_ns[parent] += end - start
    out = defaultdict(float)
    for span_id, _, _, name, _, start, end in spans:
        out[name.split(".")[0]] += (end - start - child_ns[span_id]) / 1e9
    return dict(sorted(out.items()))


def _nested_b_ns(spans, names) -> dict:
    """Nanoseconds of b builds nested under each span whose name is in names."""
    parent_of = {s[0]: s[1] for s in spans}
    name_of = {s[0]: s[3] for s in spans}
    inside = defaultdict(int)
    for span_id, _, _, name, _, start, end in spans:
        if name != B_BUILD:
            continue
        ancestor = parent_of[span_id]
        while ancestor is not None:
            if name_of[ancestor] in names:
                inside[ancestor] += end - start
                break
            ancestor = parent_of[ancestor]
    return inside


def span_metrics(spans, specs=SPAN_METRICS) -> dict:
    """Metric values from spans; None where no span of that call exists."""
    minus_b = {span for _, span, _, reduce, _ in specs if reduce == "minus_b"}
    nested_b = _nested_b_ns(spans, minus_b)
    out = {}
    for metric, span, _, reduce, prefix in specs:
        chosen = [
            s for s in spans
            if s[3] == span and (prefix is None or (s[4] or "").startswith(prefix))
        ]
        if not chosen:
            out[metric] = None
            continue
        total_ns = sum(s[6] - s[5] for s in chosen)
        if reduce == "minus_b":
            total_ns -= sum(nested_b[s[0]] for s in chosen)
        if reduce == "per_call":
            out[metric] = total_ns / len(chosen) / 1e3
        else:
            out[metric] = total_ns / 1e9
    return out


# ---------------------------------------------------------------------------
# sampler probes: calls made from outside montecarlo, with tracing off


def sampler_metrics(configs, seed: int) -> dict:
    """Sampler cost and embedding counts over the (kernel, grid, paths)
    configurations.

    Paths are pulled through ``sample_paths`` and each one is counted by
    ``count_crossings``; the two are timed apart.  Embedding counts are
    summed over the configurations' plans.  ``speedup_2w`` times the same
    ``crossing_statistics`` call at 1 and 2 workers on the last
    configuration.
    """
    import numpy as np

    from gpchaos import montecarlo as mc
    from gpchaos.kernels import parse_kernel

    size = support = clipped = paths = 0
    sample_ns = count_ns = 0
    for spec, grid, n_paths in configs:
        kernel = parse_kernel(spec)
        plan = mc.build_embedding_plan(kernel, grid)
        size += plan.embedding_size
        support += int(np.count_nonzero(plan.eigenvalues))
        clipped += plan.clipped
        stream = mc.sample_paths(kernel, grid, n_paths, seed, plan=plan)
        while True:
            t0 = time.perf_counter_ns()
            path = next(stream, None)
            t1 = time.perf_counter_ns()
            if path is None:
                break
            mc.count_crossings(path)
            count_ns += time.perf_counter_ns() - t1
            sample_ns += t1 - t0
            paths += 1
        sample_ns += t1 - t0  # the generator's final step

    spec, grid, n_paths = configs[-1]
    kernel = parse_kernel(spec)
    elapsed = {}
    for workers in (1, 2):
        t0 = time.perf_counter()
        mc.crossing_statistics(kernel, 0.0, 2 * n_paths, grid, seed, workers=workers)
        elapsed[workers] = time.perf_counter() - t0
    return {
        "montecarlo.sample_ms_per_path": sample_ns / paths / 1e6,
        "montecarlo.count_crossings_us_per_path": count_ns / paths / 1e3,
        "montecarlo.embedding_size": size,
        "montecarlo.support_size": support,
        "montecarlo.support_frac": support / size,
        "montecarlo.clipped": clipped,
        "montecarlo.speedup_2w": elapsed[1] / elapsed[2],
    }
