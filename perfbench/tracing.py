"""Spans around the program's layers, recorded from outside the program.

Each public function of a layer is wrapped where its callers look it up (a
module attribute such as ``powerparts.saddle.mean``), so no source file
changes.  A span records its layer, the wrapped function, its parent span,
its start and its end; a layer's self time is its span minus its children.
"""

from __future__ import annotations

import importlib
import statistics
from time import perf_counter


def _fulcrum_layer(args, kwargs) -> str:
    z = args[2] if len(args) > 2 else kwargs["z"]
    return "family.complex" if complex(z).imag != 0.0 else "family.real"


def _count_layer(args, kwargs) -> str:
    k = args[1] if len(args) > 1 else kwargs["k"]
    return "bigcount.count_k1" if k == 1 else "bigcount.count"


# (module, attribute, layer or function of the call's arguments giving the layer)
WRAPPED = (
    ("powerparts.cli", "count_partitions", _count_layer),
    ("powerparts.cli", "count_via_log_recurrence", "bigcount.recurrence"),
    ("powerparts.cli", "mean", "family.real"),
    ("powerparts.cli", "variance", "family.real"),
    ("powerparts.cli", "char_fn_normalized", "family.char_fn"),
    ("powerparts.saddle", "exact_saddle", "saddle.exact"),
    ("powerparts.saddle", "hayman_estimate", "saddle.hayman"),
    ("powerparts.saddle", "mean", "family.real"),
    ("powerparts.saddle", "variance", "family.real"),
    ("powerparts.saddle", "fulcrum", _fulcrum_layer),
    ("powerparts.diagnostics", "gaussianity_ratios", "diagnostics.gauss"),
    ("powerparts.diagnostics", "strong_gauss_l1", "diagnostics.strong"),
    ("powerparts.diagnostics", "twl_bound_scan", "diagnostics.twl"),
    ("powerparts.diagnostics", "bd_condition_check", "diagnostics.bd"),
    ("powerparts.diagnostics", "bd_scaled_mean_gap", "diagnostics.bd"),
    ("powerparts.diagnostics", "clt_empirical_check", "diagnostics.clt"),
    ("powerparts.diagnostics", "mean", "family.real"),
    ("powerparts.diagnostics", "variance", "family.real"),
    ("powerparts.diagnostics", "fulcrum_derivative", "family.real"),
    ("powerparts.diagnostics", "family_point", "family.real"),
    ("powerparts.diagnostics", "fulcrum", _fulcrum_layer),
    ("powerparts.diagnostics", "pgf_modulus_ratio", "family.complex"),
    ("powerparts.diagnostics", "sample", "family.sample"),
)

# name -> unit
PER_LAYER = {
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "bigcount.count_s": "s",
    "bigcount.count_k1_s": "s",
    "bigcount.recurrence_s": "s",
    "saddle.exact_s": "s",
    "saddle.hayman_s": "s",
    "saddle.kernel_calls": "count",
    "family.real_s": "s",
    "family.real_calls": "count",
    "family.complex_s": "s",
    "family.complex_calls": "count",
    "family.char_fn_s": "s",
    "family.sample_s": "s",
    "diagnostics.strong_s": "s",
    "diagnostics.quad_evals": "count",
    "diagnostics.twl_s": "s",
    "diagnostics.twl_points": "count",
    "diagnostics.clt_s": "s",
    "diagnostics.gauss_s": "s",
    "diagnostics.bd_s": "s",
    "trace.wall_s": "s",
}

# time metric -> layers whose inclusive span time it sums
TIMED_LAYERS = {
    "bigcount.count_s": ("bigcount.count", "bigcount.count_k1"),
    "bigcount.count_k1_s": ("bigcount.count_k1",),
    "bigcount.recurrence_s": ("bigcount.recurrence",),
    "saddle.exact_s": ("saddle.exact",),
    "saddle.hayman_s": ("saddle.hayman",),
    "family.real_s": ("family.real",),
    "family.complex_s": ("family.complex", "family.char_fn"),
    "family.char_fn_s": ("family.char_fn",),
    "family.sample_s": ("family.sample",),
    "diagnostics.strong_s": ("diagnostics.strong",),
    "diagnostics.twl_s": ("diagnostics.twl",),
    "diagnostics.clt_s": ("diagnostics.clt",),
    "diagnostics.gauss_s": ("diagnostics.gauss",),
    "diagnostics.bd_s": ("diagnostics.bd",),
}


class Tracer:
    """Records spans in memory; one list per pass."""

    def __init__(self):
        self.spans = []  # [layer, function, parent index, start, end]
        self._stack = []
        self._saved = []

    def wrap(self, fn, function: str, layer):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            name = layer(args, kwargs) if callable(layer) else layer
            idx = len(spans)
            spans.append([name, function, stack[-1] if stack else -1, perf_counter(), 0.0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][4] = perf_counter()

        return traced

    def install(self) -> None:
        for module_name, attr, layer in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:  # the function is gone: its layer reads 0
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, attr, layer))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def command(self, fn):
        """Root span of one CLI command."""
        return self.wrap(fn, "main", "cli")

    def take(self) -> list:
        spans = list(self.spans)
        self.spans.clear()
        return spans


def pass_metrics(spans: list, speeds: list) -> dict:
    """Per-layer times and counts of one pass.  A span's time is divided
    by the speed factor of the command it belongs to (speeds[i] for the
    i-th root span), as the harness does for command times."""
    duration, command, roots = [], [], -1
    for layer, function, parent, start, end in spans:
        if parent < 0:
            roots += 1
        command.append(roots if parent < 0 else command[parent])
        duration.append((end - start) / speeds[command[-1]])
    child_time = [0.0] * len(spans)
    inclusive = {}
    for (layer, function, parent, start, end), d in zip(spans, duration):
        if parent >= 0:
            child_time[parent] += d
        inclusive[layer] = inclusive.get(layer, 0.0) + d
    out = {name: sum(inclusive.get(layer, 0.0) for layer in layers)
           for name, layers in TIMED_LAYERS.items()}
    out["cli.self_s"] = sum(d - child_time[i] for i, (span, d) in enumerate(zip(spans, duration))
                            if span[0] == "cli")

    def count(pred) -> int:
        return sum(1 for span in spans if pred(span))

    def parent_layer(span) -> str:
        return spans[span[2]][0] if span[2] >= 0 else ""

    out["saddle.kernel_calls"] = count(
        lambda sp: sp[1] in ("mean", "variance") and parent_layer(sp) == "saddle.exact")
    out["family.real_calls"] = count(lambda sp: sp[0] == "family.real")
    out["family.complex_calls"] = count(lambda sp: sp[0] in ("family.complex", "family.char_fn"))
    out["diagnostics.quad_evals"] = count(
        lambda sp: sp[1] == "fulcrum" and parent_layer(sp) == "diagnostics.strong")
    out["diagnostics.twl_points"] = count(lambda sp: sp[1] == "pgf_modulus_ratio")
    return out


COUNTS = ("saddle.kernel_calls", "family.real_calls", "family.complex_calls",
          "diagnostics.quad_evals", "diagnostics.twl_points", "cli.out_bytes")


def summarize(per_pass: list, trace_wall: float) -> dict:
    """Times: median over passes.  Counts: those of round 0, whose inputs
    are the nominal ones, so they repeat exactly between runs."""
    out = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.wall_s":
            value = trace_wall
        elif name in COUNTS:
            value = per_pass[0][name]
        else:
            value = statistics.median(p[name] for p in per_pass)
        out[name] = {"value": value, "unit": unit}
    return out
