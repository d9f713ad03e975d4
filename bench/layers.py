"""Spans around the calls into each layer of coverdiam, and the layer metrics.

The benchmark records spans from its own files: entering a ``Tracer`` replaces
each traced function under every coverdiam module name that holds it
(``cli.continuous_diameter`` as well as ``metric_graph.continuous_diameter``),
so calls from one layer into another are seen too.  A span holds a name,
a start, an end and the index of its parent span.  A span's self time is
its duration minus the durations of its child spans, which are nested in
it because the workloads run on one thread.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict


def _edge_pairs(counts, args, result):
    m = len(args["g"].edges)
    counts["metric_graph.edge_pairs"] += m * (m - 1) // 2


def _apsp_matrix(counts, args, result):
    n = len(args["self"].vertices)
    counts["metric_graph.apsp.matrix_mb"] = max(
        counts["metric_graph.apsp.matrix_mb"], n * n * 8 / 2**20
    )


def _connected(counts, args, result):
    counts["covering.connected"] += bool(result.connected)


def _generators(counts, args, result):
    counts["groups.is_trivial.generators"] += args["p"].generator_count


def _cosets(counts, args, result):
    counts["groups.cosets"] += result.coset_count


def _triangles(counts, args, result):
    counts["complexes.flag_triangles.triangles"] += len(result.triangles)


def _samples(counts, args, result):
    counts["complexes.nerve2.samples"] += len(args["samples"])


def _pe_edges(counts, args, result):
    counts["universal_cover.pe_subdivision_graph.edges"] += len(result.graph.edges)


def _report_bytes(counts, args, result):
    counts["cli.report_bytes"] += len(result)


# (module, function, counter); a "Class.method" name wraps the method on the
# class.  A counter gets the call's arguments by parameter name and its result.
TRACED = (
    ("metric_graph", "continuous_diameter", _edge_pairs),
    ("metric_graph", "MetricGraph.apsp", _apsp_matrix),
    ("metric_graph", "point_distance", None),
    ("covering", "derive_cover", None),
    ("covering", "is_connected_cover", _connected),
    ("groups", "todd_coxeter", _cosets),
    ("groups", "is_trivial", _generators),
    ("groups", "cayley_graph", None),
    ("groups", "word_metric_diameter", None),
    ("complexes", "spanning_tree_presentation", None),
    ("complexes", "is_simply_connected", None),
    ("complexes", "flag_triangles", _triangles),
    ("complexes", "nerve2", _samples),
    ("separator", "verify_cayley_bound", None),
    ("separator", "left_multiplication", None),
    ("universal_cover", "build_universal_cover", None),
    ("universal_cover", "pe_subdivision_graph", _pe_edges),
    ("universal_cover", "verify_universal_bound", None),
    ("universal_cover", "fiber_ball_nerve", None),
    ("cli", "run", None),
    ("cli", "emit", _report_bytes),
)


class Tracer:
    """Records spans and counters while installed; restores the program on exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if count is not None:
                count(counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "coverdiam" or n.startswith("coverdiam.")]
        for layer, qualname, count in TRACED:
            owner = sys.modules[f"coverdiam.{layer}"]
            name = f"{layer}.{qualname.rsplit('.', 1)[-1]}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                self._undo.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(name, orig, count))
                continue
            orig = getattr(owner, qualname)
            wrapped = self._wrap(name, orig, count)
            for m in modules:
                if m.__dict__.get(qualname) is orig:
                    self._undo.append((m, qualname, orig))
                    setattr(m, qualname, wrapped)
        return self

    def __exit__(self, *exc):
        for target, attr, orig in reversed(self._undo):
            setattr(target, attr, orig)
        self._undo.clear()
        return False

    def self_times(self) -> dict[str, float]:
        totals: defaultdict = defaultdict(float)
        child: defaultdict = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
        return totals


# per_layer metric name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "metric_graph.continuous_diameter.self_s": "s",
    "metric_graph.continuous_diameter.calls": "count",
    "metric_graph.edge_pairs": "count",
    "metric_graph.edge_pairs_per_s": "1/s",
    "metric_graph.apsp.self_s": "s",
    "metric_graph.apsp.matrix_mb": "MB",
    "covering.derive_cover.self_s": "s",
    "covering.is_connected_cover.self_s": "s",
    "covering.voltage_attempts": "count",
    "covering.connected_share": "ratio",
    "groups.is_trivial.self_s": "s",
    "groups.is_trivial.generators": "count",
    "groups.todd_coxeter.self_s": "s",
    "groups.todd_coxeter.calls": "count",
    "groups.cosets": "count",
    "groups.cayley_graph.self_s": "s",
    "groups.word_metric_diameter.self_s": "s",
    "complexes.flag_triangles.self_s": "s",
    "complexes.flag_triangles.triangles": "count",
    "complexes.is_simply_connected.self_s": "s",
    "complexes.nerve2.self_s": "s",
    "complexes.nerve2.samples": "count",
    "separator.verify_cayley_bound.self_s": "s",
    "universal_cover.build_universal_cover.self_s": "s",
    "universal_cover.pe_subdivision_graph.self_s": "s",
    "universal_cover.pe_subdivision_graph.edges": "count",
    "universal_cover.verify_universal_bound.self_s": "s",
    "universal_cover.fiber_ball_nerve.self_s": "s",
    "cli.run.self_s": "s",
    "cli.emit.self_s": "s",
    "cli.report_bytes": "bytes",
    "trace.run_s": "s",
    "trace.spans": "count",
}


def layer_metrics(tracer: Tracer, results: list, run_s: float) -> dict:
    """Per-round layer metrics from the spans and counters of the traced rounds.

    `run_s` is the traced rounds' run_s, on the same scale as the untraced one.
    """
    rounds = len(results)
    self_s = tracer.self_times()
    calls = defaultdict(int)
    for span in tracer.spans:
        calls[span[0]] += 1
    counts = tracer.counts
    values = {}
    for metric in LAYER_METRICS:
        if metric.endswith(".self_s"):
            values[metric] = self_s[metric[: -len(".self_s")]] / rounds
        elif metric.endswith(".calls"):
            values[metric] = calls[metric[: -len(".calls")]] / rounds
    cd_self = self_s["metric_graph.continuous_diameter"]
    values.update({
        "metric_graph.edge_pairs": counts["metric_graph.edge_pairs"] / rounds,
        "metric_graph.edge_pairs_per_s":
            counts["metric_graph.edge_pairs"] / cd_self if cd_self > 0 else 0.0,
        "metric_graph.apsp.matrix_mb": counts["metric_graph.apsp.matrix_mb"],
        "covering.voltage_attempts": calls["covering.derive_cover"] / rounds,
        "covering.connected_share":
            counts["covering.connected"] / calls["covering.is_connected_cover"]
            if calls["covering.is_connected_cover"] else 0.0,
        "groups.is_trivial.generators": counts["groups.is_trivial.generators"] / rounds,
        "groups.cosets": counts["groups.cosets"] / rounds,
        "complexes.flag_triangles.triangles": counts["complexes.flag_triangles.triangles"] / rounds,
        "complexes.nerve2.samples": counts["complexes.nerve2.samples"] / rounds,
        "universal_cover.pe_subdivision_graph.edges":
            counts["universal_cover.pe_subdivision_graph.edges"] / rounds,
        "cli.report_bytes": counts["cli.report_bytes"] / rounds,
        "trace.run_s": run_s,
        "trace.spans": len(tracer.spans) / rounds,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
