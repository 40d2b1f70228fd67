"""Which package functions the traced run wraps, and the per-layer metrics.

The layers are the package modules. Each probe wraps one function in the
namespace of its caller (see ``tracer``); each per-layer metric is read
from the spans and counters those probes and the benchmark record.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from tracer import Probe, Tracer

SETUP = "setup"
ITERATION = "iter"
# Set-up times are wall seconds; times within an iteration are reference
# seconds (see bench.REFERENCE_SECONDS).
UNITS = {SETUP: "s", ITERATION: "ref_s"}
REF_S = UNITS[ITERATION]


def _commit(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.count("state.commit_colors.calls")
    tracer.count("state.commit_colors.vertices", len(args[1]))


def _fallback_round(tracer: Tracer, args: tuple, stats) -> None:
    tracer.count("engine.fallback.rounds")
    tracer.count("engine.fallback.won", stats.colored)
    tracer.count("engine.fallback.tried", stats.colored + stats.de_colored)


def _dense_step(tracer: Tracer, args: tuple, result) -> None:
    stats = result.stats
    tracer.count("engine.dense.steps")
    tracer.count("engine.dense.won", stats.colored)
    tracer.count("engine.dense.tried", stats.colored + stats.de_colored)
    tracer.count("engine.dense.palette_exhausted", stats.palette_exhausted)


def _friend_edges(tracer: Tracer, args: tuple, friend_graph) -> None:
    tracer.set("decomposition.friend_edges", friend_graph.num_edges)


def _classified(tracer: Tracer, args: tuple, decomp) -> None:
    tracer.set("decomposition.cliques", len(decomp.cliques))
    tracer.set("decomposition.dense_vertices", decomp.num_dense())


PROBES = (
    # setup: the benchmark's own calls and read_edge_list's graph build
    Probe("deltacolor.graph", "build_graph", "graph.build_graph"),
    Probe("deltacolor.io", "build_graph", "graph.build_graph"),
    Probe("deltacolor.io", "write_edge_list", "io.write_edge_list"),
    Probe("deltacolor.io", "read_edge_list", "io.read_edge_list"),
    Probe("deltacolor.io", "read_palettes", "io.read_palettes"),
    Probe("deltacolor.generators", "generate", "generators.generate"),
    # the run, as engine.run resolves its callees
    Probe("deltacolor.engine", "run", "engine.run"),
    Probe("deltacolor.engine", "init_state", "state.init_state"),
    Probe("deltacolor.engine", "decompose", "decomposition.decompose"),
    Probe("deltacolor.engine", "initial_coloring_step", "engine.initial_step"),
    Probe("deltacolor.engine", "count_good_colors", "engine.count_good_colors"),
    Probe("deltacolor.engine", "dense_coloring_step", "engine.dense_select", on_result=_dense_step),
    Probe("deltacolor.engine", "apply_dense_tentative", "engine.dense_resolve"),
    Probe(
        "deltacolor.engine", "fallback_round", "engine.fallback_round", on_result=_fallback_round
    ),
    Probe("deltacolor.engine", "commit_colors", "state.commit_colors", on_result=_commit),
    Probe("deltacolor.engine", "residual_consistency_failures", "checks.monitor_residual"),
    Probe("deltacolor.engine", "properness_failures", "checks.monitor_properness"),
    Probe("deltacolor.engine", "coloring_failures", "checks.coloring_failures"),
    Probe("deltacolor.checks", "recompute_residuals", "checks.recompute_residuals"),
    # the decompose-only pipeline and the decomposition's internals
    Probe("deltacolor.decomposition", "decompose", "decomposition.decompose"),
    Probe(
        "deltacolor.decomposition",
        "compute_friend_edges",
        "decomposition.compute_friend_edges",
        on_result=_friend_edges,
    ),
    Probe(
        "deltacolor.decomposition",
        "classify_and_components",
        "decomposition.classify_and_components",
        on_result=_classified,
    ),
    Probe("deltacolor.decomposition", "structural_metrics", "decomposition.structural_metrics"),
    Probe(
        "deltacolor.decomposition",
        "common_neighbor_counts",
        "decomposition.common_neighbor_counts",
        spanned=False,
    ),
    Probe("deltacolor.checks", "decomposition_failures", "checks.decomposition_failures"),
    Probe(
        "deltacolor.checks", "decomposition_bound_failures", "checks.decomposition_bound_failures"
    ),
    Probe("deltacolor.checks", "verify_coloring", "checks.verify_coloring"),
)


@dataclass(frozen=True)
class LayerMetric:
    """``kind`` is "self" or "inclusive" (seconds of span ``source``),
    "count" (counter ``source``) or "ratio" (counters ``source``/``base``)."""

    name: str
    unit: str
    kind: str
    source: str
    phase: str = ITERATION
    base: str = ""


def _self(span: str, phase: str = ITERATION) -> LayerMetric:
    return LayerMetric(f"{span}_s", UNITS[phase], "self", span, phase)


def _count(counter: str) -> LayerMetric:
    return LayerMetric(counter, "count", "count", counter)


def _ratio(prefix: str) -> LayerMetric:
    """Vertices coloured over vertices that tried a colour."""
    name, won, tried = f"{prefix}.win_ratio", f"{prefix}.won", f"{prefix}.tried"
    return LayerMetric(name, "ratio", "ratio", won, base=tried)


LAYER_METRICS = (
    _self("io.write_edge_list", SETUP),
    _self("io.read_edge_list", SETUP),
    _self("io.read_palettes", SETUP),
    _self("io.report_json"),
    _self("generators.generate", SETUP),
    _self("graph.build_graph", SETUP),
    _self("decomposition.compute_friend_edges"),
    _count("decomposition.common_neighbor_counts.calls"),
    _self("decomposition.classify_and_components"),
    _self("decomposition.structural_metrics"),
    _count("decomposition.friend_edges"),
    _count("decomposition.cliques"),
    _count("decomposition.dense_vertices"),
    _self("state.init_state"),
    _self("state.commit_colors"),
    _count("state.commit_colors.calls"),
    _count("state.commit_colors.vertices"),
    _self("engine.run"),
    _self("engine.initial_step"),
    _self("engine.count_good_colors"),
    _self("engine.dense_select"),
    _self("engine.dense_resolve"),
    _self("engine.fallback_round"),
    _count("engine.fallback.rounds"),
    _ratio("engine.fallback"),
    _count("engine.dense.steps"),
    _ratio("engine.dense"),
    _count("engine.dense.palette_exhausted"),
    _count("engine.rounds_used"),
    LayerMetric("checks.monitor_residual_s", REF_S, "inclusive", "checks.monitor_residual"),
    _self("checks.recompute_residuals"),
    _self("checks.monitor_properness"),
    _self("checks.coloring_failures"),
    _self("checks.decomposition_failures"),
    _self("checks.decomposition_bound_failures"),
    _self("checks.verify_coloring"),
)


def layer_values(tracer: Tracer, groups: dict[str, list[str]]) -> dict[str, float]:
    """Median over the samples of each metric's phase.

    ``groups`` maps a phase to the tracer groups of its samples. A span
    or counter missing from a sample counts as 0 there, so a layer that
    does not run on a workload reads 0.
    """
    own = tracer.per_group()
    inclusive = tracer.per_group(inclusive=True)
    out = {}
    for m in LAYER_METRICS:
        samples = []
        for group in groups[m.phase]:
            if m.kind == "self":
                samples.append(own.get(group, {}).get(m.source, 0.0))
            elif m.kind == "inclusive":
                samples.append(inclusive.get(group, {}).get(m.source, 0.0))
            elif m.kind == "count":
                samples.append(tracer.counts.get(group, {}).get(m.source, 0))
            else:
                counts = tracer.counts.get(group, {})
                base = counts.get(m.base, 0)
                samples.append(counts.get(m.source, 0) / base if base else 0.0)
        out[m.name] = statistics.median(samples)
    return out
