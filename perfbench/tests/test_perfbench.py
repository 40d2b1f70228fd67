"""The benchmark's own tests, on tiny versions of its workloads.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bench
import layers
import workloads
from tracer import Probe, Tracer

REPO = Path(__file__).resolve().parents[2]
TIMER_JITTER_S = 1e-3

TINY = {
    "sparse-fallback": workloads.sparse_fallback(n=5000, pairs=10_000),
    "dense-fallback": workloads.dense_fallback(n=150),
    "mixed-main": workloads.mixed_main(cliques=2, clique_size=200, periphery=200),
}

FALLBACK_ONLY_ABSENT = {
    "engine.initial_step",
    "engine.count_good_colors",
    "engine.dense_select",
    "engine.dense_resolve",
    "io.read_palettes",
}
SETUP_SPANS = {
    "sparse-fallback": {"graph.build_graph", "io.write_edge_list", "io.read_edge_list"},
    "dense-fallback": {"generators.generate"},
    "mixed-main": {"graph.build_graph", "io.read_palettes"},
}


def load(wl, seed, workdir):
    return wl.setup(wl.prepare(seed, workdir))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced measurement per tiny workload: (measurement, metrics, tracer)."""
    out = {}
    for name, wl in TINY.items():
        tracer = Tracer()
        m, metrics = bench.measure_traced(wl, 3, 0.01, tmp_path_factory.mktemp(name), tracer)
        out[name] = (m, metrics, tracer)
    return out


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_clean(name, tmp_path):
    m, metrics = bench.measure(TINY[name], 5, 0.01, tmp_path)
    assert m.problems == []
    assert m.attempted == bench.SETUP_REPEATS + 3 * (1 + bench.MIN_ITERATIONS)
    assert set(metrics) == {metric for metric, _ in bench.END_TO_END}
    assert all(entry["value"] > 0 for entry in metrics.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_inputs_follow_the_seed(name, tmp_path):
    wl = TINY[name]
    first = workloads.input_digests(load(wl, 1, tmp_path))
    assert workloads.input_digests(load(wl, 1, tmp_path)) == first
    other = workloads.input_digests(load(wl, 2, tmp_path))
    assert other["edges_sha256"] != first["edges_sha256"]


@pytest.fixture(scope="module")
def proper(tmp_path_factory):
    wl = TINY["mixed-main"]
    inputs = load(wl, 4, tmp_path_factory.mktemp("proper"))
    report = workloads.run_full(wl, inputs, 4)
    table = workloads.palette_table(inputs.palettes)
    assert workloads.coloring_problems(inputs.graph, table, report.coloring) == []
    return inputs, table, report.coloring


@pytest.fixture
def colored(proper):
    """A proper coloring each test may corrupt."""
    inputs, table, coloring = proper
    return inputs, table, coloring.copy()


def test_check_rejects_blank_vertex(colored):
    inputs, table, coloring = colored
    coloring[7] = 0
    problems = workloads.coloring_problems(inputs.graph, table, coloring)
    assert len(problems) == 1 and "uncolored" in problems[0]


def test_check_rejects_monochromatic_edge(colored):
    inputs, table, coloring = colored
    u, v = (int(x) for x in inputs.graph.edge_array()[0])
    shared = np.intersect1d(inputs.palettes[u], inputs.palettes[v])
    coloring[u] = coloring[v] = shared[0]
    problems = workloads.coloring_problems(inputs.graph, table, coloring)
    assert any("monochromatic" in p for p in problems)


def test_check_rejects_out_of_palette_color(colored):
    inputs, table, coloring = colored
    v = 11
    coloring[v] = max(max(p) for p in inputs.palettes) + 1
    problems = workloads.coloring_problems(inputs.graph, table, coloring)
    assert len(problems) == 1 and "outside their palette" in problems[0]


def test_decomposition_check_rejects_missing_clique(tmp_path):
    wl = TINY["mixed-main"]
    inputs = load(wl, 4, tmp_path)
    decomp, failures = workloads.decompose_only(wl, inputs)
    assert failures == [] and workloads.decomposition_problems(decomp, inputs) == []
    fewer = workloads.Inputs(inputs.graph, inputs.palettes, inputs.planted_cliques[:1])
    assert workloads.decomposition_problems(decomp, fewer)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_emits_spans_with_nonnegative_self_time(traced, name):
    m, metrics, tracer = traced[name]
    assert m.problems == [] and tracer.absent == []
    seen = {s.name for s in tracer.spans}
    expected = {lm.source for lm in layers.LAYER_METRICS if lm.kind in ("self", "inclusive")}
    expected -= {"io.write_edge_list", "io.read_edge_list", "io.read_palettes"}
    expected -= {"generators.generate", "graph.build_graph"}
    if name != "mixed-main":
        expected -= FALLBACK_ONLY_ABSENT
    assert expected | SETUP_SPANS[name] <= seen
    if name != "mixed-main":
        assert not (FALLBACK_ONLY_ABSENT & seen)
    assert min(tracer.self_times()) >= -1e-9
    assert set(metrics) == {lm.name for lm in layers.LAYER_METRICS} | {
        name for name, _ in bench.TRACE_METRICS
    }


@pytest.mark.parametrize("name", sorted(TINY))
def test_layer_self_times_add_up_to_traced_run(traced, name):
    """Per traced iteration, the self seconds of the layer spans under
    bench.run make up the traced run time, short of at most the tracing
    overhead (plus timer jitter, which dominates at these tiny sizes)."""
    m, _, tracer = traced[name]
    own = tracer.self_times()
    root = []
    for s in tracer.spans:
        root.append(root[s.parent] if s.parent >= 0 else len(root))
    traced_groups = [g for g in m.run_seconds if g.startswith("iter/")]
    plain = [v for g, v in m.run_seconds.items() if g.startswith("plain/")]
    overhead = statistics.median(m.run_seconds[g] for g in traced_groups) - statistics.median(
        plain
    )
    assert traced_groups
    for group in traced_groups:
        layer_self = sum(
            own[i]
            for i, s in enumerate(tracer.spans)
            if s.group == group and s.parent >= 0 and tracer.spans[root[i]].name == "bench.run"
        )
        unattributed = m.run_seconds[group] - layer_self
        assert 0 <= unattributed <= max(overhead, 0) + TIMER_JITTER_S


@pytest.mark.parametrize("name", sorted(TINY))
def test_counts_repeat_exactly(traced, name):
    _, _, tracer = traced[name]
    iterations = [dict(c) for g, c in tracer.counts.items() if g.startswith("iter/")]
    assert len(iterations) >= bench.MIN_TRACED_PAIRS
    assert all(c == iterations[0] for c in iterations)


def test_missing_name_is_absent_and_patches_are_restored():
    import deltacolor.engine as engine

    original = engine.commit_colors
    tracer = Tracer()
    probes = (
        Probe("deltacolor.engine", "commit_colors", "state.commit_colors"),
        Probe("deltacolor.engine", "_merged_away", "engine.merged"),
        Probe("deltacolor.no_such_module", "f", "nowhere.f"),
    )
    with tracer.installed(probes):
        assert engine.commit_colors is not original
    assert engine.commit_colors is original
    assert tracer.absent == ["deltacolor.engine._merged_away", "deltacolor.no_such_module.f"]


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in bench.END_TO_END]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(bench.END_TO_END)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = {lm.name: lm.unit for lm in layers.LAYER_METRICS}
    expected.update(bench.TRACE_METRICS)
    assert per_layer == expected
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: wl.why for name, wl in workloads.WORKLOADS.items()
    }


def test_fails_without_the_package(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench", ignore=ignore)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixed-main", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
