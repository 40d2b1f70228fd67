import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import deltacolor
from deltacolor import sharing as sharing_module
from deltacolor.cli import MODES, main


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_decompose_only_complete_clique(tmp_path):
    out = tmp_path / "dec.json"
    code = main([
        "run", "--gen", "complete:21", "--epsilon", "0.1",
        "--seed", "7", "--mode", "decompose-only", "--out", str(out),
    ])
    assert code == 0
    doc = read_json(out)
    assert doc["num_cliques"] == 1
    assert doc["sparse"] == []
    assert len(doc["cliques"][0]["members"]) == 21
    assert doc["metrics"]["weak_diameter"] == [1]
    assert all(v == 0 for v in doc["metrics"]["external_degree"].values())
    assert doc["invariant_failures"] == []


def test_decompose_only_reports_each_invariant_failure(tmp_path, monkeypatch, capsys):
    # the failure is planted in the check the CLI calls
    planted = ["almost-clique 0 is not connected under friend edges"]
    monkeypatch.setattr(deltacolor.cli, "decomposition_failures", lambda graph, decomp: list(planted))
    out = tmp_path / "dec.json"
    code = main(["run", "--gen", "complete:21", "--epsilon", "0.1", "--mode", "decompose-only",
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"invariant failure: {planted[0]}\n"
    assert read_json(out)["invariant_failures"] == planted


def test_an_invariant_violation_exits_one(tmp_path, monkeypatch, capsys):
    def violated(graph, epsilon):
        raise deltacolor.InvariantViolation("planted violation")

    monkeypatch.setattr(deltacolor.cli, "decompose", violated)
    out = tmp_path / "dec.json"
    assert main(["run", "--gen", "complete:21", "--mode", "decompose-only", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "invariant violation: planted violation\n"
    assert not out.exists()


def test_full_run_and_verify_roundtrip(tmp_path):
    graph_file = tmp_path / "g.edges"
    assert main(["generate", "--gen", "gnp:60,0.3", "--seed", "3", "--out", str(graph_file)]) == 0

    report_file = tmp_path / "report.json"
    code = main([
        "run", "--input", str(graph_file), "--mode", "full",
        "--seed", "1", "--out", str(report_file),
    ])
    assert code == 0
    doc = read_json(report_file)
    assert doc["complete"] is True
    assert doc["invariant_failures"] == []
    assert len(doc["coloring"]) == 60
    for key in ("seed", "n", "delta", "epsilon", "K", "main_path", "rounds_used", "steps"):
        assert key in doc

    assert main([
        "run", "--input", str(graph_file), "--mode", "verify",
        "--coloring", str(report_file),
    ]) == 0

    # corrupt one entry: must fail verification with exit 1
    doc["coloring"]["0"] = doc["coloring"]["1"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main([
        "run", "--input", str(graph_file), "--mode", "verify", "--coloring", str(bad),
    ]) == 1


def test_reports_are_byte_stable(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["run", "--gen", "gnp:80,0.4", "--seed", "5", "--mode", "full"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_initial_only_mode(tmp_path):
    out = tmp_path / "init.json"
    code = main([
        "run", "--gen", "gnp:200,0.4", "--seed", "2",
        "--mode", "initial-only", "--out", str(out),
    ])
    assert code == 0
    doc = read_json(out)
    assert doc["steps"][0]["kind"] == "initial"
    assert doc["good_colors"]["min_slack"] >= 0
    assert doc["invariant_failures"] == []


def test_dense_steps_mode_with_step_delta(tmp_path):
    out = tmp_path / "dense.json"
    code = main([
        "run", "--gen", "clique_chain:50x4", "--epsilon", "0.1", "--seed", "3",
        "--mode", "dense-steps", "--steps", "1", "--step-delta", "0.04",
        "--out", str(out),
    ])
    assert code == 0
    doc = read_json(out)
    assert doc["num_cliques"] == 4
    dense = [s for s in doc["steps"] if s["kind"] == "dense"]
    assert len(dense) == 1
    assert dense[0]["colored"] > 0
    assert doc["gammas"][0] == pytest.approx(0.6)


def test_fallback_only_mode(tmp_path):
    out = tmp_path / "fb.json"
    code = main([
        "run", "--gen", "complete:30", "--seed", "1",
        "--mode", "fallback-only", "--out", str(out),
    ])
    assert code == 0
    doc = read_json(out)
    assert doc["invariant_failures"] == []
    assert sum(s["colored"] for s in doc["steps"]) == 30


def test_csv_step_output(tmp_path):
    out = tmp_path / "steps.csv"
    code = main([
        "run", "--gen", "gnp:50,0.3", "--seed", "4", "--mode", "full",
        "--format", "csv", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("kind,colored,de_colored")
    assert len(lines) >= 2


def test_repetitions_aggregate(tmp_path):
    out = tmp_path / "agg.json"
    code = main([
        "run", "--gen", "clique_chain:100x3", "--epsilon", "0.04", "--K", "0.4",
        "--force-main-path", "--seed", "10", "--repetitions", "8",
        "--mode", "full", "--out", str(out),
    ])
    assert code == 0
    doc = read_json(out)
    assert doc["repetitions"] == 8
    assert doc["runs_with_failures"] == 0
    assert "dense" in doc["per_kind"]
    assert "1" in doc["dense_de_coloring_frequency"]


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gen": "complete:21", "mode": "decompose-only", "epsilon": 0.1}))
    out = tmp_path / "out.json"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert read_json(out)["num_cliques"] == 1


def test_config_file_accepts_generator_spec_object(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "gen": {"kind": "gnp", "n": 80, "p": 0.4, "seed": 5},
        "mode": "full",
        "seed": 2,
    }))
    out = tmp_path / "out.json"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["n"] == 80 and doc["complete"] is True


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gen": "complete:21", "mode": "decompose-only", "epsilon": 0.1}))
    out = tmp_path / "out.json"
    code = main(["run", "--config", str(cfg), "--gen", "complete:25", "--out", str(out)])
    assert code == 0
    assert len(read_json(out)["cliques"][0]["members"]) == 25


def test_unknown_config_key_is_an_error(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gen": "complete:21", "bogus": 1}))
    assert main(["run", "--config", str(cfg)]) == 2


def test_usage_errors_exit_two(tmp_path):
    assert main(["run"]) == 2  # neither --input nor --gen
    assert main(["run", "--gen", "nonsense:1"]) == 2
    assert main(["run", "--input", str(tmp_path / "missing.edges")]) == 2
    assert main(["run", "--gen", "complete:10", "--mode", "verify"]) == 2  # no --coloring
    assert main(["run", "--gen", "complete:10", "--epsilon", "0.3"]) == 2


def test_out_alone_names_the_report_path(tmp_path, monkeypatch):
    # the DELTACOLOR_OUT_DIR default directory is gone: a bare name is cwd-relative
    monkeypatch.setenv("DELTACOLOR_OUT_DIR", str(tmp_path / "elsewhere"))
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--gen", "complete:10", "--out", "report.json"]) == 0
    assert (tmp_path / "report.json").exists()
    assert not (tmp_path / "elsewhere").exists()


def test_stdout_report(capsys):
    code = main(["run", "--gen", "complete:5", "--mode", "full", "--seed", "0"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["complete"] is True


STEP_MODES = {
    "initial-only": ["--gen", "gnp:60,0.3"],
    "dense-steps": ["--gen", "clique_chain:50x4", "--epsilon", "0.1", "--step-delta", "0.04"],
    "fallback-only": ["--gen", "complete:30"],
}


@pytest.mark.parametrize("mode", sorted(STEP_MODES))
def test_step_modes_run_the_monitor_after_every_step(tmp_path, monkeypatch, mode):
    import deltacolor.engine

    monkeypatch.setattr(
        deltacolor.engine, "residual_consistency_failures", lambda state: ["injected"]
    )
    out = tmp_path / "r.json"
    argv = ["run", *STEP_MODES[mode], "--seed", "1", "--mode", mode, "--out", str(out)]
    assert main(argv) == 1
    doc = read_json(out)
    kind = {"initial-only": "initial", "dense-steps": "dense", "fallback-only": "fallback"}[mode]
    assert any(msg.endswith(f"({kind}): injected") for msg in doc["invariant_failures"])


def plant_surplus_drop(monkeypatch, planted):
    """A commit that also drops one palette entry of the first uncolored
    vertex whose surplus the real commit left unchanged (and at least 2,
    so its palette never runs dry): only that vertex's surplus falls."""
    engine = deltacolor.engine
    commit = engine.commit_colors

    def commit_and_drop(state, vertices, colors):
        before = state.surplus()
        commit(state, vertices, colors)
        if planted:
            return
        same = (state.committed == 0) & (state.surplus() == before) & (before >= 2)
        v = int(np.flatnonzero(same)[0])
        state.palette[v, np.flatnonzero(state.palette[v])[0]] = False
        state.residual_palette_size[v] -= 1
        planted.append(f"step 1 (fallback): surplus of uncolored vertex {v} decreased")

    monkeypatch.setattr(engine, "commit_colors", commit_and_drop)


def plant_good_color_excess(monkeypatch, planted):
    """Good-color counts one above s0 at vertex 0."""
    engine = deltacolor.engine
    count = engine.count_good_colors

    def inflated(state):
        good = count(state)
        s0 = int(good.s0[0])
        good.good_counts[0] = s0 + 1
        planted.append(f"good-color bound violated at vertex 0: s0={s0} < |J|={s0 + 1}")
        return good

    monkeypatch.setattr(engine, "count_good_colors", inflated)


def plant_colored_miscount(monkeypatch, planted):
    """A first step whose record counts one colored vertex too many."""
    engine = deltacolor.engine
    resolve = engine._resolve

    def miscounted(*args, **kwargs):
        stats = resolve(*args, **kwargs)
        if not planted:
            stats.colored += 1
            planted.append("per-step colored counts sum to 61, but 60 vertices are colored")
        return stats

    monkeypatch.setattr(engine, "_resolve", miscounted)


def plant_shared_color(monkeypatch, planted):
    """A first commit after which one committed vertex wears the color of
    a committed neighbour: the row of the first CSR slot whose two ends
    are committed takes its column's color."""
    engine = deltacolor.engine
    commit = engine.commit_colors

    def commit_and_recolor(state, vertices, colors):
        commit(state, vertices, colors)
        if planted:
            return
        g, committed = state.graph, state.committed
        owners = g.slot_owners()
        slot = int(np.flatnonzero((committed[owners] != 0) & (committed[g.indices] != 0))[0])
        u, w = int(owners[slot]), int(g.indices[slot])
        committed[u] = committed[w]
        planted.append(
            f"step 1 (fallback): edge ({min(u, w)}, {max(u, w)}) is monochromatic "
            f"with color {int(committed[w])}"
        )

    monkeypatch.setattr(engine, "commit_colors", commit_and_recolor)


def plant_stale_degree(monkeypatch, planted):
    """A first commit that leaves one decrement undone: the first uncolored
    neighbour of the batch keeps a residual degree one too high."""
    engine = deltacolor.engine
    commit = engine.commit_colors

    def commit_and_skip(state, vertices, colors):
        commit(state, vertices, colors)
        if planted:
            return
        g = state.graph
        batch = np.zeros(g.n, dtype=bool)
        batch[vertices] = True
        near = np.bincount(g.slot_owners()[batch[g.indices]], minlength=g.n) > 0
        v = int(np.flatnonzero(near & (state.committed == 0))[0])
        d = int(state.residual_degree[v])
        state.residual_degree[v] += 1
        planted.append(f"step 1 (fallback): vertex {v}: maintained d={d + 1}, recomputed {d}")

    monkeypatch.setattr(engine, "commit_colors", commit_and_skip)


def plant_stale_palette_size(monkeypatch, planted):
    """A first commit that leaves one palette entry counted: the first
    uncolored neighbour of the batch keeps a residual palette size one too
    high."""
    engine = deltacolor.engine
    commit = engine.commit_colors

    def commit_and_overcount(state, vertices, colors):
        commit(state, vertices, colors)
        if planted:
            return
        g = state.graph
        batch = np.zeros(g.n, dtype=bool)
        batch[vertices] = True
        near = np.bincount(g.slot_owners()[batch[g.indices]], minlength=g.n) > 0
        v = int(np.flatnonzero(near & (state.committed == 0))[0])
        q = int(state.residual_palette_size[v])
        state.residual_palette_size[v] += 1
        planted.append(f"step 1 (fallback): vertex {v}: maintained Q={q + 1}, recomputed {q}")

    monkeypatch.setattr(engine, "commit_colors", commit_and_overcount)


def plant_early_stop(monkeypatch, planted):
    """A fallback that gives up after its first trial round, as if its
    round bound were 1: the vertices that round missed stay uncolored."""
    phases = deltacolor.engine.PhaseDriver
    fallback = phases.fallback

    def one_round(self, eligible=None):
        self.max_fallback_iters = 1
        fallback(self, eligible)
        left = np.flatnonzero(self.state.committed == 0)
        planted.append(f"{left.size} vertices left uncolored (first: {int(left[0])})")

    monkeypatch.setattr(phases, "fallback", one_round)


def plant_foreign_color(monkeypatch, planted):
    """A first commit after which the first batch vertex wears the smallest
    colour of the palette columns that is not in its own palette."""
    engine = deltacolor.engine
    commit = engine.commit_colors

    def commit_and_swap(state, vertices, colors):
        commit(state, vertices, colors)
        if planted:
            return
        v = int(vertices[0])
        c = int(state.color_values[np.flatnonzero(~state.original_palette[v])[0]])
        state.committed[v] = c
        planted.append(f"vertex {v} wears color {c} outside its own palette")

    monkeypatch.setattr(engine, "commit_colors", commit_and_swap)


PLANTS = [
    (plant_surplus_drop, "full", False),
    (plant_good_color_excess, "initial-only", False),
    (plant_colored_miscount, "full", False),
    (plant_shared_color, "full", False),
    (plant_stale_degree, "full", False),
    (plant_stale_palette_size, "full", False),
    (plant_early_stop, "full", False),
    (plant_foreign_color, "full", True),
]


@pytest.mark.parametrize(
    "plant, mode, lists", PLANTS, ids=[f"{plant.__name__}-{mode}" for plant, mode, _ in PLANTS]
)
def test_planted_monitor_defects_reach_the_driver_and_the_cli(tmp_path, monkeypatch, capsys, plant, mode, lists):
    # gnp:60,0.3 takes the fallback path in a full run; the checks are the
    # driver's own, only the defect they catch is planted. With ``lists``
    # each vertex v gets the Δ+1 colours from 1 + v % 7 on, read from a file.
    planted = []
    plant(monkeypatch, planted)
    g = deltacolor.generate(deltacolor.GeneratorSpec.parse("gnp:60,0.3", seed=1))
    palettes, flags = deltacolor.canonical_palettes(g), []
    if lists:
        path = tmp_path / "p.json"
        need = g.max_degree + 1
        path.write_text(json.dumps({str(v): list(range(1 + v % 7, 1 + need + v % 7)) for v in range(g.n)}))
        palettes, flags = deltacolor.io.read_palettes(path, g.n), ["--palettes", str(path)]
    driver = deltacolor.engine.PhaseDriver(g, palettes, seed=1)
    if mode == "full":
        driver.full()
    else:
        driver.initial()
    failures = driver.report().invariant_failures
    assert len(planted) == 1 and planted[0] in failures
    planted.clear()
    argv = ["run", "--gen", "gnp:60,0.3", "--seed", "1", "--mode", mode, *flags,
            "--out", str(tmp_path / "r.json")]
    assert main(argv) == 1
    assert f"invariant failure: {planted[0]}" in capsys.readouterr().err.splitlines()
    assert planted[0] in read_json(tmp_path / "r.json")["invariant_failures"]


@pytest.mark.parametrize("mode", sorted(STEP_MODES))
def test_step_modes_write_run_reports_and_csv(tmp_path, mode):
    out = tmp_path / "r.json"
    argv = ["run", *STEP_MODES[mode], "--seed", "1", "--mode", mode]
    assert main(argv + ["--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["mode"] == mode
    for key in ("seed", "n", "delta", "epsilon", "K", "rounds_used", "steps", "schedule",
                "coloring", "complete", "invariant_failures"):
        assert key in doc
    assert doc["complete"] is (mode == "fallback-only")
    assert doc["rounds_used"] == sum(s["rounds"] for s in doc["steps"])
    csv = tmp_path / "r.csv"
    assert main(argv + ["--format", "csv", "--out", str(csv)]) == 0
    assert len(csv.read_text().splitlines()) == 1 + len(doc["steps"])


def test_dense_steps_repetitions_aggregate(tmp_path):
    out = tmp_path / "agg.json"
    code = main([
        "run", *STEP_MODES["dense-steps"], "--steps", "1", "--seed", "3",
        "--mode", "dense-steps", "--repetitions", "8", "--out", str(out),
    ])
    assert code == 0
    doc = read_json(out)
    assert doc["repetitions"] == 8
    assert doc["runs_with_failures"] == 0
    assert doc["per_kind"]["dense"]["steps"] == 8
    assert "1" in doc["dense_de_coloring_frequency"]


def test_schedule_driven_dense_steps_are_clean(tmp_path):
    out = tmp_path / "dense.json"
    code = main([
        "run", "--gen", "clique_chain:200x5", "--epsilon", "0.035", "--K", "0.5",
        "--seed", "3", "--mode", "dense-steps", "--out", str(out),
    ])
    assert code == 0
    doc = read_json(out)
    assert len(doc["gammas"]) == doc["dense_steps_executed"] >= 1


def _usage_error(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2, err
    assert len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err
    return err


def test_csv_without_steps_is_rejected_before_the_graph_loads(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    for extra in (["--mode", "decompose-only"], ["--mode", "verify"], ["--repetitions", "2"]):
        argv = ["run", "--input", missing, "--format", "csv", *extra]
        assert "csv format is only available" in _usage_error(capsys, argv)


def test_config_equals_form_is_honored(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gen": "complete:21", "mode": "decompose-only", "epsilon": 0.1}))
    out = tmp_path / "out.json"
    assert main(["run", f"--config={cfg}", "--out", str(out)]) == 0
    assert read_json(out)["num_cliques"] == 1


def test_trailing_config_flag_is_a_usage_error(capsys):
    assert "--config" in _usage_error(capsys, ["run", "--gen", "complete:5", "--config"])


def test_config_keys_follow_the_run_flags(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gen": "complete:21", "max-fallback-iters": 50, "K": 256}))
    out = tmp_path / "out.json"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert read_json(out)["K"] == 256.0
    for removed in ("workers", "epsilon-from-K", "strict-K", "config"):
        cfg.write_text(json.dumps({"gen": "complete:21", removed: 2}))
        assert removed in _usage_error(capsys, ["run", "--config", str(cfg)])


def test_non_integer_edge_list_header_is_a_usage_error(tmp_path, capsys):
    graph_file = tmp_path / "g.edges"
    graph_file.write_text("n x\n0 1\n")
    assert "vertex count" in _usage_error(capsys, ["run", "--input", str(graph_file)])


@pytest.mark.parametrize("text", ["0 1\n1_0 2\n", "+3 4\n", "3 \u0664\n", "n 1_1\n0 1\n"])
def test_edge_list_ids_outside_ascii_digits_are_a_usage_error(tmp_path, capsys, text):
    graph_file = tmp_path / "g.edges"
    graph_file.write_text(text, encoding="utf-8")
    err = _usage_error(capsys, ["run", "--input", str(graph_file)])
    assert "g.edges:" in err and ("vertex ID" in err or "vertex count" in err)


@pytest.mark.parametrize(
    "flag, content, reason",
    [
        ("--input", b"0 1\n1 2\n2 3 \xff\n", "can't decode byte 0xff in position 12"),
        ("--palettes", b'{"0": [1, 2, 3], "1": [1 2', "Expecting ',' delimiter"),
        ("--coloring", b'{"coloring": {"0": 1, \xff', "can't decode byte 0xff in position 22"),
        ("--config", b'{"gen": "complete:3", "mode"', "Expecting ':' delimiter"),
    ],
)
def test_unreadable_files_are_named_in_the_error(tmp_path, capsys, flag, content, reason):
    path = tmp_path / "file"
    path.write_bytes(content)
    argv = {
        "--input": ["run", "--input", str(path)],
        "--palettes": ["run", "--gen", "complete:3", "--palettes", str(path)],
        "--coloring": ["run", "--gen", "complete:3", "--mode", "verify", "--coloring", str(path)],
        "--config": ["run", "--config", str(path)],
    }[flag]
    err = _usage_error(capsys, argv)
    assert err.startswith(f"error: {path}: ") and reason in err, err


def test_bipartite_console_step_takes_the_prune(monkeypatch, capsys):
    """The workflow's bipartite console-script step: no sampled row holds a
    survivor, so the prune is taken, though every non-edge within a side
    passes the bound; the adjacency test leaves no survivor to count."""
    pays, gram = sharing_module._prune_pays, sharing_module._gram
    taken, products = [], []
    monkeypatch.setattr(sharing_module, "_prune_pays", lambda *sampled: taken.append(pays(*sampled)) or taken[-1])
    monkeypatch.setattr(sharing_module, "_gram", lambda dense: products.append(dense.shape) or gram(dense))
    argv = ["run", "--gen", "bipartite_random:400,0.95", "--seed", "1", "--epsilon", "0.1"]
    assert main(argv + ["--mode", "decompose-only"]) == 0, capsys.readouterr().err
    assert taken == [True] and products == [(400, 100)]
    assert json.loads(capsys.readouterr().out)["num_cliques"] == 0


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    _usage_error(capsys, ["run", "--gen", "gnp:20,0.3", "--seed", "-1"])
    _usage_error(capsys, ["generate", "--gen", "gnp:20,0.3", "--seed", "-1",
                          "--out", str(tmp_path / "g.edges")])


def test_repetitions_need_a_coloring_mode(capsys):
    for mode in ("decompose-only", "verify"):
        _usage_error(capsys, ["run", "--gen", "complete:5", "--mode", mode, "--repetitions", "2"])


@pytest.mark.parametrize("repetitions", [str(10**6 + 1), str(2**63)])
def test_repetitions_beyond_the_limit_are_a_usage_error(capsys, repetitions):
    # rejected before any run, or the list of seeds, is made
    message = _usage_error(capsys, ["run", "--gen", "complete:5", "--repetitions", repetitions])
    assert "--repetitions must be at most 1000000" in message


def test_oversized_allocations_are_a_usage_error(tmp_path, capsys):
    assert "complete would allocate" in _usage_error(capsys, ["run", "--gen", "complete:100000"])
    # 8192 isolated vertices whose palettes share no colour
    graph_file, palette_file = tmp_path / "g.edges", tmp_path / "p.json"
    graph_file.write_text("n 8192\n")
    palette_file.write_text(json.dumps({str(v): [5 * v + c for c in range(1, 6)] for v in range(8192)}))
    message = _usage_error(capsys, ["run", "--input", str(graph_file), "--palettes", str(palette_file)])
    assert "palettes need a 8192 x 40960 vertex-by-colour matrix" in message


def test_oversized_gnp_is_a_usage_error_before_drawing(monkeypatch, capsys):
    def no_draw(*args):
        raise AssertionError("gnp drew before its scale check")

    monkeypatch.setattr(deltacolor.generators, "_gnp_edges", no_draw)
    message = _usage_error(capsys, ["run", "--gen", "gnp:100000000,0.5"])
    assert "gnp would draw about" in message and "over the limit 134217728" in message


@pytest.mark.parametrize("steps", [["--steps", "-1"], ["--steps", "0"],
                                   ["--steps", "0", "--step-delta", "0.04"]])
def test_nonpositive_steps_are_a_usage_error(tmp_path, capsys, steps):
    out = tmp_path / "r.json"
    message = _usage_error(capsys, ["run", "--gen", "clique_chain:50x4", "--epsilon", "0.1",
                                    "--mode", "dense-steps", *steps, "--out", str(out)])
    assert "--steps must be at least 1" in message
    assert not out.exists()


@pytest.mark.parametrize("steps", [10**6 + 1, 10**19])
def test_steps_beyond_the_limit_are_a_usage_error(tmp_path, capsys, steps):
    # rejected before the list of gammas is made, from the flag and from a config
    argv = ["run", "--gen", "complete:5", "--epsilon", "0.1", "--mode", "dense-steps",
            "--step-delta", "0.04"]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"steps": steps}))
    for extra in (["--steps", str(steps)], ["--config", str(cfg)]):
        assert "--steps must be at least 1 and at most 1000000" in _usage_error(capsys, argv + extra)


@pytest.mark.parametrize("flag, value, mode", [
    ("steps", 2, "dense-steps"), ("step-delta", 0.04, "dense-steps"), ("coloring", "c.json", "verify"),
])
def test_mode_flags_outside_their_mode_are_a_usage_error(tmp_path, capsys, flag, value, mode):
    # rejected before the graph is read, from the flag and from a config
    missing = str(tmp_path / "missing.txt")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({flag: value}))
    for other in MODES:
        if other == mode:
            continue
        for extra in ([f"--{flag}", str(value)], ["--config", str(cfg)]):
            message = _usage_error(capsys, ["run", "--input", missing, "--mode", other, *extra])
            assert f"--{flag} does not apply to --mode {other}" in message


def test_verify_without_a_coloring_is_rejected_before_the_graph_loads(tmp_path, capsys):
    argv = ["run", "--input", str(tmp_path / "missing.txt"), "--mode", "verify"]
    assert "verify mode needs --coloring" in _usage_error(capsys, argv)


@pytest.mark.parametrize("delta", [0, -0.04, 0.3, 5, float("nan")])
def test_step_delta_outside_its_range_is_rejected_before_the_graph_loads(tmp_path, capsys, delta):
    argv = ["run", "--input", str(tmp_path / "missing.txt"), "--mode", "dense-steps"]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"step-delta": delta}))
    for extra in (["--step-delta", str(delta)], ["--config", str(cfg)]):
        assert "--step-delta must lie in (0, 0.25]" in _usage_error(capsys, argv + extra)


def test_edge_list_header_beyond_the_vertex_limit_is_a_usage_error(tmp_path, capsys):
    graph_file = tmp_path / "g.edges"
    graph_file.write_text(f"n {2**28 + 1}\n0 1\n")
    tracemalloc.start()
    try:
        message = _usage_error(capsys, ["run", "--input", str(graph_file)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"{2**28 + 1} vertices exceed the limit of {2**28}" in message
    assert peak < 2**20


def _path_graph(tmp_path):
    graph_file = tmp_path / "path.edges"
    graph_file.write_text("0 1\n1 2\n")
    return graph_file


@pytest.mark.parametrize("coloring, match", [
    ({"0": 1, "1": 2.7, "2": 1}, "2.7"),
    ({"0": 1, "1": None, "2": 1}, "None"),
    ({"0": 1, "x": 2, "2": 1}, "'x'"),
])
def test_verify_rejects_non_integer_colors_and_keys(tmp_path, capsys, coloring, match):
    colors = tmp_path / "colors.json"
    colors.write_text(json.dumps(coloring))
    code = main(["run", "--input", str(_path_graph(tmp_path)), "--mode", "verify",
                 "--coloring", str(colors)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1 and match in captured.err


@pytest.mark.parametrize("palette, match", [
    ([None, 1, 2], "None"), (["x", 1, 2], "'x'"), ([1.7, 2, 3], "1.7"), ([True, 2, 3], "True"),
])
def test_palette_file_rejects_non_integer_colors(tmp_path, capsys, palette, match):
    palettes = tmp_path / "palettes.json"
    palettes.write_text(json.dumps({"0": [1, 2, 3], "1": palette, "2": [1, 2, 3]}))
    out = tmp_path / "r.json"
    message = _usage_error(capsys, ["run", "--input", str(_path_graph(tmp_path)),
                                    "--palettes", str(palettes), "--out", str(out)])
    assert "vertex 1" in message and match in message
    assert not out.exists()


def test_a_vertex_named_twice_is_a_usage_error(tmp_path, capsys):
    graph = str(_path_graph(tmp_path))
    palettes = tmp_path / "palettes.json"
    palettes.write_text(json.dumps({"0": [1, 2, 3], "1": [1, 2, 3], "01": [4, 5, 6], "2": [1, 2, 3]}))
    message = _usage_error(capsys, ["run", "--input", graph, "--palettes", str(palettes)])
    assert "names vertex 1 twice, by keys '1' and '01'" in message
    colors = tmp_path / "colors.json"
    colors.write_text(json.dumps({"0": 1, "00": 2, "1": 2, "2": 1}))
    message = _usage_error(capsys, ["run", "--input", graph, "--mode", "verify", "--coloring", str(colors)])
    assert "coloring names vertex 0 twice, by keys '0' and '00'" in message


def test_palette_color_beyond_int64_is_a_usage_error(tmp_path, capsys):
    palettes = tmp_path / "palettes.json"
    palettes.write_text(json.dumps({"0": [1, 2, 3], "1": [1, 2, 2**64], "2": [1, 2, 3]}))
    assert "int64" in _usage_error(capsys, ["run", "--input", str(_path_graph(tmp_path)),
                                            "--palettes", str(palettes)])


@pytest.mark.parametrize("key, value", [
    ("repetitions", 2.5), ("repetitions", "x"), ("mode", "bogus"), ("format", "xml"),
    ("seed", True), ("force-main-path", "yes"), ("max-fallback-iters", 1.5), ("K", [1]),
    ("out", 3),
])
def test_config_values_pass_their_flags_checks(tmp_path, capsys, key, value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gen": "complete:5", key: value}))
    out = tmp_path / "r.json"
    assert repr(key) in _usage_error(capsys, ["run", "--config", str(cfg), "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("k", [float("nan"), float("inf"), float("-inf"), 0, 1e-300])
def test_non_finite_or_tiny_k_is_a_usage_error(tmp_path, capsys, k):
    # 1e-300 puts the formula epsilon far outside (0, 1/5)
    out = tmp_path / "r.json"
    message = _usage_error(capsys, ["run", "--gen", "complete:5", f"--K={k}", "--out", str(out)])
    assert "K must be positive and finite" in message or "--epsilon" in message
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gen": "complete:5", "K": k}))
    assert _usage_error(capsys, ["run", "--config", str(cfg), "--out", str(out)]) == message
    assert not out.exists()


@pytest.mark.parametrize("gen, match", [
    ({"kind": "gnp", "n": "x", "p": 0.5}, "'n' must be int"),
    ({"kind": "gnp"}, "missing field: 'n'"),
    ({"n": 4}, "missing field: 'kind'"),
    ({"kind": "complete", "n": 4, "seed": "s"}, "'seed' must be int"),
    ({"kind": "complete", "n": 4, "seed": -1}, "seed must be nonnegative"),
    ({"kind": "complete", "n": 2.7}, "'n' must be int"),
    ({"kind": "complete", "n": True}, "'n' must be int"),
    ({"kind": "gnp", "n": 5, "p": True}, "'p' must be float"),
    ({"kind": "complete", "n": 4, "bogus": 1}, "no parameter 'bogus'"),
    ({"kind": ["gnp"], "n": 4}, "unknown generator kind"),
])
def test_config_generator_objects_are_checked(tmp_path, capsys, gen, match):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gen": gen}))
    assert match in _usage_error(capsys, ["run", "--config", str(cfg)])


def test_removed_strict_k_flag_is_a_usage_error(capsys):
    assert "--strict-K" in _usage_error(capsys, ["run", "--gen", "complete:5", "--strict-K"])


@pytest.mark.parametrize("mode, extra, calls", [
    ("full", ["--force-main-path"], 1),
    ("full", [], 0),
    ("dense-steps", [], 1),
    ("dense-steps", ["--step-delta", "0.04"], 1),
    ("initial-only", [], 0),
    ("fallback-only", [], 0),
])
def test_repetitions_decompose_a_graph_at_most_once(tmp_path, monkeypatch, mode, extra, calls):
    import deltacolor.engine

    real, counted = deltacolor.engine.decompose, []

    def counting(*args, **kwargs):
        counted.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(deltacolor.engine, "decompose", counting)
    out = tmp_path / "agg.json"
    assert main(["run", *STEP_MODES["dense-steps"][:4], "--seed", "1", "--mode", mode, *extra,
                 "--repetitions", "3", "--out", str(out)]) == 0
    assert len(counted) == calls
    assert read_json(out)["repetitions"] == 3


@pytest.mark.parametrize("forced", [True, False])
def test_config_booleans_set_store_true_flags(tmp_path, forced):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gen": "complete:25", "seed": 1, "force-main-path": forced}))
    out = tmp_path / "r.json"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    via_flags = tmp_path / "f.json"
    flag = ["--force-main-path"] if forced else []
    assert main(["run", "--gen", "complete:25", "--seed", "1", *flag, "--out", str(via_flags)]) == 0
    assert out.read_bytes() == via_flags.read_bytes()
    assert read_json(out)["forced_main_path"] is forced


def test_config_strings_and_numbers_convert_as_flags_do(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gen": "gnp:30,0.3", "seed": "4", "K": 2, "mode": "fallback-only"}))
    out = tmp_path / "r.json"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    via_flags = tmp_path / "f.json"
    assert main(["run", "--gen", "gnp:30,0.3", "--seed", "4", "--K", "2",
                 "--mode", "fallback-only", "--out", str(via_flags)]) == 0
    assert out.read_bytes() == via_flags.read_bytes()


# Fuzz material: small on purpose. Integers stay small where they size
# work (repetitions, steps, vertex counts) so every example runs in
# milliseconds; bigger ones appear only where they must be rejected.
_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-2, 6) | st.sampled_from([2**63, 2**70])
    | st.floats(allow_nan=False, width=32) | st.text(max_size=3)
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_KEYS = st.sampled_from(["0", "1", "2", "3", "-1", "x", " 1", "1.0", ""])
_EDGE_LINES = st.lists(
    st.sampled_from(["0 1", "1 2", "2 0", "n 3", "n x", "n -1", "n 99999999999999999999",
                     "0", "0 1 2", "1 1", "-1 2", "0 9", "1.5 2", f"0 {2**63}", "# c", ""])
    | st.text(max_size=6),
    max_size=6,
)
_FLAG_CONFIGS = st.dictionaries(
    st.sampled_from(["seed", "K", "epsilon", "mode", "format", "repetitions",
                     "force-main-path", "max-fallback-iters", "steps", "step-delta", "gen",
                     "palettes", "bogus"]),
    _JSON_SCALARS | st.sampled_from(["complete:4", "gnp:5,0.5", "full", "verify", "csv", "2"]),
    max_size=3,
)
# Generator spec objects: well-formed small ones, and near-valid ones where
# no value sizes a graph beyond a few vertices.
_GEN_VALUES = st.integers(-1, 5) | st.floats(width=32) | st.none() | st.booleans() | st.text(max_size=2)
_WELL_FORMED_GEN = st.one_of(
    st.fixed_dictionaries({"kind": st.just("complete"), "n": st.integers(1, 5)},
                          optional={"seed": st.integers(0, 3)}),
    st.fixed_dictionaries({"kind": st.just("gnp"), "n": st.integers(1, 5), "p": st.floats(0.1, 0.9)},
                          optional={"seed": st.integers(0, 3)}),
)
_NEAR_VALID_GEN = st.fixed_dictionaries(
    {"kind": st.sampled_from(["complete", "gnp", "clique_chain", "bipartite_random",
                              "locally_sparse", "bogus"]) | _JSON_SCALARS},
    optional={key: _GEN_VALUES for key in ("n", "p", "size", "count", "delta", "seed", "bogus")},
)
_CONFIGS = _FLAG_CONFIGS | st.builds(
    lambda cfg, gen: {**cfg, "gen": gen}, _FLAG_CONFIGS, _WELL_FORMED_GEN | _NEAR_VALID_GEN
)


# Near-valid maps for the path 0-1-2, so examples get past the first check.
_COLORS = st.integers(0, 4) | _JSON_SCALARS
_PATH_MAP = st.fixed_dictionaries({"0": _COLORS, "1": _COLORS}, optional={"2": _COLORS, "x": _COLORS})


@settings(max_examples=200, deadline=None)
@given(
    edges=st.one_of(
        st.sampled_from(["0 1\n1 2\n", "n 3\n0 1  # path\n2 1\n"]),
        _EDGE_LINES.map("\n".join),
        st.binary(max_size=8),
    ),
    palettes=st.one_of(
        st.fixed_dictionaries({v: st.lists(_COLORS, min_size=2, max_size=4) for v in "012"}),
        st.dictionaries(_KEYS, st.lists(_JSON_SCALARS, max_size=4), max_size=4),
        _JSON,
    ),
    coloring=st.one_of(_PATH_MAP, st.dictionaries(_KEYS, _JSON_SCALARS, max_size=4), _JSON),
    config=st.one_of(_CONFIGS, _JSON),
    mode=st.sampled_from(["full", "verify", "fallback-only", "decompose-only"]),
    use=st.sets(st.sampled_from(["palettes", "coloring", "config"])),
)
def test_cli_exits_cleanly_on_malformed_input(edges, palettes, coloring, config, mode, use):
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        graph_file = base / "g.edges"
        if isinstance(edges, bytes):
            graph_file.write_bytes(edges)
        else:
            graph_file.write_text(edges, encoding="utf-8")
        argv = ["run", "--mode", mode, "--out", str(base / "r.json")]
        for name, value in (("palettes", palettes), ("coloring", coloring), ("config", config)):
            if name in use or (name, mode) == ("coloring", "verify"):
                (base / name).write_text(json.dumps(value), encoding="utf-8")
                argv += [f"--{name}", str(base / name)]
        from_config = "config" in use and isinstance(config, dict) and "gen" in config
        if not from_config:
            argv += ["--input", str(graph_file)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        event(f"{mode} {'config gen' if from_config else 'input'} exit {code}")
        assert code in (0, 1, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 0 and mode == "verify":
            # verify mode reads a bare map, or the map under a report's "coloring"
            checked = coloring.get("coloring", coloring)
            assert all(type(c) is int for c in checked.values()), (coloring, err.getvalue())


@settings(max_examples=100, deadline=None)
@given(
    drawn=st.tuples(st.just(True), _WELL_FORMED_GEN) | st.tuples(st.just(False), _NEAR_VALID_GEN),
    mode=st.sampled_from(["full", "fallback-only", "decompose-only"]),
)
def test_config_generator_objects_run_or_exit_cleanly(drawn, mode):
    well_formed, gen = drawn
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.json"
        cfg.write_text(json.dumps({"gen": gen, "epsilon": 0.1}))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(cfg), "--mode", mode, "--out", str(Path(tmp) / "r.json")])
    event(f"{'well-formed' if well_formed else 'near-valid'} exit {code}")
    assert code == 0 if well_formed else code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) == (1 if code == 2 else 0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from([1, 2, 3]), min_size=3, max_size=3),
    st.none() | st.tuples(st.sampled_from("012"), st.sampled_from([1.0, 2.7, "1", True, None])),
)
def test_verify_never_accepts_a_non_integer_color(colors, swap):
    coloring = {str(v): c for v, c in enumerate(colors)}
    if swap is not None:
        coloring[swap[0]] = swap[1]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "colors.json"
        path.write_text(json.dumps(coloring))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", "--input", str(_path_graph(Path(tmp))), "--mode", "verify",
                         "--coloring", str(path)])
    proper = colors[0] != colors[1] != colors[2]
    event(f"exit {code}")
    assert code == (2 if swap is not None else 0 if proper else 1), err.getvalue()
    assert (code == 2) == (out.getvalue() == "")


def test_module_entry_point_exit_codes(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(deltacolor.__file__).parents[1])}

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "deltacolor.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    done = cli("run", "--gen", "complete:5", "--seed", "1")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["complete"] is True
    colors = tmp_path / "colors.json"
    colors.write_text(json.dumps({"0": 1, "1": 1, "2": 2}))
    done = cli("run", "--input", str(_path_graph(tmp_path)), "--mode", "verify", "--coloring", str(colors))
    assert done.returncode == 1
    assert json.loads(done.stdout)["valid"] is False
    done = cli("run", "--gen", "complete:5", "--seed", "-1")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.splitlines() == ["error: --seed must be nonnegative"]


@pytest.mark.parametrize(
    "content, message",
    [
        ("[[1, 2, 3]]", "palette file must be a JSON object"),
        ('{"0": [1, 2, 3], "1": 3, "2": [1, 2, 3]}', "palette of vertex 1 must be a list"),
        ('{"1": [1, 2, 3]}', "no palette for vertices [0, 2]"),
    ],
)
def test_palette_file_shape_errors_are_one_line(tmp_path, capsys, content, message):
    path = tmp_path / "palettes.json"
    path.write_text(content)
    with pytest.raises(deltacolor.ValidationError) as exc:
        deltacolor.io.read_palettes(path, 3)
    assert str(exc.value) == f"{path}: {message}"
    err = _usage_error(capsys, ["run", "--gen", "complete:3", "--palettes", str(path)])
    assert err == f"error: {path}: {message}\n"


def test_zero_repetitions_are_a_usage_error(capsys):
    err = _usage_error(capsys, ["run", "--gen", "complete:5", "--repetitions", "0"])
    assert err == "error: --repetitions must be at least 1\n"


@pytest.mark.parametrize("content", ["[1, 2, 3]", '{"coloring": [1, 2, 3]}'])
def test_a_coloring_that_is_no_json_object_is_a_usage_error(tmp_path, capsys, content):
    path = tmp_path / "coloring.json"
    path.write_text(content)
    argv = ["run", "--gen", "complete:3", "--mode", "verify", "--coloring", str(path)]
    err = _usage_error(capsys, argv)
    assert err == f"error: {path}: expected a JSON object mapping vertex -> color\n"


def test_a_declared_vertex_count_of_zero_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(deltacolor.ValidationError) as exc:
        deltacolor.build_graph([], n=0)
    assert str(exc.value) == "vertex count must be positive"
    path = tmp_path / "empty.edges"
    path.write_text("n 0\n")
    err = _usage_error(capsys, ["run", "--input", str(path), "--mode", "decompose-only"])
    assert err == "error: vertex count must be positive\n"
