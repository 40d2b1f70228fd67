"""Golden run-report hashes: full runs must stay byte-identical.

Each case hashes the bytes ``dump_json`` writes for ``run(...).to_dict()``,
through the API and through ``deltacolor run --mode full``. The first four
hashes in ``golden/reports.json`` were recorded from the engine whose
``run()`` held the phase plumbing in closures, before the phase driver
replaced it; ``pairs-2000-seed12`` and ``clique_chain-150x2-main-repeat-seed4``
were recorded from the per-vertex commit, pick and recount loops, before
their array rewrite. To record them again (only after a deliberate change
of output), run

    PYTHONPATH=src python tests/test_golden_reports.py --write
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from deltacolor import GeneratorSpec, build_graph, canonical_palettes, generate, run
from deltacolor import graph as graph_module
from deltacolor.cli import main
from deltacolor.io import dump_json, write_edge_list

FIXTURE = Path(__file__).parent / "golden" / "reports.json"


def _random_list_palettes(graph, seed, repeat=False):
    """Max degree + 1 distinct colours per vertex from {1..2(max degree + 1)};
    with ``repeat``, every third palette lists its first colour twice."""
    rng = np.random.default_rng(seed)
    need = graph.max_degree + 1
    palettes = [
        sorted(int(c) for c in rng.choice(np.arange(1, 2 * need + 1), size=need, replace=False))
        for _ in range(graph.n)
    ]
    if repeat:
        for p in palettes[::3]:
            p.append(p[0])
    return palettes


def _random_pairs_graph(n, pairs, seed):
    """Uniform random vertex pairs, self-loops dropped (the many-small-rows regime)."""
    edges = np.random.default_rng(seed).integers(0, n, size=(pairs, 2))
    return build_graph(edges[edges[:, 0] != edges[:, 1]], n=n)


# name -> (graph spec, palettes, run options). A graph spec is a generator
# spec or "pairs:<n>,<pairs>" (see _random_pairs_graph, seeded by the run
# seed); palettes are None for canonical, a seed for random lists, or
# (seed, "repeat") for random lists with repeated colours.
CASES = {
    "gnp-80-0.4-seed5": ("gnp:80,0.4", None, {"seed": 5}),
    "clique_chain-200x5-main-seed3": (
        "clique_chain:200x5",
        None,
        {"seed": 3, "epsilon": 0.035, "k": 0.5, "force_main_path": True},
    ),
    "gnp-60-0.4-list-seed9": ("gnp:60,0.4", 9, {"seed": 9}),
    "complete-21-K16": ("complete:21", None, {"seed": 7, "k": 16.0}),
    "pairs-2000-seed12": ("pairs:2000,20000", None, {"seed": 12}),
    "clique_chain-150x2-main-repeat-seed4": (
        "clique_chain:150x2",
        (4, "repeat"),
        {"seed": 4, "epsilon": 0.035, "k": 0.5, "force_main_path": True},
    ),
}


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _inputs(name):
    spec, palette_spec, options = CASES[name]
    if spec.startswith("pairs:"):
        n, pairs = spec.removeprefix("pairs:").split(",")
        graph = _random_pairs_graph(int(n), int(pairs), options["seed"])
    else:
        graph = generate(GeneratorSpec.parse(spec, seed=options["seed"]))
    if palette_spec is None:
        return graph, canonical_palettes(graph), options
    if isinstance(palette_spec, tuple):
        return graph, _random_list_palettes(graph, palette_spec[0], repeat=True), options
    return graph, _random_list_palettes(graph, palette_spec), options


def api_hash(name: str, workdir: Path) -> str:
    graph, palettes, options = _inputs(name)
    out = workdir / f"{name}.api.json"
    dump_json(run(graph, palettes, **options).to_dict(), out)
    return _sha(out)


def cli_hash(name: str, workdir: Path) -> str:
    spec, palette_spec, options = CASES[name]
    graph, palettes, _ = _inputs(name)
    if spec.startswith("pairs:"):
        edge_file = workdir / f"{name}.edges"
        write_edge_list(graph, edge_file)
        argv = ["run", "--input", str(edge_file)]
    else:
        argv = ["run", "--gen", spec]
    argv += ["--mode", "full", "--seed", str(options["seed"])]
    if palette_spec is not None:
        pal_file = workdir / f"{name}.palettes.json"
        pal_file.write_text(json.dumps({str(v): p for v, p in enumerate(palettes)}))
        argv += ["--palettes", str(pal_file)]
    if "epsilon" in options:
        argv += ["--epsilon", str(options["epsilon"])]
    if "k" in options:
        argv += ["--K", str(options["k"])]
    if options.get("force_main_path"):
        argv.append("--force-main-path")
    out = workdir / f"{name}.cli.json"
    assert main(argv + ["--out", str(out)]) == 0
    return _sha(out)


@pytest.mark.parametrize("name", sorted(CASES))
def test_full_reports_match_golden_hashes(tmp_path, name):
    golden = json.loads(FIXTURE.read_text())[name]
    assert api_hash(name, tmp_path) == golden
    assert cli_hash(name, tmp_path) == golden


@pytest.mark.parametrize("name", sorted(CASES))
def test_full_reports_hold_with_small_slot_blocks(tmp_path, monkeypatch, name):
    # every row scan, commit and pick then spans many blocks; cutting the
    # work into blocks must not change one byte of the report
    monkeypatch.setattr(graph_module, "SLOT_BLOCK", 64)
    assert api_hash(name, tmp_path) == json.loads(FIXTURE.read_text())[name]


# The ids of the forced paths below are the PAIR_SLOTS, MASK_SPAN and
# MASK_ROW values that once chose them, so that each case keeps its name.
@pytest.mark.parametrize("pairs_pay", [pytest.param(True, id="0"), pytest.param(False, id=str(10**18))])
@pytest.mark.parametrize("name", sorted(CASES))
def test_full_reports_hold_on_both_same_colour_paths(tmp_path, monkeypatch, name, pairs_pay):
    # pairs_pay True looks up every same-colour pair, False scans every
    # row, in each conflict check and properness check of the run
    monkeypatch.setattr(graph_module, "_pairs_pay", lambda pairs, slots: pairs_pay)
    assert api_hash(name, tmp_path) == json.loads(FIXTURE.read_text())[name]


@pytest.mark.parametrize(
    "mask_pays", [pytest.param(True, id=f"{10**18}-0"), pytest.param(False, id=f"1-{10**18}")]
)
@pytest.mark.parametrize("name", sorted(CASES))
def test_full_reports_hold_on_every_scan_read(tmp_path, monkeypatch, name, mask_pays):
    # mask_pays True reads every block of ascending rows with gaps through
    # a row mask, False gathers their slots; Graph.scan must yield the
    # same neighbours either way
    monkeypatch.setattr(graph_module, "SLOT_BLOCK", 64)
    monkeypatch.setattr(graph_module, "_mask_pays", lambda span, reach, wanted: mask_pays)
    assert api_hash(name, tmp_path) == json.loads(FIXTURE.read_text())[name]


def test_golden_cases_cover_every_phase(tmp_path):
    # The main-path case must run the decomposition, the initial step, a
    # dense step and fallback rounds; the list-palette case must not be
    # canonical, or the fixture would pin less than it claims.
    graph, palettes, options = _inputs("clique_chain-200x5-main-seed3")
    kinds = {s.kind for s in run(graph, palettes, **options).steps}
    assert kinds == {"decompose", "initial", "dense", "fallback"}
    graph, palettes, _ = _inputs("gnp-60-0.4-list-seed9")
    assert any(p != list(range(1, graph.max_degree + 2)) for p in palettes)
    # The repeat case must list a colour twice in some palette and still
    # take the main path through a dense step.
    graph, palettes, options = _inputs("clique_chain-150x2-main-repeat-seed4")
    assert any(len(set(p)) < len(p) for p in palettes)
    assert "dense" in {s.kind for s in run(graph, palettes, **options).steps}
    graph, _, _ = _inputs("pairs-2000-seed12")
    assert 30 <= graph.max_degree <= 50


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_reports.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: api_hash(name, Path(tmp)) for name in sorted(CASES)}
    FIXTURE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
