"""The palette table: one integer rule at every entry point, one
conversion per run of the CLI, and no expansion of ``range`` palettes."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltacolor import (
    GeneratorSpec,
    PaletteTable,
    ValidationError,
    build_graph,
    canonical_palettes,
    generate,
    init_state,
    palette_table,
    read_palettes,
    run,
    verify_coloring,
    write_edge_list,
)
from deltacolor.checks import coloring_failures
from deltacolor.cli import main

# Values that are not integer colours, however an int64 cast would read them.
BAD = {
    "float": 1.5,
    "integral float": 2.0,
    "numeric string": "3",
    "bool": True,
    "numpy float": np.float64(2.0),
    "2**63": 2**63,
    "NaN": float("nan"),
    "None": None,
}
# Integer colours of other types, which every entry point takes as they are.
GOOD = {
    "int": int,
    "numpy int64": np.int64,
    "numpy int32": np.int32,
    "numpy uint64": np.uint64,
}


@st.composite
def palette_cases(draw):
    """A small graph, list palettes of Δ+1 to Δ+3 distinct colours, and one
    slot (vertex, index) of one palette."""
    g = generate(GeneratorSpec.parse(draw(st.sampled_from(["complete:3", "gnp:12,0.4", "gnp:9,0.8"])),
                                     seed=draw(st.integers(0, 3))))
    need = g.max_degree + 1
    palettes = [
        draw(st.lists(st.integers(1, need + 4), min_size=need, max_size=need + 2, unique=True))
        for _ in range(g.n)
    ]
    v = draw(st.integers(0, g.n - 1))
    return g, palettes, v, draw(st.integers(0, len(palettes[v]) - 1))


def _cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=80, deadline=None)
@given(palette_cases(), st.sampled_from([*BAD, *GOOD]))
def test_one_bad_colour_is_refused_by_every_entry_point(case, kind):
    g, palettes, v, i = case
    if kind in BAD:
        palettes[v][i] = BAD[kind]
    else:
        palettes[v][i] = GOOD[kind](palettes[v][i])
    with tempfile.TemporaryDirectory() as tmp:
        graph_file, palette_file = Path(tmp) / "g.edges", Path(tmp) / "p.json"
        write_edge_list(g, graph_file)
        # numpy integers are written as JSON integers, numpy floats as floats
        palette_file.write_text(json.dumps({str(u): p for u, p in enumerate(palettes)}, default=int))
        code, err = _cli(["run", "--input", str(graph_file), "--palettes", str(palette_file),
                          "--seed", "1", "--out", str(Path(tmp) / "r.json")])
    if kind in GOOD:
        assert code == 0, err
        report = run(g, palettes, seed=1)
        assert report.invariant_failures == []
        assert verify_coloring(g, palettes, report.coloring) == []
        return
    assert code == 2
    assert err.count("\n") == 1 and err.startswith(f"error: {palette_file}: palette of vertex {v} holds")
    calls = [
        lambda: run(g, palettes, seed=1),
        lambda: init_state(g, palettes),
        lambda: verify_coloring(g, palettes, np.zeros(g.n, dtype=np.int64)),
    ]
    for call in calls:
        with pytest.raises(ValidationError) as exc:
            call()
        assert "\n" not in str(exc.value)
        assert str(exc.value).startswith(f"palette of vertex {v} holds ")


def test_run_refuses_a_fractional_colour_it_used_to_truncate():
    g = build_graph([(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValidationError) as exc:
        run(g, [[1.7, 2, 3]] * 3)
    assert str(exc.value) == "palette of vertex 0 holds 1.7, not an integer color"


def test_init_state_wants_one_palette_per_vertex():
    g = build_graph([(0, 1), (1, 2)])
    with pytest.raises(ValidationError) as exc:
        init_state(g, [[1, 2, 3]] * 2)
    assert str(exc.value) == "expected 3 palettes, got 2"


@pytest.mark.parametrize("palettes, message", [
    ([[1, 2], 5], "palette of vertex 1 is not a collection of colors"),
    ([[1, 2], [[3], 4]], "palette of vertex 1 holds [3], not an integer color"),
    ([[1, 2], [np.uint64(2**63)]], "palette of vertex 1 holds 9223372036854775808, outside the int64 range"),
    ([[1, 2], [2**64, 1]], "palette of vertex 1 holds 18446744073709551616, outside the int64 range"),
    ([[1, np.True_]], "palette of vertex 0 holds np.True_, not an integer color"),
    ([[1, 2], np.array(3)], "palette of vertex 1 is not a collection of colors"),
])
def test_palette_table_names_the_first_bad_entry(palettes, message):
    with pytest.raises(ValidationError) as exc:
        palette_table(palettes)
    assert str(exc.value) == message


@pytest.mark.parametrize("palettes", [
    [[3, 1, 2], [4, 5]],
    [[1, 2], [3, 4]],
    [(5, -1), range(2, 4)],
    [{7, 8}, {1, 2, 3}],
    [[], [], []],
    [],
    np.array([[4, 5], [6, 7]]),
    [[-(2**63), 2**63 - 1], [np.uint64(3)]],
])
def test_palette_table_is_a_sequence_of_read_only_int64_palettes(palettes):
    table = palette_table(palettes)
    assert palette_table(table) is table
    assert len(table) == len(palettes)
    expected = [[int(x) for x in p] for p in palettes]
    assert [p.tolist() for p in table] == expected
    assert [table[v].tolist() for v in range(len(table))] == expected
    assert table.offsets.tolist() == np.cumsum([0] + [len(p) for p in expected]).tolist()
    assert table.colors.dtype == np.int64 and table.offsets.dtype == np.int64
    assert not table.colors.flags.writeable and not table.offsets.flags.writeable
    if len(table):
        assert table[-1].tolist() == expected[-1]
        with pytest.raises(IndexError):
            table[len(table)]


NINE = np.array([1, 2, 3] * 3)


@pytest.mark.parametrize("offsets, colors, message", [
    ([0, 3, 6, 9], np.array([1.7, 2, 3] * 3), "palette table colors must be a 1-D int64 array, not 1-D float64"),
    ([0.0, 3, 6, 9], NINE, "palette table offsets must be a 1-D int64 array, not 1-D float64"),
    ([0, 3, 6, 9], [1, 2, 3] * 3, "palette table colors must be a 1-D int64 array, not list"),
    ([0, 3, 6, 9], NINE.reshape(3, 3), "palette table colors must be a 1-D int64 array, not 2-D int64"),
    ([0, 6, 3, 9], NINE, "palette table offsets must rise from 0 to 9, the number of colors"),
    ([0, 3, 6, 8], NINE, "palette table offsets must rise from 0 to 9, the number of colors"),
    ([1, 3, 6, 9], NINE, "palette table offsets must rise from 0 to 9, the number of colors"),
    (np.array([], dtype=np.int64), NINE[:0], "palette table offsets must rise from 0 to 0, the number of colors"),
])
def test_a_table_made_by_hand_meets_the_same_rule(offsets, colors, message):
    triangle = build_graph([(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValidationError) as exc:
        run(triangle, PaletteTable(np.asarray(offsets), colors))
    assert str(exc.value) == message


def test_a_table_made_by_hand_is_a_read_only_copy():
    offsets, colors = np.array([0, 3, 6, 9]), np.array([1, 2, 3] * 3)
    table = PaletteTable(offsets, colors)
    colors[0] = 0
    assert table.colors.tolist() == [1, 2, 3] * 3
    assert not table.colors.flags.writeable and not table.offsets.flags.writeable
    triangle = build_graph([(0, 1), (1, 2), (0, 2)])
    report = run(triangle, table, seed=1)
    assert verify_coloring(triangle, table, report.coloring) == []


def test_read_palettes_gives_the_table(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"1": [4, 2], "0": [1, 2, 3]}))
    table = read_palettes(path, 2)
    assert isinstance(table, PaletteTable)
    assert table.offsets.tolist() == [0, 3, 5] and table.colors.tolist() == [1, 2, 3, 4, 2]


def _count_tables(monkeypatch) -> list:
    built = []
    init = PaletteTable.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PaletteTable, "__init__", counted)
    return built


def test_repetitions_build_the_palette_table_once(tmp_path, monkeypatch):
    g = generate(GeneratorSpec.parse("gnp:60,0.3", seed=1))
    need = g.max_degree + 1
    path = tmp_path / "p.json"
    path.write_text(json.dumps({str(v): list(range(1 + v % 7, 1 + need + v % 7)) for v in range(g.n)}))
    built = _count_tables(monkeypatch)
    argv = ["run", "--gen", "gnp:60,0.3", "--seed", "1", "--palettes", str(path),
            "--repetitions", "3", "--out", str(tmp_path / "r.json")]
    assert main(argv) == 0
    assert len(built) == 1
    assert json.loads((tmp_path / "r.json").read_text())["repetitions"] == 3


def test_a_shared_range_palette_is_never_expanded(monkeypatch):
    # range palettes, one shared or one per vertex, are tested by arithmetic
    # and build no table: each must give the same failures as its list form
    g = generate(GeneratorSpec.parse("gnp:40,0.3", seed=2))
    need = g.max_degree + 1
    report = run(g, canonical_palettes(g), seed=1)
    colors = np.random.default_rng(5).integers(0, need + 3, size=g.n)
    cases = [
        canonical_palettes(g),
        [range(1 + v % 3, need + 1 + v % 3) for v in range(g.n)],
        [range(need + 2, 0, -2) if v % 2 else range(1, 2 * need, 2) for v in range(g.n)],
        [range(5, 5)] * g.n,
    ]
    expected = [
        [verify_coloring(g, [list(r) for r in ranges], c) for c in (report.coloring, colors)]
        for ranges in cases
    ]
    built = _count_tables(monkeypatch)
    run(g, canonical_palettes(g), seed=1)
    init_state(g, [range(1, need + 1) for _ in range(g.n)])
    assert built == []
    for ranges, failures in zip(cases, expected):
        assert [verify_coloring(g, ranges, c) for c in (report.coloring, colors)] == failures
    assert expected[0][0] == [] and expected[0][1] != []
    assert built == []


# int64 bounds and colors, small ones near each other and the extremes
INT64S = st.one_of(st.integers(-12, 12), st.sampled_from([-(2**63), -(2**63) + 1, 2**63 - 2, 2**63 - 1]))
RANGES = st.builds(
    range, INT64S, INT64S, st.one_of(st.integers(-4, 4).filter(bool), st.sampled_from([2**63, -(2**63), 2**64]))
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_range_palettes_hold_what_python_in_finds(data):
    # steps other than 1, negative steps and empty ranges, shared or not
    n = data.draw(st.integers(1, 6))
    ranges = data.draw(st.one_of(RANGES.map(lambda r: [r] * n), st.lists(RANGES, min_size=n, max_size=n)))
    colors = data.draw(st.lists(INT64S, min_size=n, max_size=n))
    g = build_graph(np.zeros((0, 2), dtype=np.int64), n=n)
    outside = [v for v, (c, r) in enumerate(zip(colors, ranges)) if c != 0 and c not in r]
    expected = coloring_failures(g, np.array(colors, dtype=np.int64), np.array(outside, dtype=np.int64))
    assert verify_coloring(g, ranges, colors) == expected


@pytest.mark.parametrize(
    "ranges",
    [
        [range(1, 3), range(2**63 - 2, 2**63 + 1)],
        [range(1, 3), range(-(2**63) + 1, -(2**63) - 3, -1)],
        [range(2**63 + 1, 2**63 + 5, 2), range(1, 3)],
        [range(2**63 - 7, 2**63 + 9, 5)] * 2,
    ],
)
def test_range_palettes_name_a_color_outside_int64_as_their_lists_do(ranges):
    g = build_graph(np.zeros((0, 2), dtype=np.int64), n=2)
    with pytest.raises(ValidationError) as listed:
        palette_table([list(r) for r in ranges])
    with pytest.raises(ValidationError) as ranged:
        verify_coloring(g, ranges, [1, 1])
    assert str(ranged.value) == str(listed.value)
