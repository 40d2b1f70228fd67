import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltacolor import (
    ValidationError,
    build_graph,
    canonical_palettes,
    coloring_failures,
    commit_colors,
    init_state,
    residual_consistency_failures,
    verify_coloring,
)
from deltacolor import graph as graph_module
from deltacolor.checks import decomposition_bound_failures, properness_failures
from deltacolor.decomposition import StructuralMetrics, decompose
from deltacolor.generators import GeneratorSpec, generate


@pytest.mark.parametrize("palette_kind", ["range", "list"])
def test_verify_coloring_reports_uncolored_and_foreign_colors(palette_kind):
    g = build_graph([(0, 1), (1, 2)])  # path 0-1-2, palettes of size 3
    palettes = canonical_palettes(g)
    if palette_kind == "list":
        palettes = [[2, 5, 9], [1, 5, 9], [2, 5, 7]]
    good = {"range": [1, 2, 1], "list": [2, 1, 2]}[palette_kind]
    assert verify_coloring(g, palettes, np.array(good)) == []
    assert verify_coloring(g, palettes, {0: good[0], 1: good[1]}) == [
        "1 vertices left uncolored (first: 2)"
    ]
    assert verify_coloring(g, palettes, np.array([good[0], good[1], 4])) == [
        "vertex 2 wears color 4 outside its own palette"
    ]


def test_coloring_failures_cap_the_outside_lines_after_the_uncolored_one():
    g = build_graph([], n=8)
    colors = np.array([0, 9, 9, 9, 9, 9, 9, 9])
    failures = coloring_failures(g, colors, np.arange(1, 8))
    assert failures == ["1 vertices left uncolored (first: 0)"] + [
        f"vertex {v} wears color 9 outside its own palette" for v in range(1, 5)
    ]


@pytest.mark.parametrize("coloring", [[1, 2], np.array([1, 2, 1, 2])])
def test_verify_coloring_reports_a_coloring_of_another_length(coloring):
    g = build_graph([(0, 1), (1, 2)])
    assert verify_coloring(g, canonical_palettes(g), coloring) == [
        f"coloring has {len(coloring)} entries for 3 vertices"
    ]


@pytest.mark.parametrize("palettes", [[range(1, 4)] * 2, [], [range(1, 4)] * 4])
def test_verify_coloring_rejects_a_palette_list_of_the_wrong_length(palettes):
    # a shorter list once left the vertices past its end unchecked
    g = build_graph([(0, 1), (1, 2)])
    for coloring in ({0: 1, 1: 2}, {0: 1, 1: 1}, np.array([1, 2, 1])):
        with pytest.raises(ValidationError, match=f"expected 3 palettes, got {len(palettes)}"):
            verify_coloring(g, palettes, coloring)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 12),
    raw=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40),
    data=st.data(),
)
def test_verify_coloring_matches_the_run_side_final_check(n, raw, data):
    # list palettes from a few more colours than Δ+1, and colours drawn
    # from the blank up to one in no palette: blanks, foreign colours and
    # clashes are all common. Only the palette membership is computed
    # twice: by the palette lists here, by the state's matrix in a run.
    g = build_graph([(u % n, v % n) for u, v in raw if u % n != v % n], n=n)
    need = g.max_degree + 1
    palette = st.lists(st.integers(1, need + 2), min_size=need, max_size=need + 2, unique=True)
    palettes = [data.draw(palette) for _ in range(n)]
    colors = np.array(data.draw(st.lists(st.integers(0, need + 3), min_size=n, max_size=n)), dtype=np.int64)
    state = init_state(g, palettes)
    state.committed[:] = colors
    expected = coloring_failures(g, state.committed, state.outside_palette())
    assert verify_coloring(g, palettes, colors) == expected


@pytest.mark.parametrize(
    "coloring, match",
    [
        ({"0": 1, "1": 2.7, "2": 1}, "vertex 1: 2.7 is not an integer"),
        ({"0": 1, "1": None, "2": 1}, "vertex 1: None"),
        ({"0": 1, "1": "2", "2": 1}, "vertex 1: '2'"),
        ({"0": 1, "1": True, "2": 1}, "vertex 1: True"),
        ({"0": 1, "x": 2, "2": 1}, "key 'x' is not a vertex ID"),
        ({0: 1, 1.0: 2, 2: 1}, "key 1.0 is not a vertex ID"),
        ({"0": 1, "1": 2**64, "2": 1}, "int64"),
        (np.array([1.0, 2.0, 1.0]), "must be integers"),
        (np.array([True, False, True]), "must be integers"),
        ([True, 2, 1], "vertex 0: True is not an integer"),
        ([1, 2.0, 1], "vertex 1: 2.0 is not an integer"),
        ((1, 2, "1"), "vertex 2: '1' is not an integer"),
        ([1, 2, np.bool_(True)], r"vertex 2: (np\.)?True_? is not an integer"),
    ],
)
def test_verify_coloring_rejects_what_is_not_an_integer(coloring, match):
    g = build_graph([(0, 1), (1, 2)])
    with pytest.raises(ValidationError, match=match):
        verify_coloring(g, canonical_palettes(g), coloring)


@pytest.mark.parametrize("coloring, keys", [
    ({0: 1, "0": 2, 1: 2, 2: 1}, "0 and '0'"),
    ({"0": 1, "00": 2, "1": 2, "2": 1}, "'0' and '00'"),
])
def test_verify_coloring_rejects_a_vertex_named_twice(coloring, keys):
    g = build_graph([(0, 1), (1, 2)])
    with pytest.raises(ValidationError, match=re.escape(f"coloring names vertex 0 twice, by keys {keys}")):
        verify_coloring(g, canonical_palettes(g), coloring)


def test_verify_coloring_takes_integer_and_string_keys():
    g = build_graph([(0, 1), (1, 2)])
    palettes = canonical_palettes(g)
    assert verify_coloring(g, palettes, {"0": 1, 1: 2, np.int64(2): np.int32(1)}) == []
    assert verify_coloring(g, palettes, {"0": 1, "7": 2}) == ["coloring references unknown vertex 7"]
    assert verify_coloring(g, palettes, {"-1": 1}) == ["coloring references unknown vertex -1"]
    assert verify_coloring(g, palettes, [1, np.int64(2), 1]) == []


@pytest.mark.parametrize("key", ["1_0", "+0", " 1 ", "\u0661", "1 ", "-", "", "--1", "1-0", "0x1", "1,0"])
def test_verify_coloring_takes_only_ascii_digit_keys(key):
    # int() would read "1_0" as 10, "+0" as 0 and Arabic-Indic one as 1
    g = build_graph([(i, i + 1) for i in range(10)])
    with pytest.raises(ValidationError, match=re.escape(f"coloring key {key!r} is not a vertex ID")):
        verify_coloring(g, canonical_palettes(g), {"0": 1, key: 2})


def _path_with_vertex_1_colored():
    # path 0-1-2-3, palettes {1, 2, 3}; vertex 1 takes colour 1
    g = build_graph([(0, 1), (1, 2), (2, 3)])
    state = init_state(g, canonical_palettes(g))
    commit_colors(state, [1], [1])
    return g, state


def test_residual_consistency_names_corrupted_uncolored_vertices():
    g, state = _path_with_vertex_1_colored()
    state.residual_degree[3] = 0
    state.residual_palette_size[2] = 5
    state.residual_degree[0] = 2
    assert residual_consistency_failures(state) == [
        "vertex 2: maintained Q=5, recomputed 2",
        "vertex 0: maintained d=2, recomputed 0",
        "vertex 3: maintained d=0, recomputed 1",
    ]


def test_residual_consistency_ignores_colored_vertices():
    # a coloured vertex has left the residual graph: its Q and d are not checked
    g, state = _path_with_vertex_1_colored()
    state.residual_palette_size[1] = 9
    state.residual_degree[1] = 9
    assert residual_consistency_failures(state) == []


def test_residual_consistency_reports_at_most_five_per_field():
    g = build_graph([], n=8)
    state = init_state(g, canonical_palettes(g))
    state.residual_palette_size += 1
    state.residual_degree += 2
    assert residual_consistency_failures(state) == [
        *(f"vertex {v}: maintained Q=2, recomputed 1" for v in range(5)),
        *(f"vertex {v}: maintained d=2, recomputed 0" for v in range(5)),
    ]


def full_slot_properness(graph, committed):
    """properness_failures as one pass over every CSR slot at once."""
    own = np.repeat(committed, graph.degrees())
    bad = (own == committed[graph.indices]) & (own != 0)
    if not np.any(bad):
        return []
    src = np.repeat(np.arange(graph.n), graph.degrees())
    out = [
        f"edge ({src[i]}, {graph.indices[i]}) is monochromatic with color {committed[src[i]]}"
        for i in np.flatnonzero(bad)[:10]
        if src[i] < graph.indices[i]
    ]
    return out[:5] or [f"{np.count_nonzero(bad) // 2} monochromatic edges among committed vertices"]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    raw=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=120),
    colors=st.lists(st.integers(0, 3), min_size=30, max_size=30),
    block=st.sampled_from([None, 1, 3, 64]),
    pairs_pay=st.sampled_from([None, True, False]),
)
def test_blocked_properness_scan_matches_the_full_slot_scan(n, raw, colors, block, pairs_pay):
    # few colours, so monochromatic edges are common and often more than
    # five; pairs_pay True looks every same-colour pair up, False scans
    g = build_graph([(u % n, v % n) for u, v in raw if u % n != v % n], n=n)
    committed = np.array(colors[:n], dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(graph_module, "SLOT_BLOCK", block)
        if pairs_pay is not None:
            mp.setattr(graph_module, "_pairs_pay", lambda pairs, slots: pairs_pay)
        assert properness_failures(g, committed) == full_slot_properness(g, committed)


@pytest.mark.parametrize("block", [None, 1, 3, 64])
def test_properness_count_message_spans_blocks(block):
    # hand-built one-way rows 1..11 -> 0: every bad slot has u > v, so no
    # edge is named and the count covers the bad slots of every block.
    # The pair lookup assumes a symmetric CSR, so the rows are scanned.
    n = 12
    g = graph_module.Graph(
        n=n,
        indptr=np.concatenate(([0, 0], np.arange(1, n))).astype(np.int64),
        indices=np.zeros(n - 1, dtype=np.int64),
        max_degree=1,
    )
    committed = np.ones(n, dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_pairs_pay", lambda pairs, slots: False)
        if block is not None:
            mp.setattr(graph_module, "SLOT_BLOCK", block)
        got = properness_failures(g, committed)
    assert got == full_slot_properness(g, committed) == ["5 monochromatic edges among committed vertices"]


def test_each_decomposition_bound_names_its_violation():
    """K21 (max degree 20) at eps 0.1, one almost-clique, with metrics
    planted at and just past each bound: an external degree of 2, an
    anti-degree of 6, a weak diameter of 2 and 26 members pass."""
    g = generate(GeneratorSpec("complete", {"n": 21}))
    d = decompose(g, 0.1)

    def metrics(external, anti, diameter, size):
        return StructuralMetrics({0: external}, {1: anti}, [diameter], [size])

    assert decomposition_bound_failures(g, d, metrics(2, 6, 2, 26)) == []
    assert decomposition_bound_failures(g, d, metrics(3, 7, 3, 27)) == [
        "external degree of 0 is 3 > eps*max_degree = 2.000",
        "anti-degree of 1 is 7 > 3*eps*max_degree = 6.000",
        "almost-clique 0 has weak diameter > 2",
        "almost-clique 0 has 27 members > (1+3*eps)*max_degree = 26.000",
    ]
