import itertools
import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from deltacolor import GeneratorSpec, ValidationError, build_graph, generate
from deltacolor import graph as graph_module
from deltacolor import io as io_module
from deltacolor import sharing as sharing_module
from deltacolor.decomposition import THRESHOLD_TOL, compute_friend_edges
from deltacolor.graph import BLANK, same_color_pairs, segment_sum, slot_components, vertex_ids
from deltacolor.io import dumps_json, read_edge_list, read_palettes, write_edge_list
from deltacolor.sharing import edge_common_counts

from conftest import clique_beside_bipartite, mixed_main_shaped
from reference import neighbors


def test_path_graph():
    g = build_graph([(0, 1), (1, 2)])
    assert g.n == 3
    assert g.max_degree == 2
    assert g.edge_array().tolist() == [[0, 1], [1, 2]]
    assert neighbors(g, 1) == {0, 2}


def test_empty_graph_with_declared_n():
    g = build_graph([], n=3)
    assert g.n == 3
    assert g.max_degree == 0
    assert g.num_edges == 0


def test_duplicate_and_reversed_edges_normalize():
    g = build_graph([(0, 1), (1, 0), (0, 1)])
    assert g.num_edges == 1
    assert 1 in g.neighbors(0) and 0 in g.neighbors(1)


def test_self_loop_rejected():
    with pytest.raises(ValidationError, match="self-loop"):
        build_graph([(0, 0)])


def test_negative_id_rejected():
    with pytest.raises(ValidationError):
        build_graph([(-1, 2)])


def test_malformed_pair_rejected():
    with pytest.raises(ValidationError, match="pair"):
        build_graph([(0, 1, 2)])  # type: ignore[list-item]


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1.7), (1, 2)],
        [(0, "2")],
        [(0, None)],
        [(True, False)],
        np.array([[0.0, 1.0]]),
        [(0, True), (1, 2)],  # numpy reads a bool beside integers as 1
    ],
)
def test_non_integer_pairs_rejected_not_truncated(edges):
    with pytest.raises(ValidationError, match="integers"):
        build_graph(edges)


def test_ragged_pairs_rejected():
    with pytest.raises(ValidationError, match="pair"):
        build_graph([(0, 1), (1, 2, 3)])


def test_pairs_from_any_iterable():
    g = build_graph((i, i + 1) for i in range(3))
    assert g.edge_array().tolist() == [[0, 1], [1, 2], [2, 3]]


def test_id_beyond_declared_n_rejected():
    with pytest.raises(ValidationError, match="declared"):
        build_graph([(0, 5)], n=3)


@pytest.mark.parametrize("n", [2**32, graph_module._MAX_VERTICES + 1])
def test_vertex_count_beyond_the_edge_key_range_rejected_before_allocating(n):
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=f"vertices exceed the limit of {2**28}"):
            build_graph(np.array([[0, 1], [1, 2]]), n=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # the largest key lo * n + hi an accepted n can produce is n * n - 1
    assert graph_module._MAX_VERTICES**2 - 1 <= np.iinfo(np.int64).max


def test_empty_edge_list_without_n_rejected():
    with pytest.raises(ValidationError):
        build_graph([])


def test_edge_array_and_sparse_adjacency_agree():
    g = build_graph([(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
    arr = g.edge_array()
    assert arr.shape == (5, 2)
    mat = sharing_module._dense_rows(g, np.arange(g.n))()
    assert mat.sum() == 10
    for u, v in arr:
        assert mat[u, v] and mat[v, u]


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    raw=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40),
)
def test_build_graph_invariants(n, raw):
    edges = [(u % n, v % n) for u, v in raw if u % n != v % n]
    g = build_graph(edges, n=n)
    degrees = g.degrees().tolist()
    assert g.max_degree == (max(degrees) if degrees else 0)
    for v in range(n):
        nb = g.neighbors(v)
        assert np.all(np.diff(nb) > 0)  # sorted, unique
        assert v not in nb
        for w in nb:
            assert v in g.neighbors(int(w))
    expected = {tuple(sorted(e)) for e in edges}
    assert set(map(tuple, g.edge_array().tolist())) == expected
    assert g.slot_owners().tolist() == [v for v in range(n) for _ in g.neighbors(v)]


def unique_lexsort_csr(edges, n):
    """CSR arrays by ``np.unique`` of the undirected keys and a ``lexsort``
    of the directed pairs: the dedupe build_graph used before its sorts."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    keys = np.unique(arr.min(axis=1) * n + arr.max(axis=1))
    lo, hi = keys // n, keys % n
    src, dst = np.concatenate((lo, hi)), np.concatenate((hi, lo))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    return indptr, dst[np.lexsort((dst, src))]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=20),
    raw=st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=60),
    extra=st.one_of(st.none(), st.integers(0, 3)),
)
def test_sorted_dedupe_matches_unique_and_lexsort(n, raw, extra):
    edges = [(u % n, v % n) for u, v in raw if u % n != v % n]
    # every other pair again, reversed: repeats in both orientations
    edges += [(v, u) for u, v in edges[::2]]
    if extra is None and not edges:
        return
    # a declared n beyond the largest ID leaves isolated vertices
    declared = None if extra is None else n + extra
    g = build_graph(edges, n=declared)
    indptr, indices = unique_lexsort_csr(edges, g.n)
    assert g.n == (max(map(max, edges)) + 1 if extra is None else declared)
    assert g.indptr.dtype == g.indices.dtype == np.int64
    assert g.indptr.tolist() == indptr.tolist()
    assert g.indices.tolist() == indices.tolist()
    assert g.max_degree == int(np.diff(indptr).max())


def test_empty_edge_list_builds_isolated_vertices():
    for edges in ([], np.zeros((0, 2), dtype=np.int64)):
        g = build_graph(edges, n=4)
        assert g.indptr.tolist() == [0] * 5 and g.indices.size == 0 and g.max_degree == 0


def neighbour_set_csr(edges, n):
    """CSR arrays of each vertex's neighbour set, sorted, from plain Python."""
    adjacent = [set() for _ in range(n)]
    for u, v in edges:
        adjacent[u].add(v)
        adjacent[v].add(u)
    indptr = [0, *itertools.accumulate(len(a) for a in adjacent)]
    return indptr, [w for a in adjacent for w in sorted(a)]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=25),
    data=st.data(),
    order=st.sampled_from(["sorted", "shuffled", "repeated", "reversed"]),
    isolated=st.one_of(st.none(), st.integers(0, 3)),
    as_array=st.booleans(),
    narrow=st.booleans(),
)
def test_build_graph_matches_neighbour_sets(n, data, order, isolated, as_array, narrow):
    """Sorted unique pairs skip the dedupe; shuffled, repeated and reversed
    ones take it; both give the CSR of the neighbour sets, from int32 keys
    or, as past n = 46340, from int64 ones."""
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])
    edges = sorted(data.draw(st.sets(pair, max_size=60 if n > 1 else 0)))
    if order == "shuffled":
        edges = data.draw(st.permutations(edges))
    elif order == "repeated" and edges:
        edges = data.draw(st.permutations(edges + data.draw(st.lists(st.sampled_from(edges), max_size=20))))
    elif order == "reversed":
        edges = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in edges]
    if isolated is None and not edges:
        return
    # a declared n beyond the largest ID leaves isolated vertices; n = 1 and
    # an empty list with n given are drawn too
    declared = None if isolated is None else n + isolated
    with pytest.MonkeyPatch.context() as mp:
        if not narrow:
            mp.setattr(graph_module, "_INT32_MAX", 0)
        g = build_graph(np.array(edges, dtype=np.int64).reshape(-1, 2) if as_array else edges, n=declared)
    indptr, indices = neighbour_set_csr(edges, g.n)
    assert g.n == (max(map(max, edges)) + 1 if isolated is None else declared)
    assert g.indptr.dtype == g.indices.dtype == np.int64
    assert g.indptr.tolist() == indptr and g.indices.tolist() == indices
    assert g.max_degree == max(np.diff(indptr))
    assert not g.indptr.flags.writeable and not g.indices.flags.writeable


def _peak_over_indices(build):
    """Traced peak of ``build()`` over the bytes of its graph's ``indices``."""
    tracemalloc.start()
    try:
        g = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / g.indices.nbytes


def test_set_up_peaks_within_three_times_the_final_indices():
    spec = GeneratorSpec.parse("gnp:1000,0.5", seed=1)
    pairs = np.random.default_rng(1).integers(0, 20_000, size=(200_000, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    # a sort of all 2m directed slot keys peaked at 4.5x and 3.7x
    assert _peak_over_indices(lambda: generate(spec)) <= 3
    assert _peak_over_indices(lambda: build_graph(pairs, n=20_000)) <= 3


def row_graph(degrees):
    """A CSR graph built by hand with the given row degrees (only the
    layout matters to how Graph.scan cuts its blocks)."""
    return graph_module.Graph(
        n=len(degrees),
        indptr=np.concatenate(([0], np.cumsum(degrees))).astype(np.int64),
        indices=np.zeros(int(sum(degrees)), dtype=np.int64),
        max_degree=max(degrees),
    )


def scan_blocks(g, rows):
    """The slices of ``rows`` that Graph.scan yields, one per block."""
    return [block for block, _, _ in g.scan(rows)]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=12),
    st.integers(1, 10),
    st.data(),
)
def test_row_blocks_cut_rows_in_order_within_the_slot_budget(degrees, block, data):
    g = row_graph(degrees)
    # any rows, in any order, repeats allowed; none at all too
    rows = np.array(data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n)), dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "SLOT_BLOCK", block)
        parts = scan_blocks(g, rows)
    if rows.size == 0:
        assert parts == []
        return
    assert np.concatenate([rows[part] for part in parts]).tolist() == rows.tolist()
    slots = [int(g.degrees()[rows[part]].sum()) for part in parts]
    for part, size in zip(parts, slots):
        assert size <= block or part.stop - part.start == 1
    # a block ends only where its next row would overflow it
    for part, size in zip(parts[:-1], slots):
        assert size + int(g.degrees()[rows[part.stop]]) > block


def test_row_blocks_of_one_row_and_of_none(monkeypatch):
    g = row_graph([3, 0, 5])
    monkeypatch.setattr(graph_module, "SLOT_BLOCK", 2)
    assert scan_blocks(g, np.array([2])) == [slice(0, 1)]
    assert scan_blocks(g, np.array([1])) == [slice(0, 1)]
    assert scan_blocks(g, np.zeros(0, dtype=np.int64)) == []
    # the budget is read at call time
    monkeypatch.setattr(graph_module, "SLOT_BLOCK", 8)
    assert scan_blocks(g, np.arange(3)) == [slice(0, 3)]


def test_adjacent_matches_neighbor_sets_on_edge_rows():
    # vertex 0 and vertex 6 = n - 1 are isolated, 5 has degree 1, and the
    # queries hit every row's first and last neighbour and miss between them
    g = build_graph([(1, 2), (1, 4), (2, 4), (3, 4), (4, 5)], n=7)
    u, v = (np.array(side, dtype=np.int64) for side in zip(*itertools.product(range(7), repeat=2)))
    assert g.adjacent(u, v).tolist() == [int(b) in neighbors(g, int(a)) for a, b in zip(u, v)]
    assert g.adjacent(np.array([4, 4, 4]), np.array([1, 5, 0])).tolist() == [True, True, False]
    assert g.adjacent(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)).tolist() == []
    edgeless = build_graph([], n=3)
    assert edgeless.adjacent(np.array([0, 2]), np.array([2, 0])).tolist() == [False, False]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 40),
    raw=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=300),
    data=st.data(),
)
def test_adjacent_matches_neighbor_sets(n, raw, data):
    g = build_graph([(u % n, v % n) for u, v in raw if u % n != v % n], n=n)
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60))
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    assert g.adjacent(u, v).tolist() == [b in neighbors(g, a) for a, b in pairs]


@settings(max_examples=150, deadline=None)
@given(
    colors=st.lists(st.integers(-3, 3) | st.sampled_from([-(2**63), 2**63 - 1]), max_size=30),
    slots=st.integers(0, 10**4),
)
# three colours twice each: the min/max bound, 3 pairs, is exact, and the
# pairs pay by one slot
@example(colors=[1, 1, 2, 2, 3, 3], slots=3 * graph_module.PAIR_SLOTS + 1)
def test_same_color_pairs_match_combinations(colors, slots):
    # the blank 0 pairs with nothing; extreme colours stretch the span
    arr = np.array(colors, dtype=np.int64)
    expected = [
        (i, j) for i, j in itertools.combinations(range(len(colors)), 2)
        if colors[i] == colors[j] != BLANK
    ]
    got = same_color_pairs(arr, 10**18)
    assert got is not None
    assert sorted(zip(got[0].tolist(), got[1].tolist())) == expected
    # refused exactly when the pairs cost at least the slots: the min/max
    # bound never refuses a call that the count would accept
    colored = sum(c != BLANK for c in colors)
    chosen = same_color_pairs(arr, slots)
    assert (chosen is None) == (colored > 1 and len(expected) * graph_module.PAIR_SLOTS >= slots)


def full_slot_same_color_edges(g, colors):
    """Graph.same_color_edges as one pass over every CSR slot, sorted."""
    owners = g.slot_owners()
    own = colors[owners]
    bad = (own == colors[g.indices]) & (own != BLANK)
    return sorted(zip(owners[bad].tolist(), g.indices[bad].tolist()))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 30),
    raw=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=120),
    colors=st.lists(st.integers(0, 3), min_size=30, max_size=30),
    given_rows=st.booleans(),
    pairs_pay=st.sampled_from([None, True, False]),
    block=st.sampled_from([None, 1, 3, 64]),
)
def test_same_color_edges_match_the_full_slot_scan(n, raw, colors, given_rows, pairs_pay, block):
    # few colours and the blank 0, so same-colour edges and blank rows are
    # common; the rows given are the non-blank vertices; pairs_pay True
    # looks every same-colour pair up, False scans the rows
    g = build_graph([(u % n, v % n) for u, v in raw if u % n != v % n], n=n)
    arr = np.array(colors[:n], dtype=np.int64)
    rows = np.flatnonzero(arr != BLANK) if given_rows else None
    with pytest.MonkeyPatch.context() as mp:
        if pairs_pay is not None:
            mp.setattr(graph_module, "_pairs_pay", lambda pairs, slots: pairs_pay)
        if block is not None:
            mp.setattr(graph_module, "SLOT_BLOCK", block)
        u, v = g.same_color_edges(arr, rows)
    assert sorted(zip(u.tolist(), v.tolist())) == full_slot_same_color_edges(g, arr)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 30),
    raw=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=120),
    colors=st.lists(st.integers(0, 3), min_size=30, max_size=30),
    keep=st.lists(st.booleans(), min_size=30, max_size=30),
    pair_slots=st.sampled_from([0, 10**9]),
)
def test_same_color_edges_of_some_rows_cover_those_rows(n, raw, colors, keep, pair_slots):
    # a strict subset of the non-blank vertices as rows; PAIR_SLOTS 0 looks
    # every same-colour pair up, 10**9 scans the rows. Both find every
    # same-colour slot of the rows; the scan finds nothing else, the pair
    # lookup only other real same-colour slots
    g = build_graph([(u % n, v % n) for u, v in raw if u % n != v % n], n=n)
    arr = np.array(colors[:n], dtype=np.int64)
    colored = np.flatnonzero(arr != BLANK)
    rows = colored[np.array(keep[: colored.size], dtype=bool)][1:]
    every = full_slot_same_color_edges(g, arr)
    wanted = [(u, v) for u, v in every if u in set(rows.tolist())]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "PAIR_SLOTS", pair_slots)
        u, v = g.same_color_edges(arr, rows)
    got = sorted(zip(u.tolist(), v.tolist()))
    if pair_slots:
        assert got == wanted
    else:
        assert set(wanted) <= set(got) <= set(every)
        assert len(got) == len(set(got))


def test_same_color_edges_price_the_slots_of_their_rows(monkeypatch):
    # the pair lookup is weighed against a scan of the given rows' slots
    g = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (4, 5)], n=7)
    priced = []

    def refuse(colors, slots):
        priced.append(slots)

    monkeypatch.setattr(graph_module, "same_color_pairs", refuse)
    colors = np.array([1, 1, 2, 2, 3, 3, 0], dtype=np.int64)
    for rows in ([0, 4], [1, 2, 5], [6], []):
        g.same_color_edges(colors, np.array(rows, dtype=np.int64))
    g.same_color_edges(colors)
    assert priced == [4, 5, 0, 0, g.indices.size]


def test_edge_list_roundtrip(tmp_path):
    g = build_graph([(0, 1), (2, 3), (1, 3)], n=5)
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    h = read_edge_list(path)
    assert h.n == g.n
    assert np.array_equal(h.edge_array(), g.edge_array())


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(), st.text(max_size=4)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    | st.dictionaries(st.integers(0, 20), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(
    n=st.one_of(st.sampled_from([0, 1, 11]), st.integers(0, 200)),
    colors=st.data(),
    rest=st.dictionaries(st.text(max_size=6), json_values, max_size=4),
)
def test_dumps_json_matches_json_dumps_on_reports(n, colors, rest):
    # at n = 11 the key "10" sorts before "2": string order, not numeric
    coloring = colors.draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n))
    report = {**rest, "coloring": dict(zip(map(str, range(n)), coloring)), "steps": [{"won": n}]}
    for obj in (report, report["coloring"], rest, coloring):
        assert dumps_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_edge_list_comments_and_header(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# a comment\nn 4\n0 1  # trailing\n\n2 3\n")
    g = read_edge_list(path)
    assert g.n == 4
    assert g.edge_array().tolist() == [[0, 1], [2, 3]]


@pytest.mark.parametrize(
    "text, message",
    [
        ("n 11\n0 1\n1_0 2\n", "g.edges:3: non-integer vertex ID in '1_0 2'"),
        ("0 1\n+3 4\n", "g.edges:2: non-integer vertex ID in '+3 4'"),
        ("0 1 # ok\n3 \u0664\n", "g.edges:2: non-integer vertex ID in '3 \u0664'"),
        ("n 1_1\n0 1\n", "g.edges:1: non-integer vertex count in 'n 1_1'"),
        ("n +4\n0 1\n", "g.edges:1: non-integer vertex count in 'n +4'"),
        ("0 1\n\n0 x\n1 2 3\n", "g.edges:3: non-integer vertex ID in '0 x'"),
        ("0 1\n1 2 3\n0 x\n", "g.edges:2: expected 'u v', got '1 2 3'"),
        ("# c\n\nn\n", "g.edges:3: malformed header 'n'"),
        ("0 1\nn 4\n", "g.edges:2: header must come first"),
    ],
)
def test_edge_list_names_its_first_bad_line(tmp_path, text, message):
    # int() would read "1_0" as 10, "+3" as 3 and "\u0664" (Arabic-Indic 4) as 4
    path = tmp_path / "g.edges"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError, match=re.escape(message)):
        read_edge_list(path)


def test_a_chunk_numpy_reads_otherwise_than_its_check_is_refused(tmp_path, monkeypatch):
    # should np.fromstring read a checked chunk into other fields than the
    # check counted, the chunk is refused; the per-line reader then finds
    # no bad line and raises AssertionError rather than return a graph
    path = tmp_path / "g.edges"
    path.write_text("0 1\n1 2\n")
    fromstring = np.fromstring
    monkeypatch.setattr(np, "fromstring", lambda *args, **kwargs: fromstring(*args, **kwargs)[:-1])
    with pytest.raises(AssertionError, match=re.escape(f"{path}: no bad line in an edge list that failed its check")):
        read_edge_list(path)
    monkeypatch.undo()
    assert read_edge_list(path).edge_array().tolist() == [[0, 1], [1, 2]]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            ["0 1", " 4\t5 ", "", "# c", "n 6", "n 1_1", "1 +2", "3", "1 2 3", "0 1_0 # c"]
            # separators: every whitespace str.split splits on, but a line end
            + ["4\xa05", "4\u20035", "1\u20282", "7 8\x85", "4\x0b5", "4\x0c5", "4\x1c5"]
            + ["-0 1", "-", "1 -", "1--2 3"]
            + ["000000000000000000001 2", f"0 {2**63 - 1}", f"0 {2**63}", f"{-(2**63) - 1} 1"]
        ),
        max_size=6,
    ),
    st.sampled_from([None, 1, 7]),
    st.sampled_from(["\n", "\r\n", "\r"]),
)
def test_edge_list_check_matches_a_per_line_reading(lines, chars, end):
    # the chunked check and the per-line search agree: a file is read iff
    # no line is bad, and otherwise its first bad line is named; small
    # chunks put the header and the edges in chunks of their own
    first_bad, started, edges, declared = None, False, [], None
    for lineno, line in enumerate(lines, start=1):
        parts = line.split("#")[0].split()
        if not parts:
            continue
        header = parts[0] == "n"
        ids_ok = all(re.fullmatch(r"-?[0-9]+", part) for part in parts[header:])
        if len(parts) != 2 or not ids_ok or header and started:
            first_bad = lineno
            break
        started = True
        if header:
            declared = int(parts[1])
        else:
            edges.append(tuple(map(int, parts)))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        if chars is not None:
            mp.setattr(io_module, "_READ_CHARS", chars)
        path = Path(tmp) / "g.edges"
        path.write_bytes(end.join(lines).encode())
        if first_bad is not None:
            message = f"g.edges:{first_bad}: "
        elif not started:
            message = "empty edge list"
        elif not all(-(2**63) <= x < 2**63 for edge in edges for x in edge):
            message = "g.edges: vertex ID outside the int64 range"
        else:
            try:
                expected = build_graph(np.array(edges, dtype=np.int64).reshape(-1, 2), n=declared)
            except ValidationError as exc:
                message = f"g.edges: {exc}"
            else:
                got = read_edge_list(path)
                assert (got.n, got.edge_array().tolist()) == (expected.n, expected.edge_array().tolist())
                return
        with pytest.raises(ValidationError, match=re.escape(message)):
            read_edge_list(path)


def test_edge_list_io_peaks_near_the_graph_it_holds(tmp_path):
    # the reader converts each chunk into one int64 buffer, so it needs
    # little beyond build_graph given the same edges as an array; the
    # writer formats a block of edges at a time, not one string of all
    pairs = np.random.default_rng(1).integers(0, 20000, size=(200000, 2))
    pairs[:, 1] += 20000  # no self-loops, few repeated pairs
    g = build_graph(pairs)
    edges = g.edge_array()
    path = tmp_path / "g.edges"

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    write_peak = peak(lambda: write_edge_list(g, path))
    assert write_peak < 5 * edges.nbytes
    build_peak = peak(lambda: build_graph(edges.copy(), n=g.n))
    assert peak(lambda: read_edge_list(path)) < 1.5 * build_peak


def test_edge_list_malformed_line(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("0 1\n1 two\n")
    with pytest.raises(ValidationError, match="bad.edges:2"):
        read_edge_list(path)


def test_edge_list_id_beyond_int64_rejected(tmp_path):
    path = tmp_path / "big.edges"
    path.write_text(f"0 1\n1 {2**63}\n")
    with pytest.raises(ValidationError, match="int64"):
        read_edge_list(path)


def test_palette_file_naming_a_vertex_twice_rejected(tmp_path):
    path = tmp_path / "palettes.json"
    path.write_text(json.dumps({"0": [1, 2, 3], "1": [1, 2, 3], "01": [4, 5, 6], "2": [1, 2, 3]}))
    with pytest.raises(ValidationError, match=re.escape("names vertex 1 twice, by keys '1' and '01'")):
        read_palettes(path, 3)


@pytest.mark.parametrize("key", ["1_0", "+0", " 1 ", "\u0661", "-", "1,0"])
def test_palette_file_takes_only_ascii_digit_keys(tmp_path, key):
    # int() would read "1_0" as vertex 10's palette
    path = tmp_path / "palettes.json"
    path.write_text(json.dumps({"0": [1, 2], key: [1, 2]}))
    with pytest.raises(ValidationError, match=re.escape(f"palettes.json: key {key!r} is not a vertex ID")):
        read_palettes(path, 11)


def test_palette_file_negative_key_is_out_of_range(tmp_path):
    path = tmp_path / "palettes.json"
    path.write_text(json.dumps({"0": [1, 2], "-1": [1, 2]}))
    with pytest.raises(ValidationError, match=re.escape("vertex -1 out of range 0..1")):
        read_palettes(path, 2)
    path.write_text(json.dumps({"1": [1, 2], "00": [3, 4]}))
    assert [p.tolist() for p in read_palettes(path, 2)] == [[3, 4], [1, 2]]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.text(alphabet="0123456789-+_ ,x\u0661", max_size=4), st.integers()), max_size=6))
def test_vertex_ids_match_a_per_key_pattern(keys):
    pattern = re.compile(r"-?[0-9]+")
    bad = [key for key in keys if isinstance(key, str) and not pattern.fullmatch(key)]
    if bad:
        with pytest.raises(ValidationError, match=re.escape(f"key {bad[0]!r} is not a vertex ID")):
            vertex_ids(keys, "key")
    else:
        assert vertex_ids(keys, "key") == [int(key) for key in keys]


def test_edge_list_header_must_come_first(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("0 1\nn 4\n")
    with pytest.raises(ValidationError, match="header"):
        read_edge_list(path)


def test_segment_helpers_handle_empty_segments():
    indptr = np.array([0, 0, 2, 2, 3])
    values = np.array([1, 0, 1])
    assert segment_sum(values, indptr).tolist() == [0, 1, 0, 1]
    # trailing empty segment must not swallow part of its predecessor
    indptr2 = np.array([0, 1, 2, 4, 4])
    values2 = np.array([1, 1, 1, 1])
    assert segment_sum(values2, indptr2).tolist() == [1, 1, 2, 0]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 3), max_size=5), min_size=1, max_size=8),
    st.sampled_from([np.int64, np.int32, np.uint8, bool]),
)
def test_segment_sum_matches_python_sums(segments, dtype):
    # any integer or bool input, empty segments included, sums as int64
    segments = [[bool(x) if dtype is bool else x for x in seg] for seg in segments]
    flat = np.array([x for seg in segments for x in seg], dtype=dtype)
    indptr = np.cumsum([0] + [len(seg) for seg in segments])
    expected = [int(sum(seg)) for seg in segments]
    sums = segment_sum(flat, np.asarray(indptr))
    assert sums.dtype == np.int64 and sums.tolist() == expected


def same_partition(a, b):
    """Whether two label arrays group the vertices the same way."""
    return np.array_equal(a[:, None] == a[None, :], b[:, None] == b[None, :])


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=14),
    raw=st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=30),
    data=st.data(),
)
def test_slot_components_match_undirected_components(n, raw, data):
    # a symmetric slot mask: each undirected edge is kept or dropped both
    # ways round; an empty mask and isolated vertices included
    g = build_graph([(u % n, v % n) for u, v in raw if u % n != v % n], n=n)
    edges = g.edge_array()
    kept = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    kept = np.array(kept, dtype=bool)
    chosen = np.zeros((n, n), dtype=bool)
    chosen[edges[kept, 0], edges[kept, 1]] = True
    chosen |= chosen.T
    mask = chosen[g.slot_owners(), g.indices]
    labels = slot_components(g, mask)
    expected = connected_components(csr_matrix(chosen), directed=False)[1]
    assert labels.shape == (n,)
    assert same_partition(labels, expected)


def test_segment_sum_does_not_wrap_narrow_values():
    top = np.iinfo(np.int32).max
    values = np.array([top, top, 1, 255], dtype=np.int32)
    assert segment_sum(values, np.array([0, 2, 2, 4])).tolist() == [2 * top, 0, 256]
    assert segment_sum(values[2:].astype(np.uint8), np.array([0, 2])).tolist() == [256]


def recount_common(g, keep):
    """Per-slot |N(u) & N(v)| by set intersection, -1 outside ``keep``."""
    out = []
    for u in range(g.n):
        for v in g.neighbors(u):
            if keep[u] and keep[v]:
                shared = np.intersect1d(g.neighbors(u), g.neighbors(int(v)), assume_unique=True)
                out.append(shared.size)
            else:
                out.append(-1)
    return np.array(out, dtype=np.int64)


def kept_pairs(g, keep):
    """The kept rows and the row-major keys of their kept-kept slots."""
    kept = np.flatnonzero(keep)
    position = np.cumsum(keep) - 1
    src = np.repeat(np.arange(g.n), g.degrees())
    counted = keep[src] & keep[g.indices]
    pairs = position[src[counted]] * kept.size + position[g.indices[counted]]
    return kept, pairs, counted


gnp_and_keep = st.tuples(
    st.integers(2, 40),
    st.sampled_from([0.05, 0.2, 0.5, 0.9]),
    st.integers(0, 2**16),
    st.sampled_from([0.0, 0.3, 0.7, 1.0]),
)


@settings(max_examples=60, deadline=None)
@given(gnp_and_keep)
def test_edge_common_counts_match_recount(draw):
    n, p, seed, _ = draw
    g = generate(GeneratorSpec("gnp", {"n": n, "p": p}, seed=seed))
    expected = recount_common(g, np.ones(n, dtype=bool))
    assert edge_common_counts(g).tolist() == expected.tolist()
    for dense in FORCED_BACKEND.values():  # the whole product, and SpGEMM
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sharing_module, "_dense_pays", lambda *priced, dense=dense: dense)
            assert edge_common_counts(g).tolist() == expected.tolist()


def assert_edges_reaching(sub, g, counts, floor):
    """``sub`` holds exactly the slots of ``g`` whose ``counts`` (-1 where
    not counted) reach ``floor``, in CSR order, as a graph."""
    slots = np.flatnonzero((counts >= floor) & (counts >= 0))
    assert sub.n == g.n
    assert sub.indices.tolist() == g.indices[slots].tolist()
    assert sub.indptr.tolist() == np.searchsorted(slots, g.indptr).tolist()
    assert sub.max_degree == int(np.diff(sub.indptr).max())


@settings(max_examples=80, deadline=None)
@given(gnp_and_keep, st.integers(0, 40), st.sampled_from([0.0, -1e-9, 0.5]), st.booleans())
@example((40, 0.5, 1, 1.0), 23, 0.0, False)  # the survivors lie on 4 of the 40 rows
@example((40, 0.5, 1, 1.0), 23, -1e-9, False)
@example((40, 0.5, 1, 1.0), 22, 0.5, False)
@example((40, 0.5, 1, 1.0), 16, 0.0, True)  # on 35 rows; 12 pairs reach the floor
def test_sharing_subgraph_keeps_the_edges_whose_counts_reach_the_floor(draw, m, offset, always):
    """Each backend is forced in turn. ``always`` tries the prune whatever
    the sampled rows say, and reads the bound 16 entries at a time."""
    n, p, seed, keep_p = draw
    g = generate(GeneratorSpec("gnp", {"n": n, "p": p}, seed=seed))
    keep = np.random.default_rng(seed).random(n) < keep_p
    expected = recount_common(g, keep)
    floor = m + offset
    with pytest.MonkeyPatch.context() as mp:
        if always:
            mp.setattr(sharing_module, "_prune_pays", lambda held, sampled: True)
            mp.setattr(graph_module, "SLOT_BLOCK", 16)
        for dense in FORCED_BACKEND.values():
            mp.setattr(sharing_module, "_dense_pays", lambda *priced, dense=dense: dense)
            assert_edges_reaching(sharing_module.sharing_subgraph(g, floor, keep), g, expected, floor)


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "spec, eps, always",
    [
        ("clique", 0.19, False),  # survivors on 90 of 241 rows: the prune is taken
        ("gnp:800,0.7", 0.1, False),  # on 294 of 772 rows: taken
        ("gnp:200,0.8", 0.15, False),  # on 194 of 199 rows: the whole product
        ("gnp:200,0.8", 0.15, True),  # the prune forced on them
        # taken (no sampled row holds a survivor), yet every pair on one side
        # passes the bound; none of those non-edges is listed
        ("bipartite_random:400,0.95", 0.1, False),
    ],
)
def test_floor_keeps_the_memory_of_the_whole_product(monkeypatch, spec, eps, always):
    """Under the friend threshold, the dense kernel's traced peak with the
    prune stays within that of the whole product it replaces (plus 1 %);
    where the prune is forced on nearly every row, within that plus 4
    bytes per kept slot. The bound is read 64 entries at a time, so that
    a block's temporaries, which do not grow with the input, weigh little
    even on these small inputs."""
    monkeypatch.setattr(graph_module, "SLOT_BLOCK", 64)
    g = clique_beside_bipartite() if spec == "clique" else generate(GeneratorSpec.parse(spec, seed=1))
    threshold = (1 - eps) * g.max_degree - THRESHOLD_TOL
    keep = g.degrees() >= threshold
    _, pairs, _ = kept_pairs(g, keep)
    pays = sharing_module._prune_pays
    taken = []
    peaks = []
    for forced in (False, True if always else None):
        monkeypatch.setattr(
            sharing_module,
            "_prune_pays",
            lambda *sampled, forced=forced: taken.append(pays(*sampled) if forced is None else forced)
            or taken[-1],
        )
        peaks.append(traced_peak(lambda: sharing_module.sharing_subgraph(g, threshold, keep)))
    assert taken == [False, always or spec != "gnp:200,0.8"]
    assert peaks[1] <= 1.01 * (peaks[0] + (4 * pairs.size if always else 0)), peaks


@pytest.mark.parametrize("block", [1, 7, 100])
def test_sparse_backend_row_blocks_match_recount(monkeypatch, block):
    monkeypatch.setattr(sharing_module, "_SPARSE_BLOCK_MULTIPLIES", block)
    g = generate(GeneratorSpec("gnp", {"n": 60, "p": 0.3}, seed=4))
    keep = np.random.default_rng(4).random(g.n) < 0.8
    kept, pairs, counted = kept_pairs(g, keep)
    expected = recount_common(g, keep)[counted]
    assert sharing_module._sparse_common_counts(g, kept, pairs).tolist() == expected.tolist()


def clique_layout_graph(sizes, gaps, bridges, link_p, seed):
    """Disjoint cliques of ``sizes`` in contiguous ID ranges, ``gaps[i]``
    unkept vertices before clique i and ``gaps[-1]`` after the last, each
    kept vertex joined to each unkept one with probability ``link_p``,
    and one edge between a member of clique i and one of clique j per
    bridge (i, j), i != j. Returns the graph and the clique members as
    the kept mask."""
    rng = np.random.default_rng(seed)
    keep, members = [], []
    for size, gap in zip(sizes, gaps):
        keep += [False] * gap
        members.append(list(range(len(keep), len(keep) + size)))
        keep += [True] * size
    keep = np.array(keep + [False] * gaps[-1])
    edges = [pair for m in members for pair in itertools.combinations(m, 2)]
    edges += [
        (u, v) for u in np.flatnonzero(keep) for v in np.flatnonzero(~keep) if rng.random() < link_p
    ]
    edges += [(rng.choice(members[i]), rng.choice(members[j])) for i, j in bridges if i != j]
    return build_graph(edges, n=keep.size), keep


def reference_runs(pairs, k):
    """The (first, stop) rows of the maximal runs of consecutive rows that
    no pair crosses and that hold a pair, one boundary at a time."""
    rows = [(int(p) // k, int(p) % k) for p in pairs]
    crossed = {b for i, j in rows for b in range(min(i, j) + 1, max(i, j) + 1)}
    bounds = [b for b in range(k + 1) if b in (0, k) or b not in crossed]
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if any(a <= i < b for i, _ in rows)]


@st.composite
def clique_layouts(draw):
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    gaps = draw(st.lists(st.integers(0, 3), min_size=len(sizes) + 1, max_size=len(sizes) + 1))
    clique = st.integers(0, len(sizes) - 1)
    bridges = draw(st.lists(st.tuples(clique, clique), max_size=2))
    return sizes, gaps, bridges, draw(st.sampled_from([0.0, 0.3, 0.7])), draw(st.integers(0, 2**16))


# what _dense_pays answers to force each backend, as in test_weak_diameter_values
FORCED_BACKEND = {"dense": True, "sparse": False}


def kept_runs(g, keep):
    """The kept rows' farthest partners as sharing_subgraph reads them, and
    the runs it cuts them into, before any join."""
    kept = np.flatnonzero(keep)
    far = sharing_module._farthest_partners(g, keep, kept, np.cumsum(keep) - 1)
    return far, sharing_module._runs(far)


def recorded(mp, name):
    """Patch sharing_module.``name`` to record the arguments of its calls."""
    calls = []
    real = getattr(sharing_module, name)
    mp.setattr(sharing_module, name, lambda *args: calls.append(args) or real(*args))
    return calls


@settings(max_examples=80, deadline=None)
@given(clique_layouts())
@example(([3, 4, 2], [0, 1, 0, 2], [(0, 1)], 0.3, 1))  # a bridge merges two runs
@example(([1, 3, 1, 1, 2], [2, 0, 1, 0, 0, 1], [], 0.7, 2))  # isolated kept rows
@example(([2, 5], [1, 0, 0], [], 0.3, 3))  # a run ends at the last row
@example(([1, 1, 1], [0, 1, 1, 0], [], 0.7, 4))  # no pairs at all
def test_run_blocked_friend_edges_match_recount(layout):
    """Under every floor, with each backend forced, and the prune forced or
    left to the sample, the friend edges are the recount's. The kept rows
    are cut into the runs that ``reference_runs`` finds on the keys, and
    the dense backend reads each joined run once per call."""
    g, keep = clique_layout_graph(*layout)
    expected = recount_common(g, keep)
    _, pairs, _ = kept_pairs(g, keep)
    _, runs = kept_runs(g, keep)
    assert [tuple(r) for r in runs.tolist()] == reference_runs(pairs, int(keep.sum()))
    for backend, dense in FORCED_BACKEND.items():
        for always in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sharing_module, "_dense_pays", lambda *priced, dense=dense: dense)
                if always:
                    mp.setattr(sharing_module, "_prune_pays", lambda held, sampled: True)
                joins = recorded(mp, "_join_runs")
                reads = recorded(mp, "_run_keys")
                for floor in range(6):
                    sub = sharing_module.sharing_subgraph(g, floor, keep)
                    assert_edges_reaching(sub, g, expected, floor)
            # no kept edge: no join and no read
            assert len(joins) == (6 if runs.size else 0), backend
            joined = sum(sharing_module._join_runs(*args).shape[0] for args in joins)
            assert len(reads) == (joined if backend == "dense" else 0), backend


@settings(max_examples=80, deadline=None)
@given(clique_layouts())
@example(([3, 4, 2], [0, 1, 0, 2], [(0, 1)], 0.3, 1))  # a bridge merges two runs
@example(([5, 4], [0, 0, 3], [], 0.7, 5))  # last neighbours unkept: scanned
@example(([5], [0, 3], [], 0.7, 6))  # one run, its last neighbours unkept: scanned
@example(([1, 1, 1], [0, 1, 1, 0], [], 0.7, 4))  # no pairs at all
def test_the_csr_rows_tell_one_run_as_the_keys_do(layout):
    """``_farthest_partners`` reads each kept row's farthest kept partner
    off the CSR, or lower bounds of them that prove one run, and
    ``_runs`` cuts them into the runs that ``reference_runs`` finds on
    the keys."""
    g, keep = clique_layout_graph(*layout)
    _, pairs, _ = kept_pairs(g, keep)
    k = int(keep.sum())
    far, runs = kept_runs(g, keep)
    assert [tuple(r) for r in runs.tolist()] == reference_runs(pairs, k)
    farthest = [max((int(p) % k for p in pairs if p // k == i), default=-1) for i in range(k)]
    assert all(-1 <= bound <= place for bound, place in zip(far.tolist(), farthest))
    if runs.tolist() != [[0, k]]:  # no bound proved one run, so the rows were scanned
        assert far.tolist() == farthest


@pytest.mark.parametrize("linked, scans", [(range(1, 5), 0), (range(5), 1)])
def test_kept_first_neighbours_spare_the_scan_when_they_prove_one_run(monkeypatch, linked, scans):
    """K5 on the kept vertices 0..4 and an unkept vertex 5 after them:
    joined to rows 1..4, it hides their farthest kept partners, but row 0
    reaches row 4 by its last slot, which proves one run with no scan.
    Joined to row 0 as well, every last slot is unkept, and the kept first
    neighbours (places 1, 0, 0, 0, 0) leave cuts, so the rows are scanned."""
    g = build_graph(list(itertools.combinations(range(5), 2)) + [(v, 5) for v in linked], n=6)
    keep = np.arange(6) < 5
    calls = []
    scan = graph_module.Graph.scan
    monkeypatch.setattr(graph_module.Graph, "scan", lambda *a: calls.append(1) or scan(*a))
    far = sharing_module._farthest_partners(g, keep, np.arange(5), np.cumsum(keep) - 1)
    assert len(calls) == scans and sharing_module._runs(far).tolist() == [[0, 5]]
    assert far.tolist() == ([4, 0, 0, 0, 0] if scans == 0 else [4, 4, 4, 4, 3])


def disjoint_cliques(count, size, isolated=0):
    """``count`` disjoint ``size``-cliques in contiguous ID ranges, then
    ``isolated`` vertices with no edge."""
    iu, ju = np.triu_indices(size, 1)
    blocks = [np.column_stack((iu, ju)) + j * size for j in range(count)]
    return build_graph(np.concatenate(blocks), n=count * size + isolated)


def test_dense_products_follow_the_row_runs(monkeypatch):
    products = recorded(monkeypatch, "_gram")
    # the degree prune keeps the clique members, one run per clique, each
    # read over its own rows and the periphery columns they touch
    g = mixed_main_shaped()
    friends = compute_friend_edges(g, 0.05)
    assert len(products) == 12 and friends.num_edges == 12 * 40 * 39 // 2
    assert all(d.shape[0] == 40 and 40 <= d.shape[1] < g.n for (d,) in products)
    # runs whose joined product stays within one run's fixed price are read
    # as one: 40 K4 (degree 3) in joins of at most (7e6 / 4) ** (1/3) rows,
    # with the dense backend forced (SpGEMM is cheaper on so small a graph)
    products.clear()
    g = disjoint_cliques(40, 4, isolated=5)
    with monkeypatch.context() as mp:
        mp.setattr(sharing_module, "_dense_pays", lambda *priced: True)
        assert sharing_module.sharing_subgraph(g, 2, g.degrees() > 0).num_edges == 40 * 6
    assert [d.shape for (d,) in products] == [(120, 120), (40, 40)]
    # rows that interleave, or cliques joined by bridges, stay one run: one
    # whole product over all n columns, five isolated and unkept ones too
    for spec in ("gnp:400,0.5", "clique_chain:21x8"):
        g = generate(GeneratorSpec.parse(spec, seed=1))
        padded = build_graph(g.edge_array(), n=g.n + 5)
        products.clear()
        sharing_module.sharing_subgraph(padded, 0, padded.degrees() > 0)
        assert [d.shape for (d,) in products] == [(g.n, g.n + 5)], spec
        # under a floor above every degree, no pair's bound reaches it: the
        # product covers only the first quarter of the columns
        products.clear()
        friends = sharing_module.sharing_subgraph(padded, g.max_degree + 1, padded.degrees() > 0)
        assert [d.shape for (d,) in products] == [(g.n, math.ceil((g.n + 5) / 4))], spec
        assert friends.num_edges == 0, spec


def test_sharing_subgraph_rejects_bad_keep_mask():
    g = build_graph([(0, 1), (1, 2)])
    with pytest.raises(ValidationError, match="keep mask"):
        sharing_module.sharing_subgraph(g, 0, np.ones(2, dtype=bool))


def test_common_counts_refuse_degrees_that_float32_would_round(monkeypatch):
    monkeypatch.setattr(sharing_module, "_FLOAT32_EXACT", 3)
    g = generate(GeneratorSpec("complete", {"n": 5}))
    with pytest.raises(ValidationError, match="degrees below"):
        edge_common_counts(g)
    for dense in FORCED_BACKEND.values():  # the dense read, and the slot counts
        monkeypatch.setattr(sharing_module, "_dense_pays", lambda *priced, dense=dense: dense)
        with pytest.raises(ValidationError, match="degrees below"):
            sharing_module.sharing_subgraph(g, 3)


def test_sharing_subgraph_compares_counts_with_the_floor_exactly(monkeypatch):
    """Two adjacent hubs share 2**20 + 1 leaves. float32 cannot tell that
    count from a floor 1e-6 above it, yet each backend, forced in turn,
    holds its counts in float32 and keeps the edge only under floors
    they reach."""
    shared = 2**20 + 1
    assert np.float32(shared + 1e-6) == np.float32(shared)
    leaves = np.arange(2, shared + 2)
    edges = np.concatenate([[(0, 1)], np.column_stack((np.zeros_like(leaves), leaves)),
                            np.column_stack((np.ones_like(leaves), leaves))])
    g = build_graph(edges)
    for dense in FORCED_BACKEND.values():
        with monkeypatch.context() as mp:
            mp.setattr(sharing_module, "_dense_pays", lambda *priced, dense=dense: dense)
            reads, counts = recorded(mp, "_run_keys"), recorded(mp, "_sparse_common_counts")
            for floor, friends in ((shared, 1), (shared + 1e-6, 0), (shared - 1e-6, 1)):
                assert sharing_module.sharing_subgraph(g, floor, g.degrees() > 2).num_edges == friends, floor
        assert (len(reads), len(counts)) == ((3, 0) if dense else (0, 3))


def test_backend_switch_follows_cost(monkeypatch):
    reads = recorded(monkeypatch, "_dense_keys")
    counts = recorded(monkeypatch, "_sparse_keys")
    # one run of 400 rows; 300 K16 in 75 joined runs; 10000 K2 in 134 joined
    # runs, whose fixed prices outweigh SpGEMM's 2e4 multiplies
    for g in (generate(GeneratorSpec.parse("gnp:400,0.5", seed=1)), disjoint_cliques(300, 16),
              disjoint_cliques(10_000, 2)):
        sharing_module.sharing_subgraph(g, 1)
    # the dense reads are handed their joined runs
    assert [args[2].shape[0] for args in reads] == [1, 75] and len(counts) == 1
    # edge_common_counts: the whole product on a dense graph, SpGEMM on a sparse one
    picked = recorded(monkeypatch, "_gram"), recorded(monkeypatch, "_sparse_common_counts")
    edge_common_counts(generate(GeneratorSpec("gnp", {"n": 400, "p": 0.5}, seed=1)))
    pairs = np.random.default_rng(1).integers(0, 20_000, size=(20_000, 2))
    edge_common_counts(build_graph(pairs[pairs[:, 0] != pairs[:, 1]], n=20_000))
    assert [len(calls) for calls in picked] == [1, 1]


def test_runs_over_the_dense_operand_bound_go_to_spgemm_unpriced(monkeypatch):
    # one run of 400 rows over 400 columns, one element over a lowered
    # bound: SpGEMM counts the pairs, and no price is asked
    g = generate(GeneratorSpec.parse("gnp:400,0.5", seed=1))
    dense = sharing_module.sharing_subgraph(g, 105)
    monkeypatch.setattr(sharing_module, "_DENSE_OPERAND_ELEMENTS", 400 * 400 - 1)
    priced, keyed = recorded(monkeypatch, "_dense_pays"), recorded(monkeypatch, "_sparse_keys")
    sparse = sharing_module.sharing_subgraph(g, 105)
    assert (len(priced), len(keyed)) == (0, 1) and dense.num_edges > 0
    assert np.array_equal(sparse.indptr, dense.indptr) and np.array_equal(sparse.indices, dense.indices)


def test_sparse_row_blocks_with_no_wanted_pair_are_skipped(monkeypatch):
    """A K4 on the kept vertices 0..3, and kept vertex 4 joined only to
    the unkept vertex 5. In blocks of one multiply each row is a block of
    its own, and row 4's holds no kept pair: SpGEMM builds no mask for it
    (one ``csr_matrix`` for the operand, one mask per other block)."""
    monkeypatch.setattr(sharing_module, "_SPARSE_BLOCK_MULTIPLIES", 1)
    monkeypatch.setattr(sharing_module, "_dense_pays", lambda *priced: False)
    built = []
    monkeypatch.setattr(
        sharing_module, "csr_matrix", lambda *args, **kwargs: built.append(1) or csr_matrix(*args, **kwargs)
    )
    g = build_graph(list(itertools.combinations(range(4), 2)) + [(4, 5)])
    friends = sharing_module.sharing_subgraph(g, 2, np.arange(6) < 5)
    assert friends.edge_array().tolist() == list(map(list, itertools.combinations(range(4), 2)))
    assert len(built) == 1 + 4


def test_unsigned_id_beyond_int64_is_out_of_range():
    with pytest.raises(ValidationError, match="9223372036854775808, out of range"):
        build_graph(np.array([[0, 2**63]], dtype=np.uint64))
    # unsigned IDs that fit are taken as they are
    g = build_graph(np.array([[0, 2]], dtype=np.uint64))
    assert g.n == 3 and g.neighbors(2).tolist() == [0]


def reference_scan(g, rows):
    """Graph.scan by its definition: ``rows`` cut greedily, in order, into
    blocks of at most SLOT_BLOCK slots (a longer row alone), each with its
    rows' CSR slots listed row by row and gathered from indices."""
    degrees = [int(g.indptr[v + 1] - g.indptr[v]) for v in rows]
    out = []
    start = 0
    while start < len(degrees):
        stop, size = start + 1, degrees[start]
        while stop < len(degrees) and size + degrees[stop] <= graph_module.SLOT_BLOCK:
            size += degrees[stop]
            stop += 1
        block = slice(start, stop)
        start = stop
        slots = [np.arange(g.indptr[v], g.indptr[v + 1]) for v in rows[block]]
        neighbors = g.indices[np.concatenate(slots)]
        out.append((block, neighbors.tolist(), [s.size for s in slots]))
    return out


@pytest.mark.parametrize("over, blocks", [(0, 1), (1, 2)])
def test_scan_rows_within_one_block_are_one_run(monkeypatch, over, blocks):
    # K_10 has 9 slots a row: four rows want 36 slots, exactly one block
    # of 36, or one slot over a block of 35
    g = generate(GeneratorSpec("complete", {"n": 10}))
    rows = np.array([1, 2, 3, 5], dtype=np.int64)
    monkeypatch.setattr(graph_module, "SLOT_BLOCK", 36 - over)
    got = [(b, nb.tolist(), d.tolist()) for b, nb, d in g.scan(rows)]
    assert got == reference_scan(g, rows)
    assert len(got) == blocks
    assert graph_module._cut(np.full(4, 9)) == ([slice(0, 4)] if blocks == 1 else [slice(0, 3), slice(3, 4)])


# what _mask_pays answers to leave the read of a block of ascending rows
# with gaps to the measured rule, force the row mask, or force the gather
SCAN_READS = {"rule": None, "mask": True, "gather": False}


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 7), max_size=4), min_size=1, max_size=8),
    st.sampled_from(["consecutive", "ascending", "unsorted", "empty"]),
    st.data(),
)
def test_scan_matches_row_blocks_and_gathered_slots(rows_of_neighbors, kind, data):
    # CSR arrays built by hand: rows may be empty, and so may the selection
    degrees = [len(r) for r in rows_of_neighbors]
    g = graph_module.Graph(
        n=len(degrees),
        indptr=np.concatenate(([0], np.cumsum(degrees))).astype(np.int64),
        indices=np.array([x for r in rows_of_neighbors for x in r], dtype=np.int64),
        max_degree=max(degrees),
    )
    vertex = st.integers(0, g.n - 1)
    if kind == "consecutive":
        first = data.draw(vertex)
        rows = np.arange(first, data.draw(st.integers(first, g.n)))
    elif kind == "ascending":
        rows = np.array(sorted(data.draw(st.sets(vertex))), dtype=np.int64)
    elif kind == "unsorted":  # any order, repeats allowed
        rows = np.array(data.draw(st.lists(vertex, max_size=2 * g.n)), dtype=np.int64)
    else:
        rows = np.zeros(0, dtype=np.int64)
    for block, mask in itertools.product((1, 3, graph_module.SLOT_BLOCK), SCAN_READS.values()):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "SLOT_BLOCK", block)
            if mask is not None:
                mp.setattr(graph_module, "_mask_pays", lambda span, reach, wanted, mask=mask: mask)
            scanned = list(g.scan(rows))
            expected = reference_scan(g, rows)
        assert [(b, nb.tolist(), d.tolist()) for b, nb, d in scanned] == expected
        for part, neighbors, _ in scanned:
            # consecutive rows, and only they, are read as a view of indices
            consecutive = bool(np.all(np.diff(rows[part]) == 1))
            assert np.shares_memory(neighbors, g.indices) == (consecutive and neighbors.size > 0)


def test_scan_reads_each_kind_of_block(monkeypatch):
    # K_100 has 99 slots a row: a row mask pays for every other row of a
    # span, not for two rows far apart; one-row blocks are always slices
    g = generate(GeneratorSpec("complete", {"n": 100}))
    reads = []
    read = graph_module._read
    monkeypatch.setattr(graph_module, "_read", lambda *args: reads.append(read(*args)) or reads[-1])
    cases = [
        ([3, 4, 5], ["slice"]),
        (list(range(0, 100, 2)), ["mask"]),
        ([0, 99], ["gather"]),
        ([5, 1, 9], ["gather"]),
        ([2, 2], ["gather"]),
        ([], []),
    ]
    default = graph_module.SLOT_BLOCK
    for rows, expected in cases:
        rows = np.array(rows, dtype=np.int64)
        for block in (default, 99):
            monkeypatch.setattr(graph_module, "SLOT_BLOCK", block)
            reads.clear()
            got = [(b, nb.tolist(), d.tolist()) for b, nb, d in g.scan(rows)]
            assert got == reference_scan(g, rows)
            assert reads == (expected if block > 99 else ["slice"] * rows.size), (rows, block)


@pytest.mark.parametrize(
    "switch, tie, pays",
    [
        # a row mask that costs as much as the gather is taken
        ("_mask_pays", lambda: (3 * graph_module.MASK_SPAN, 2, 3 + 2 * graph_module.MASK_ROW), True),
        # pairs that cost as much as the scan are scanned
        ("_pairs_pay", lambda: (5, 5 * graph_module.PAIR_SLOTS), False),
        # dense products that cost as much as SpGEMM go to SpGEMM
        ("_dense_pays", lambda: (1000 * sharing_module._SPARSE_MULTIPLY, 0, 1000), False),
        # exactly the held share of the sampled rows still prunes
        ("_prune_pays", lambda: (64 * sharing_module._HELD_SHARE, 64), True),
    ],
)
def test_each_switch_breaks_a_cost_tie_one_way(switch, tie, pays):
    # the scan switches live in graph, the shared-neighbour ones in sharing
    module = sharing_module if hasattr(sharing_module, switch) else graph_module
    assert getattr(module, switch)(*tie()) is pays
