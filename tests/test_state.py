import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltacolor import (
    BLANK,
    GeneratorSpec,
    InvariantViolation,
    ValidationError,
    build_graph,
    canonical_palettes,
    commit_colors,
    generate,
    init_state,
    recompute_residuals,
)
from deltacolor import graph as graph_module
from deltacolor import state as state_module
from deltacolor.graph import segment_sum

from conftest import color_index, copy_state, palette_of


def k3():
    return build_graph([(0, 1), (1, 2), (0, 2)])


def test_init_state_triangle_surplus_one():
    g = k3()
    state = init_state(g, [[1, 2, 3]] * 3)
    assert state.surplus().tolist() == [1, 1, 1]
    assert state.residual_palette_size.tolist() == [3, 3, 3]
    assert state.residual_degree.tolist() == [2, 2, 2]
    assert not state.has_oversized_palettes


def test_init_state_isolated_vertex():
    g = build_graph([], n=1)
    state = init_state(g, [[1]])
    assert state.surplus().tolist() == [1]


def test_init_state_star():
    # center 0 with four leaves, palettes of size 5
    g = build_graph([(0, i) for i in range(1, 5)])
    state = init_state(g, [[1, 2, 3, 4, 5]] * 5)
    assert state.surplus()[0] == 1
    assert state.surplus()[1:].tolist() == [4, 4, 4, 4]


def test_init_state_rejects_small_palette_naming_vertex():
    g = k3()
    with pytest.raises(ValidationError, match="vertex 1"):
        init_state(g, [[1, 2, 3], [1, 2], [1, 2, 3]])


def test_init_state_rejects_blank_in_palette():
    g = k3()
    with pytest.raises(ValidationError, match="reserved"):
        init_state(g, [[0, 1, 2], [1, 2, 3], [1, 2, 3]])


def test_init_state_flags_oversized_palettes():
    g = k3()
    state = init_state(g, [[1, 2, 3, 9], [1, 2, 3], [1, 2, 3]])
    assert state.has_oversized_palettes


def test_commit_on_path_updates_residuals():
    # u - v - w; w's palette misses color 1
    g = build_graph([(0, 1), (1, 2)])
    state = init_state(g, [[1, 2, 3], [1, 2, 3], [2, 3, 4]])
    before = state.surplus().copy()
    commit_colors(state, [1], [1])
    assert state.committed[1] == 1
    assert state.residual_palette_size[0] == 2  # lost color 1
    assert state.residual_palette_size[2] == 3  # never had color 1
    assert state.residual_degree.tolist()[0::2] == [0, 0]
    after = state.surplus()
    assert after[0] >= before[0] and after[2] >= before[2]


def test_commit_conflicting_neighbors_rejected():
    g = k3()
    state = init_state(g, [[1, 2, 3]] * 3)
    with pytest.raises(InvariantViolation, match="neighbors"):
        commit_colors(state, [0, 1], [1, 1])


def test_commit_color_outside_residual_palette_rejected():
    g = k3()
    state = init_state(g, [[1, 2, 3]] * 3)
    commit_colors(state, [0], [1])
    with pytest.raises(InvariantViolation, match="residual palette"):
        commit_colors(state, [1], [1])  # color 1 was removed by the neighbor commit
    with pytest.raises(InvariantViolation, match="residual palette"):
        commit_colors(state, [1], [99])


def test_commit_already_colored_rejected():
    g = k3()
    state = init_state(g, [[1, 2, 3]] * 3)
    commit_colors(state, [0], [1])
    with pytest.raises(InvariantViolation, match="already"):
        commit_colors(state, [0], [2])


def test_k4_two_commits_hand_simulation():
    g = build_graph([(i, j) for i in range(4) for j in range(i + 1, 4)])
    state = init_state(g, [[1, 2, 3, 4]] * 4)
    commit_colors(state, [0, 1], [1, 2])
    for v in (2, 3):
        assert state.residual_palette_size[v] == 2
        assert state.residual_degree[v] == 1
        assert state.surplus()[v] == 1


def test_commit_two_nonadjacent_same_color_grows_surplus():
    # star center 0; leaves 1 and 2 may share a color, center gains surplus
    g = build_graph([(0, 1), (0, 2)])
    state = init_state(g, [[1, 2, 3]] * 3)
    commit_colors(state, [1, 2], [3, 3])
    assert state.residual_palette_size[0] == 2
    assert state.residual_degree[0] == 0
    assert state.surplus()[0] == 2  # was 1


def test_canonical_palettes_fast_path_matches_general():
    g = build_graph([(0, 1), (1, 2), (2, 3)])
    fast = init_state(g, canonical_palettes(g))
    general = init_state(g, [list(range(1, g.max_degree + 2)) for _ in range(g.n)])
    assert np.array_equal(fast.palette, general.palette)
    assert np.array_equal(fast.color_values, general.color_values)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=10),
    raw=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30),
    order=st.randoms(use_true_random=False),
)
def test_random_greedy_commits_keep_invariants(n, raw, order):
    edges = [(u % n, v % n) for u, v in raw if u % n != v % n]
    g = build_graph(edges, n=n)
    state = init_state(g, canonical_palettes(g))
    vertices = list(range(n))
    order.shuffle(vertices)
    for v in vertices:
        prev_surplus = state.surplus().copy()
        uncolored_before = state.uncolored_mask().copy()
        palette = sorted(palette_of(state, v))
        color = palette[0]
        commit_colors(state, [v], [color])
        q, d = recompute_residuals(state)
        mask = state.uncolored_mask()
        assert np.array_equal(q[mask], state.residual_palette_size[mask])
        assert np.array_equal(d[mask], state.residual_degree[mask])
        still = mask & uncolored_before
        assert np.all(state.surplus()[still] >= prev_surplus[still])
    # greedy in any order must finish: palettes have max_degree + 1 colors
    assert state.num_uncolored() == 0


# ------------------------------------------- array kernels vs per-vertex loops


def reference_commit(state, vertices, colors):
    """The per-vertex commit: one neighbour scan per batch vertex."""
    graph = state.graph
    for v, c in zip(vertices, colors):
        state.committed[v] = c
    for v, c in zip(vertices, colors):
        nb = graph.neighbors(v)
        live = nb[state.committed[nb] == 0]
        idx = color_index(state, c)
        state.residual_palette_size[live] -= state.palette[live, idx]
        state.palette[live, idx] = False
        state.residual_degree[live] -= 1


def reference_residuals(state):
    """Q and d by one neighbour scan per committed vertex."""
    graph = state.graph
    taken = np.zeros_like(state.original_palette)
    for v in np.flatnonzero(state.committed != 0):
        taken[graph.neighbors(v), color_index(state, int(state.committed[v]))] = True
    q = (state.original_palette & ~taken).sum(axis=1)
    d = np.array([np.count_nonzero(state.committed[graph.neighbors(v)] == 0) for v in range(graph.n)])
    return q, d


def assert_same_state(a, b):
    for name in ("committed", "palette", "residual_palette_size", "residual_degree"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@st.composite
def graph_palettes_batches(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    raw = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))
    g = build_graph([(u, v) for u, v in raw if u != v], n=n)
    need = g.max_degree + 1
    # a universe barely larger than a palette makes shared colours common
    universe = draw(st.integers(min_value=need, max_value=need + 3))
    palettes = [
        draw(st.lists(st.integers(1, universe), min_size=need, max_size=need + 2, unique=True))
        for _ in range(n)
    ]
    order = draw(st.permutations(range(n)))
    picks = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n))
    splits = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return g, palettes, order, picks, splits


@settings(max_examples=150, deadline=None)
@given(graph_palettes_batches(), st.sampled_from([None, 1, 3, 64]))
def test_array_commit_matches_per_vertex_reference(case, block):
    g, palettes, order, picks, splits = case
    state = init_state(g, palettes)
    mirror = copy_state(state)
    batch: dict[int, int] = {}

    def flush():
        vertices, colors = list(batch), list(batch.values())
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(graph_module, "SLOT_BLOCK", block)
            commit_colors(state, np.array(vertices), np.array(colors))
        reference_commit(mirror, vertices, colors)
        assert_same_state(state, mirror)
        q, d = recompute_residuals(state)
        ref_q, ref_d = reference_residuals(state)
        assert np.array_equal(q, ref_q) and np.array_equal(d, ref_d)
        batch.clear()

    for v, pick, split in zip(order, picks, splits):
        # lowest colours first, so batch vertices often share one
        free = sorted(palette_of(state, v) - {batch[w] for w in g.neighbors(v).tolist() if w in batch})
        if free:
            batch[v] = free[pick % min(2, len(free))]
        if split and batch:
            flush()
    if batch:
        flush()


def test_commit_same_colour_pair_sharing_a_live_neighbour_drops_q_once():
    # path 1 - 0 - 2 plus 3 - 0: leaves 1 and 2 both take colour 2; with
    # one slot per block their two marks come from different blocks
    g = build_graph([(0, 1), (0, 2), (0, 3)])
    for block in (graph_module.SLOT_BLOCK, 1):
        state = init_state(g, canonical_palettes(g))
        mirror = copy_state(state)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "SLOT_BLOCK", block)
            commit_colors(state, np.array([1, 2]), np.array([2, 2]))
        reference_commit(mirror, [1, 2], [2, 2])
        assert_same_state(state, mirror)
        assert state.residual_palette_size[0] == 3
        assert state.residual_degree[0] == 1


@pytest.mark.parametrize("block", [None, 1])
def test_commit_marks_neither_a_committed_nor_an_in_batch_neighbour(monkeypatch, block):
    # star 0 - {1, 2, 3} plus 2 - 3: leaf 1 is colored first; then 0 and 2
    # commit together, so of their neighbours only 3 is live
    if block is not None:
        monkeypatch.setattr(graph_module, "SLOT_BLOCK", block)
    g = build_graph([(0, 1), (0, 2), (0, 3), (2, 3)])
    state = init_state(g, canonical_palettes(g))
    commit_colors(state, np.array([1]), np.array([1]))
    before = copy_state(state)
    mirror = copy_state(state)
    commit_colors(state, np.array([0, 2]), np.array([2, 3]))
    reference_commit(mirror, [0, 2], [2, 3])
    assert_same_state(state, mirror)
    for v in (0, 1, 2):
        assert state.residual_palette_size[v] == before.residual_palette_size[v]
        assert state.residual_degree[v] == before.residual_degree[v]
        assert np.array_equal(state.palette[v], before.palette[v])
    assert palette_of(state, 3) == {1, 4}
    assert state.residual_degree[3] == 0


@pytest.mark.parametrize(
    "vertices, colors, message",
    [
        ([0, 7], [1, 1], "assignment to unknown vertex 7"),
        ([0, -1], [1, 1], "assignment to unknown vertex -1"),
        ([3, 2], [1, 1], "vertex 2 is already colored"),
        ([3, 1], [1, 1], "color 1 is not in the residual palette of vertex 1"),
        ([3, 0], [1, 99], "color 99 is not in the residual palette of vertex 0"),
        ([3, 0], [1, 0], "color 0 is not in the residual palette of vertex 0"),
        ([3, 3], [1, 2], "vertex 3 is assigned twice"),
        ([3, 0], [2, 2], "vertices 3 and 0 are neighbors but both assigned color 2"),
        ([0, 1], [3, 3], "vertices 0 and 1 are neighbors but both assigned color 3"),
        ([0], [1, 2], "1-D vertex and color arrays of one length"),
    ],
)
def test_commit_violation_messages_name_the_first_bad_entry(vertices, colors, message):
    # path 2 - 1 - 0 - 3 with vertex 2 colored 1 before the batch
    g = build_graph([(2, 1), (1, 0), (0, 3)])
    state = init_state(g, canonical_palettes(g))
    commit_colors(state, [2], [1])
    before = copy_state(state)
    with pytest.raises(InvariantViolation, match=message):
        commit_colors(state, vertices, colors)
    assert_same_state(state, before)


def full_slot_clash(state, vertices, colors):
    """The neighbour-clash message of a batch from one pass over all of
    its slots at once, or None."""
    graph = state.graph
    degrees = graph.degrees()[vertices]
    neighbors = np.concatenate([graph.neighbors(v) for v in vertices])
    own = np.repeat(colors, degrees)
    batch = np.zeros(graph.n, dtype=np.int64)
    batch[vertices] = colors
    clash = np.flatnonzero(batch[neighbors] == own)
    if clash.size == 0:
        return None
    k = clash[0]
    v = vertices[np.searchsorted(np.cumsum(degrees), k, side="right")]
    return f"vertices {v} and {neighbors[k]} are neighbors but both assigned color {own[k]}"


@pytest.mark.parametrize("block", [1, 3, 64])
def test_blocked_commit_names_the_first_clash_and_changes_nothing(monkeypatch, block):
    monkeypatch.setattr(graph_module, "SLOT_BLOCK", block)
    g = generate(GeneratorSpec("gnp", {"n": 40, "p": 0.3}, seed=3))
    rng = np.random.default_rng(block)
    seen = set()
    for trial in range(20):
        state = init_state(g, canonical_palettes(g))
        # a batch whose early vertices are independent, so the first clash
        # often lies past the first block
        vertices = rng.permutation(g.n)
        colors = np.where(np.arange(g.n) < trial, np.arange(1, g.n + 1), rng.integers(1, 4, g.n))
        colors = np.minimum(colors, g.max_degree + 1)
        expected = full_slot_clash(state, vertices, colors)
        before = copy_state(state)
        if expected is None:
            continue
        with pytest.raises(InvariantViolation) as err:
            commit_colors(state, vertices, colors)
        assert str(err.value) == expected
        assert_same_state(state, before)
        seen.add(expected)
    assert len(seen) > 1
    # path 2 - 1 - 0 - 3 with vertex 2 colored 1: with one-slot blocks the
    # clash lies in the second block, after a clean first one
    path = build_graph([(2, 1), (1, 0), (0, 3)])
    state = init_state(path, canonical_palettes(path))
    commit_colors(state, [2], [1])
    before = copy_state(state)
    with pytest.raises(InvariantViolation, match="vertices 1 and 0 are neighbors but both assigned color 3"):
        commit_colors(state, [3, 1, 0], [2, 3, 3])
    assert_same_state(state, before)


# what _pairs_pay answers: True looks the same-colour pairs up, False
# scans every slot; the ids are the PAIR_SLOTS values that once chose
# these paths, so that each case keeps its name
CLASH_PATHS = [pytest.param(True, id="0"), pytest.param(False, id=str(10**18))]


@pytest.mark.parametrize("pairs_pay", CLASH_PATHS)
@pytest.mark.parametrize("block", [1, 64])
def test_clean_commit_matches_the_reference_on_both_clash_paths(monkeypatch, pairs_pay, block):
    # permuted batches of an independent set, many vertices per colour, so
    # many marks of a colour land beside, never on, a vertex of that colour;
    # commit asks no _pairs_pay, and the same-colour edge query on either
    # path finds no clash in what it committed
    monkeypatch.setattr(graph_module, "_pairs_pay", lambda pairs, slots: pairs_pay)
    monkeypatch.setattr(graph_module, "SLOT_BLOCK", block)
    g = generate(GeneratorSpec("gnp", {"n": 40, "p": 0.3}, seed=3))
    state = init_state(g, canonical_palettes(g))
    mirror = copy_state(state)
    rng = np.random.default_rng(block)
    while state.num_uncolored():
        batch = []
        for v in rng.permutation(np.flatnonzero(state.committed == BLANK)).tolist():
            if not any(w in batch for w in g.neighbors(v).tolist()):
                batch.append(v)
        colors = [min(palette_of(state, v)) for v in batch]
        commit_colors(state, np.array(batch), np.array(colors))
        reference_commit(mirror, batch, colors)
        assert_same_state(state, mirror)
        u, _ = g.same_color_edges(state.committed, np.flatnonzero(state.committed != BLANK))
        assert u.size == 0
        q, d = recompute_residuals(state)
        ref_q, ref_d = reference_residuals(state)
        assert np.array_equal(q, ref_q) and np.array_equal(d, ref_d)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(3, 24),
    st.sampled_from([0.2, 0.4, 0.7]),
    st.integers(0, 2**16),
    st.sampled_from([None, 1, 3, 64]),
    st.data(),
)
def test_commit_names_the_first_clash_or_matches_the_reference(n, p, seed, block, data):
    g = generate(GeneratorSpec("gnp", {"n": n, "p": p}, seed=seed))
    state = init_state(g, canonical_palettes(g))
    for v in data.draw(st.lists(st.sampled_from(range(n)), unique=True, max_size=n // 2)):
        commit_colors(state, [v], [min(palette_of(state, v))])
    uncolored = np.flatnonzero(state.committed == BLANK).tolist()
    vertices = data.draw(st.lists(st.sampled_from(uncolored), unique=True, min_size=1))
    # each vertex picks among its three lowest residual colours, so batch
    # neighbours often share one
    colors = [data.draw(st.sampled_from(sorted(palette_of(state, v))[:3])) for v in vertices]
    expected = full_slot_clash(state, np.array(vertices), np.array(colors))
    mirror = copy_state(state)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(graph_module, "SLOT_BLOCK", block)
        if expected is None:
            commit_colors(state, vertices, colors)
            reference_commit(mirror, vertices, colors)
        else:
            with pytest.raises(InvariantViolation) as err:
                commit_colors(state, vertices, colors)
            assert str(err.value) == expected
    assert_same_state(state, mirror)


def test_commit_first_offending_entry_wins():
    g = build_graph([(0, 1), (1, 2), (2, 3)])
    state = init_state(g, canonical_palettes(g))
    commit_colors(state, [3], [1])
    # entry 1 (vertex 3) is already colored, entry 2 names an unknown vertex
    with pytest.raises(InvariantViolation, match="vertex 3 is already colored"):
        commit_colors(state, [0, 3, 9], [1, 2, 1])


def test_empty_commit_is_a_noop():
    g = k3()
    state = init_state(g, canonical_palettes(g))
    before = copy_state(state)
    commit_colors(state, [], [])
    assert_same_state(state, before)


def test_init_state_list_palettes_dedupe_repeated_colours():
    g = k3()
    state = init_state(g, [[3, 1, 2, 1], [2, 3, 1], [5, 1, 2, 3, 5]])
    assert state.color_values.tolist() == [1, 2, 3, 5]
    assert state.residual_palette_size.tolist() == [3, 3, 4]
    assert palette_of(state, 0) == {1, 2, 3}
    assert state.has_oversized_palettes


def test_init_state_repeats_do_not_count_toward_the_size():
    g = k3()
    with pytest.raises(ValidationError, match="palette of vertex 2 has 2 colors, need at least 3"):
        init_state(g, [[1, 2, 3], [1, 2, 3], [1, 2, 2, 1]])


def test_init_state_refuses_palettes_that_are_all_empty():
    # no color at all: the column map has nothing to rank
    g = build_graph([], n=3)
    with pytest.raises(ValidationError, match="palette of vertex 0 has 0 colors, need at least 1"):
        init_state(g, [[], [], []])


def test_init_state_names_the_first_bad_vertex():
    g = k3()
    # vertex 1 is short, vertex 2 holds a reserved colour: vertex 1 is named
    with pytest.raises(ValidationError, match="palette of vertex 1 has 2 colors"):
        init_state(g, [[1, 2, 3], [1, 2], [-4, 0, 1, 2]])
    with pytest.raises(ValidationError, match="vertex 1 contains reserved/invalid color -4"):
        init_state(g, [[1, 2, 3], [0, -4, 1, 2], [1, 2]])


@pytest.mark.parametrize("scale", [1, 10**12])
def test_init_state_sparse_and_dense_colour_codes_agree(scale):
    # colours spread far apart take the sorting path, close ones the table:
    # at scale 1 the ten entries span 5 or 10 colours (the table) or 11
    g = build_graph([(0, 1), (1, 2)])
    for top in (5, 10, 11):
        palettes = [[scale * c for c in p] for p in ([1, 2, 3], [2, 3, 4, 4], [1, 4, top])]
        state = init_state(g, palettes)
        assert state.color_values.tolist() == [scale * c for c in (1, 2, 3, 4, top)]
        assert [palette_of(state, v) for v in range(3)] == [set(p) for p in palettes]


@st.composite
def spread_list_palettes(draw):
    """Palettes for an edgeless graph whose entries, repeats included, span
    fewer colours than there are entries, exactly as many, one more, or
    both 1 and 2**63 - 1."""
    lengths = draw(st.lists(st.integers(1, 4), min_size=2, max_size=6))
    entries = sum(lengths)
    kind = draw(st.sampled_from(["narrow", "equal", "one over", "extremes"]))
    if kind == "extremes":
        offsets = draw(st.lists(st.integers(0, 40), min_size=entries, max_size=entries))
        offsets[0], offsets[-1] = 0, 2**63 - 2
        lo = 1
    else:
        span = {"narrow": draw(st.integers(1, entries)), "equal": entries, "one over": entries + 1}[kind]
        offsets = draw(st.lists(st.integers(0, span - 1), min_size=entries, max_size=entries))
        offsets[0], offsets[-1] = 0, span - 1
        lo = draw(st.sampled_from([1, 2, 2**40, 2**63 - span]))
    colors = draw(st.permutations([lo + o for o in offsets]))
    starts = np.cumsum([0] + lengths).tolist()
    return [colors[a:b] for a, b in zip(starts, starts[1:])]


@settings(max_examples=200, deadline=None)
@given(spread_list_palettes())
def test_init_state_column_map_matches_the_sorted_reference(palettes):
    flat = np.array([c for p in palettes for c in p], dtype=np.int64)
    values, column = np.unique(flat, return_inverse=True)
    mapped = state_module._palette_columns(flat)
    for got, want in zip(mapped, (values, column)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    owner = np.repeat(np.arange(len(palettes)), [len(p) for p in palettes])
    expected = np.zeros((len(palettes), values.size), dtype=bool)
    expected[owner, column] = True
    state = init_state(build_graph([], n=len(palettes)), palettes)
    assert state.color_values.dtype == values.dtype and np.array_equal(state.color_values, values)
    assert np.array_equal(state.original_palette, expected)
    assert np.array_equal(state.palette, expected)
    assert state.residual_palette_size.tolist() == expected.sum(axis=1).tolist()


@pytest.mark.parametrize("top, sorted_", [(9, False), (10, True), (2**63 - 1, True)])
def test_init_state_sorts_colours_only_when_they_span_more_than_the_entries(monkeypatch, top, sorted_):
    # nine entries: a span of 9 is read from the table, wider spans are sorted
    calls = []
    unique = np.unique

    def spy(*args, **kwargs):
        calls.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    state = init_state(k3(), [[1, 2, 3], [3, 2, 1], [1, 2, top]])
    assert state.color_values.tolist() == [1, 2, 3, top]
    assert palette_of(state, 2) == {1, 2, top}
    assert len(calls) == int(sorted_)


@settings(max_examples=60, deadline=None)
@given(graph_palettes_batches())
def test_recompute_residuals_matches_per_vertex_reference(case):
    g, palettes, order, picks, _ = case
    state = init_state(g, palettes)
    for v, pick in zip(order, picks):
        free = sorted(palette_of(state, v))
        if free and pick % 3:
            commit_colors(state, [v], [free[pick % len(free)]])
        q, d = recompute_residuals(state)
        ref_q, ref_d = reference_residuals(state)
        assert np.array_equal(q, ref_q) and np.array_equal(d, ref_d)


@pytest.mark.parametrize(
    "rows, bad", [([1, -2], -2), ([-1], -1), ([4], 4), ([0, 4, -1], 4)]
)
def test_recount_rejects_rows_outside_the_graph(rows, bad):
    # a 4-vertex path: -2 must not wrap round to row 2
    g = build_graph([(0, 1), (1, 2), (2, 3)])
    state = init_state(g, canonical_palettes(g))
    with pytest.raises(ValidationError, match=rf"^row {bad} lies outside \[0, 4\)$"):
        recompute_residuals(state, rows)
    q, d = recompute_residuals(state, [3, 0])
    assert q.tolist() == [3, 3] and d.tolist() == [1, 1]


def full_slot_residuals(state):
    """Q and d for every vertex from one pass over every CSR slot."""
    graph = state.graph
    width = state.num_colors + 1
    columns = np.searchsorted(state.color_values, state.committed)
    columns[state.committed == BLANK] = width - 1
    keys = np.repeat(np.arange(graph.n) * width, graph.degrees()) + columns[graph.indices]
    taken = np.zeros((graph.n, width), dtype=bool)
    taken.reshape(-1)[keys] = True
    q = np.count_nonzero(state.original_palette & ~taken[:, :-1], axis=1)
    d = segment_sum(state.committed[graph.indices] == BLANK, graph.indptr)
    return q, d


@settings(max_examples=100, deadline=None)
@given(graph_palettes_batches(), st.data(), st.sampled_from([None, 1, 3, 64]))
def test_row_recount_matches_the_full_slot_recount(case, data, block):
    g, palettes, order, picks, _ = case
    state = init_state(g, palettes)
    for v, pick in zip(order, picks):
        free = sorted(palette_of(state, v))
        if free and pick % 3:
            commit_colors(state, [v], [free[pick % len(free)]])
    ref_q, ref_d = full_slot_residuals(state)
    # any subset in any order, the empty one included; None is every row
    rows = np.array(data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n, unique=True)), dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(graph_module, "SLOT_BLOCK", block)
        q, d = recompute_residuals(state, rows)
        assert np.array_equal(q, ref_q[rows]) and np.array_equal(d, ref_d[rows])
        q, d = recompute_residuals(state)
        assert np.array_equal(q, ref_q) and np.array_equal(d, ref_d)


@pytest.mark.parametrize(
    "vertices, colors",
    [
        ([0], [1.9]),
        ([0.0], [1]),
        ([0], np.array([1], dtype=bool)),
        ([0], [2**63]),
        ([2, 0], [True, 2]),  # numpy reads a bool beside integers as 1
        ([True, 2], [1, 2]),
    ],
)
def test_commit_rejects_non_integer_batches(vertices, colors):
    g = k3()
    state = init_state(g, canonical_palettes(g))
    before = copy_state(state)
    with pytest.raises(ValidationError, match="batch (vertices|colors)"):
        commit_colors(state, vertices, colors)
    assert_same_state(state, before)


@pytest.mark.parametrize("kind", ["canonical", "list"])
def test_init_state_rejects_an_oversized_palette_matrix_before_allocating(kind):
    if kind == "canonical":
        # a star on 2**15 vertices: 2**15 palettes of 2**15 colours
        n = 2**15
        g = build_graph(np.column_stack((np.zeros(n - 1, dtype=np.int64), np.arange(1, n))))
        palettes, shape = canonical_palettes(g), f"{n} x {n}"
    else:
        # no edges, but 8192 palettes of five colours each, none shared
        n = 2**13
        g = build_graph([], n=n)
        palettes, shape = [list(range(5 * v + 1, 5 * v + 6)) for v in range(n)], f"{n} x {5 * n}"
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=f"palettes need a {shape} vertex-by-colour matrix"):
            init_state(g, palettes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the rejected matrix would take more than 2**28 bytes
    assert peak < 2**22 < state_module._MAX_PALETTE_CELLS
