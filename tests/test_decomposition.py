import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from deltacolor import (
    GeneratorSpec,
    ValidationError,
    brute_force_decomposition,
    build_graph,
    canonical_palettes,
    classify_and_components,
    commit_colors,
    compute_friend_edges,
    decompose,
    generate,
    init_state,
    is_locally_sparse,
    structural_metrics,
)
from deltacolor import decomposition as decomposition_module
from deltacolor import graph as graph_module
from deltacolor import sharing as sharing_module
from deltacolor.checks import decomposition_bound_failures, decomposition_failures
from deltacolor.decomposition import (
    DIAMETER_EXCEEDED,
    THRESHOLD_TOL,
    Decomposition,
    decomposition_to_dict,
)
from deltacolor.sharing import edge_common_counts

from conftest import clique_beside_bipartite, mixed_main_shaped, same_decomposition


def cycle(n):
    return build_graph([(i, (i + 1) % n) for i in range(n)])


def test_k21_all_edges_are_friends():
    g = generate(GeneratorSpec("complete", {"n": 21}))
    f = compute_friend_edges(g, 0.1)
    assert f.num_edges == g.num_edges == 210


def test_c5_has_no_friend_edges():
    g = cycle(5)
    f = compute_friend_edges(g, 0.19)
    assert f.num_edges == 0


def test_friend_edges_match_brute_force_on_gnp():
    g = generate(GeneratorSpec("gnp", {"n": 200, "p": 0.5}, seed=11))
    fast = compute_friend_edges(g, 0.1)
    slow = brute_force_decomposition(g, 0.1).friend_graph
    assert np.array_equal(fast.indptr, slow.indptr)
    assert np.array_equal(fast.indices, slow.indices)


@pytest.mark.parametrize(
    "spec, eps, held",
    [
        ("gnp:300,0.3", 0.1, 0),  # no bound among 160 pairs reaches the floor
        ("gnp:400,0.5", 0.13, 3),  # 4 of 8910 pairs survive, on 3 of 127 rows
        ("clique", 0.19, 90),  # 8010 of 13108 survive, on the clique's rows; all are friends
        ("gnp:200,0.8", 0.15, None),  # survivors on 194 of 199 rows; 10 pairs are friends
        ("complete:21", 0.1, None),  # every pair survives
        # no sampled row holds a survivor, yet every pair on one side passes
        # the bound: all of them non-edges, so none survives
        ("bipartite_random:400,0.95", 0.1, 0),
    ],
)
def test_friend_edges_threshold_the_exact_counts_in_every_regime(monkeypatch, spec, eps, held):
    """``held`` is the number of rows the survivors' product covers, 0 for
    none, or None where the sampled rows send the kernel to the whole
    product."""
    if spec == "clique":
        g = clique_beside_bipartite()
    else:
        g = generate(GeneratorSpec.parse(spec, seed=1))
    threshold = (1 - eps) * g.max_degree - THRESHOLD_TOL
    friend = np.flatnonzero(edge_common_counts(g) >= threshold)
    products = []
    gram = sharing_module._gram
    monkeypatch.setattr(sharing_module, "_gram", lambda dense: products.append(dense.shape) or gram(dense))
    fast = compute_friend_edges(g, eps)
    assert np.array_equal(fast.indices, g.indices[friend])
    assert np.array_equal(fast.indptr, np.searchsorted(friend, g.indptr))
    slow = brute_force_decomposition(g, eps).friend_graph
    assert np.array_equal(fast.indptr, slow.indptr) and np.array_equal(fast.indices, slow.indices)
    if spec == "clique":
        assert fast.num_edges == 90 * 89 // 2
    k = int(np.count_nonzero(g.degrees() >= threshold))  # the kept rows
    quarter = math.ceil(g.n / 4)
    if held is None:
        assert products == [(k, g.n)]
    elif held == 0:
        assert products == [(k, quarter)]
    else:
        assert products == [(k, quarter), (held, g.n - quarter)]


def twin_in_gnp():
    """gnp:400,0.5 (seed 1) with vertex 1 made a twin of the vertex of
    largest degree, adjacent to it: the twins share every other neighbour,
    the one friend edge at eps 0.19, among 5.2e4 slots between kept rows."""
    g = generate(GeneratorSpec.parse("gnp:400,0.5", seed=1))
    top = int(np.argmax(g.degrees()))
    edges = g.edge_array()
    edges = edges[(edges != 1).all(axis=1)]
    twin = [(1, int(w)) for w in g.neighbors(top) if w != 1] + [(top, 1)]
    return build_graph(np.concatenate([edges, twin]), n=g.n)


def largest_run_read(g, keep) -> int:
    """Bytes of the largest float32 operand and product among the runs the
    dense backend reads the kept rows in: a run of every kept row over all
    n columns, any other over the columns its rows touch."""
    kept = np.flatnonzero(keep)
    far = sharing_module._farthest_partners(g, keep, kept, np.cumsum(keep) - 1)
    runs = sharing_module._runs(far).tolist()
    if runs == [[0, kept.size]]:
        return 4 * kept.size * (g.n + kept.size)
    touched = [np.unique(np.concatenate([g.neighbors(v) for v in kept[a:b]])).size for a, b in runs]
    return max(4 * (b - a) * (width + b - a) for (a, b), width in zip(runs, touched))


@pytest.mark.parametrize("branch", ["prune", "whole", "slots"])
def test_only_the_slot_path_keys_every_kept_slot(monkeypatch, branch):
    """Each branch of the friend-edge kernel, forced, finds the exact
    counts' friend edges: on a twin in G(400, 0.5), one run of every kept
    row, and on 12 planted 150-cliques with a periphery, one run per
    clique. The dense reads, pruned or whole, never key the kept slots
    (only the SpGEMM route, ``_sparse_keys``, does), and their traced
    peak stays within the largest run's operand and product plus one byte
    per kept slot, so no array holds an entry per kept slot beside them."""
    monkeypatch.setattr(graph_module, "SLOT_BLOCK", 64)
    counts = sharing_module.edge_common_counts
    for g, eps, friends in ((twin_in_gnp(), 0.19, 1), (mixed_main_shaped(size=150), 0.01, 113)):
        threshold = (1 - eps) * g.max_degree - THRESHOLD_TOL
        friend = np.flatnonzero(counts(g) >= threshold)  # the exact slot counts
        with monkeypatch.context() as mp:
            mp.setattr(sharing_module, "_dense_pays", lambda *priced: branch != "slots")
            mp.setattr(sharing_module, "_prune_pays", lambda held, sampled: branch == "prune")
            keyed = []
            keys = sharing_module._sparse_keys
            mp.setattr(sharing_module, "_sparse_keys", lambda *args: keyed.append(1) or keys(*args))
            tracemalloc.start()
            try:
                fast = compute_friend_edges(g, eps)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert np.array_equal(fast.indices, g.indices[friend])
        assert np.array_equal(fast.indptr, np.searchsorted(friend, g.indptr))
        assert fast.num_edges == friends
        assert bool(keyed) == (branch == "slots")
        if branch != "slots":
            keep = g.degrees() >= threshold
            slots = int(keep[g.indices][np.repeat(keep, g.degrees())].sum())
            assert peak < largest_run_read(g, keep) + slots, (peak, slots)
        if g.n <= 500:  # within the oracle's cap: the twin
            slow = brute_force_decomposition(g, eps).friend_graph
            assert np.array_equal(fast.indptr, slow.indptr) and np.array_equal(fast.indices, slow.indices)


def test_k21_single_clique_with_leader_zero():
    g = generate(GeneratorSpec("complete", {"n": 21}))
    d = decompose(g, 0.1)
    assert d.sparse.size == 0
    assert len(d.cliques) == 1
    assert d.cliques[0].leader == 0
    assert d.cliques[0].members.size == 21
    assert decomposition_failures(g, d) == []


def test_c5_everything_sparse():
    d = decompose(cycle(5), 0.1)
    assert d.sparse.size == 5
    assert len(d.cliques) == 0


def test_bridged_double_clique():
    g = generate(GeneratorSpec("clique_chain", {"size": 21, "count": 2}))
    assert g.max_degree == 21
    d = decompose(g, 0.1)
    assert len(d.cliques) == 2
    assert d.sparse.size == 0
    # the bridge joins vertex 20 to vertex 21 and is not a friend edge
    assert 21 not in d.friend_graph.neighbors(20)
    m = structural_metrics(g, d)
    assert m.external_degree[20] == 1
    assert m.external_degree[21] == 1
    assert all(a == 0 for a in m.anti_degree.values())
    assert m.weak_diameter == [1, 1]
    assert m.clique_size == [21, 21]


def test_epsilon_range_enforced():
    g = cycle(5)
    for bad in (0.0, 0.2, 0.5, -0.1):
        with pytest.raises(ValidationError):
            compute_friend_edges(g, bad)
        with pytest.raises(ValidationError):
            classify_and_components(g, compute_friend_edges(g, 0.1), bad)


def test_degenerate_degrees_are_sparse():
    # no triangles can exist at max degree 0 or 1
    isolated = build_graph([], n=4)
    assert decompose(isolated, 0.1).sparse.size == 4
    matching = build_graph([(0, 1), (2, 3)])
    assert decompose(matching, 0.1).sparse.size == 4


def test_structure_theorems_on_dense_gnp():
    g = generate(GeneratorSpec("gnp", {"n": 300, "p": 0.9}, seed=5))
    eps = 0.15
    d = decompose(g, eps)
    assert len(d.cliques) >= 1
    m = structural_metrics(g, d)
    assert decomposition_failures(g, d) == []
    assert decomposition_bound_failures(g, d, m) == []


def test_intra_clique_common_neighbor_bound():
    g = generate(GeneratorSpec("gnp", {"n": 300, "p": 0.9}, seed=6))
    eps = 0.15
    d = decompose(g, eps)
    rng = np.random.default_rng(1)
    bound = (1 - 2 * eps) * g.max_degree
    for clique in d.cliques:
        if clique.members.size < 2:
            continue
        for _ in range(20):
            x, y = rng.choice(clique.members, size=2, replace=False)
            shared = np.intersect1d(g.neighbors(int(x)), g.neighbors(int(y)), assume_unique=True)
            assert shared.size >= bound - 1e-9


def test_locally_sparse_graphs_decompose_all_sparse():
    # all-sparse is monotone in epsilon (smaller epsilon means fewer
    # friends), so capping delta/2 at the enforced range keeps the claim
    for delta, p in ((0.5, 0.3), (0.2, 0.55)):
        g = generate(GeneratorSpec("locally_sparse", {"n": 150, "p": p, "delta": delta}, seed=3))
        assert is_locally_sparse(g, delta)
        d = decompose(g, min(delta / 2.0, 0.19))
        assert d.sparse.size == g.n


def test_metrics_restrict_to_uncolored():
    g = generate(GeneratorSpec("clique_chain", {"size": 21, "count": 2}))
    d = decompose(g, 0.1)
    state = init_state(g, canonical_palettes(g))
    commit_colors(state, [21], [1])  # remove one bridge endpoint
    m = structural_metrics(g, d, state.committed)
    assert 21 not in m.external_degree
    assert m.external_degree[20] == 0  # its only external neighbor is colored
    assert m.clique_size == [21, 20]


@pytest.mark.parametrize(
    "committed, message",
    [
        (np.zeros(1, dtype=np.int64), r"one entry per vertex, shape \(63,\); got shape \(1,\)"),
        (np.zeros(68, dtype=np.int64), r"one entry per vertex, shape \(63,\); got shape \(68,\)"),
        (np.zeros(63) + 0.5, "committed colors must hold integers, not float64"),
    ],
)
def test_metrics_reject_a_malformed_committed_array(committed, message):
    g = generate(GeneratorSpec.parse("clique_chain:21x3"))
    with pytest.raises(ValidationError, match=message):
        structural_metrics(g, decompose(g, 0.1), committed)


def test_decomposition_export_shape():
    g = generate(GeneratorSpec("complete", {"n": 21}))
    d = decompose(g, 0.1)
    m = structural_metrics(g, d)
    doc = decomposition_to_dict(d, m)
    assert doc["epsilon"] == 0.1
    assert doc["sparse"] == []
    assert doc["cliques"][0]["leader"] == 0
    assert len(doc["cliques"][0]["members"]) == 21
    assert doc["metrics"]["weak_diameter"] == [1]


def test_weak_diameter_two_detected():
    # two triangles sharing no edge, joined through a hub: hand-build a
    # graph whose dense component has non-adjacent members at distance 2.
    g = generate(GeneratorSpec("gnp", {"n": 300, "p": 0.9}, seed=8))
    d = decompose(g, 0.19)
    m = structural_metrics(g, d)
    assert all(w <= 2 for w in m.weak_diameter)
    any_anti = any(a > 0 for a in m.anti_degree.values())
    if any_anti:
        assert max(m.weak_diameter) == 2


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=16),
    seed=st.integers(min_value=0, max_value=10_000),
    p=st.sampled_from([0.3, 0.6, 0.9]),
    eps=st.sampled_from([0.05, 0.1, 0.15, 0.19]),
)
def test_oracle_equivalence_property(n, seed, p, eps):
    g = generate(GeneratorSpec("gnp", {"n": n, "p": p}, seed=seed))
    assert same_decomposition(decompose(g, eps), brute_force_decomposition(g, eps))


def one_clique(g, members):
    """A hand-made decomposition declaring ``members`` one almost-clique."""
    membership = np.full(g.n, -1, dtype=np.int64)
    membership[members] = 0
    return Decomposition(epsilon=0.1, friend_graph=g, membership=membership)


@pytest.mark.parametrize("backend", ["dense", "sparse"])
@pytest.mark.parametrize(
    "edges, members, expected",
    [
        ([(0, 1), (1, 2), (0, 2)], [0, 1, 2], 1),
        ([(0, 1), (1, 2)], [0, 1, 2], 2),
        ([(0, 1), (1, 2), (2, 3)], [0, 1, 2, 3], DIAMETER_EXCEEDED),
        ([(0, 4), (4, 1), (1, 5), (5, 2)], [0, 1, 2], DIAMETER_EXCEEDED),
    ],
)
def test_weak_diameter_values(monkeypatch, backend, edges, members, expected):
    # force one backend of the apart-pair counts: "sparse" leaves no
    # dense read within the memory bound, so SpGEMM counts the pairs
    if backend == "sparse":
        monkeypatch.setattr(sharing_module, "_DENSE_OPERAND_ELEMENTS", 0)
    g = build_graph(edges)
    m = structural_metrics(g, one_clique(g, members))
    assert m.weak_diameter == [expected]


def test_disconnected_clique_is_reported():
    g = build_graph([(0, 1), (2, 3)])
    assert decomposition_failures(g, one_clique(g, [0, 1, 2, 3])) == [
        "almost-clique 0 is not connected under friend edges"
    ]
    assert decomposition_failures(g, one_clique(g, [0, 1])) == []


def test_clique_connectivity_ignores_paths_outside_the_clique():
    # 0-1 and 2-3 are joined only through vertex 4, which is not a member
    g = build_graph([(0, 1), (2, 3), (0, 4), (4, 2)])
    assert decomposition_failures(g, one_clique(g, [0, 1, 2, 3])) == [
        "almost-clique 0 is not connected under friend edges"
    ]


def test_apart_free_cliques_skip_the_distance_count(monkeypatch):
    # K5 on 0..4 and K5 minus the edge 5-9 on 5..9, one clique each
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(u + 5, v + 5) for u, v in edges if (u, v) != (0, 4)]
    g = build_graph(edges)
    membership = np.repeat(np.arange(2, dtype=np.int64), 5)
    d = Decomposition(epsilon=0.1, friend_graph=g, membership=membership)
    calls = []
    measure = decomposition_module._weak_diameter

    def counted(graph, members):
        calls.append(members.tolist())
        return measure(graph, members)

    monkeypatch.setattr(decomposition_module, "_weak_diameter", counted)
    assert structural_metrics(g, d).weak_diameter == [1, 2]
    assert calls == [[5, 6, 7, 8, 9]]  # only the clique with an apart pair, (5, 9)

    def refuse(*args):
        raise AssertionError("a clique with no apart pair reached the kernel")

    monkeypatch.setattr(decomposition_module, "apart_common_counts", refuse)
    complete = generate(GeneratorSpec("clique_chain", {"size": 21, "count": 3}))
    assert structural_metrics(complete, decompose(complete, 0.1)).weak_diameter == [1, 1, 1]
    # coloring 5 takes the apart pair out of the residual view; then
    # clique 0 keeps one uncolored member and clique 1 none
    committed = np.zeros(g.n, dtype=np.int64)
    committed[[0, 1, 2, 5, 6, 7]] = 1
    assert structural_metrics(g, d, committed).weak_diameter == [1, 1]
    committed[[3, 8, 9]] = 1
    assert structural_metrics(g, d, committed).weak_diameter == [0, 0]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
    p=st.sampled_from([0.5, 0.8, 0.95]),
    eps=st.sampled_from([0.1, 0.19]),
    colored=st.floats(min_value=0.0, max_value=0.6),
)
def test_weak_diameter_skip_matches_the_distance_count(n, seed, p, eps, colored):
    g = generate(GeneratorSpec("gnp", {"n": n, "p": p}, seed=seed))
    d = decompose(g, eps)
    rng = np.random.default_rng(seed)
    committed = np.where(rng.random(n) < colored, 1, 0).astype(np.int64)
    uncolored = committed == 0
    expected = []
    for clique in d.cliques:
        members = clique.members[uncolored[clique.members]]
        # at most one live member has no pair to measure: diameter 0
        expected.append(decomposition_module._weak_diameter(g, members) if members.size > 1 else 0)
    assert structural_metrics(g, d, committed).weak_diameter == expected


@pytest.mark.parametrize("graph_count, decomp_count", [(2, 3), (3, 2)])
def test_decomposition_of_another_graph_is_rejected(graph_count, decomp_count):
    g = generate(GeneratorSpec("clique_chain", {"size": 21, "count": graph_count}))
    other = generate(GeneratorSpec("clique_chain", {"size": 21, "count": decomp_count}))
    d = decompose(other, 0.1)
    match = f"^decomposition of {other.n} vertices given for {g.n} vertices$"
    with pytest.raises(ValidationError, match=match):
        decomposition_failures(g, d)
    with pytest.raises(ValidationError, match=match):
        structural_metrics(g, d)


def loop_metrics(g, d, uncolored):
    """External and anti-degrees by a per-member loop over neighbour sets."""
    external, anti = {}, {}
    for j, clique in enumerate(d.cliques):
        members = {int(v) for v in clique.members if uncolored[v]}
        for v in sorted(members):
            live = [int(w) for w in g.neighbors(v) if uncolored[w] and d.membership[w] >= 0]
            external[v] = sum(1 for w in live if d.membership[w] != j)
            anti[v] = len(members) - 1 - sum(1 for w in live if w in members)
    return external, anti


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_structural_metrics_match_per_member_loop(seed):
    # four 30-cliques, each missing a few edges, plus random extra edges
    g = generate(GeneratorSpec("clique_chain", {"size": 30, "count": 4}))
    rng = np.random.default_rng(seed)
    edges = g.edge_array()
    extra = rng.integers(0, g.n, size=(12, 2))
    edges = np.vstack((edges[rng.random(len(edges)) > 0.03], extra[extra[:, 0] != extra[:, 1]]))
    g = build_graph(edges, n=g.n)
    d = decompose(g, 0.19)
    assert len(d.cliques) >= 2
    state = init_state(g, canonical_palettes(g))
    batch = {}
    for v in rng.permutation(g.n)[: g.n // 3].tolist():
        if not batch.keys() & g.neighbor_set(v):
            batch[v] = 1 + v % (g.max_degree + 1)
    commit_colors(state, list(batch), list(batch.values()))
    uncolored = state.committed == 0
    m = structural_metrics(g, d, state.committed)
    external, anti = loop_metrics(g, d, uncolored)
    assert any(external.values()) and any(anti.values())
    assert m.external_degree == external
    assert m.anti_degree == anti
    assert list(m.external_degree) == list(external)
    assert m.clique_size == [int(uncolored[c.members].sum()) for c in d.cliques]


def test_decomposition_records_only_the_membership():
    names = [f.name for f in dataclasses.fields(Decomposition)]
    assert names == ["epsilon", "friend_graph", "membership"]
    d = decompose(generate(GeneratorSpec("clique_chain", {"size": 21, "count": 2})), 0.1)
    assert not d.membership.flags.writeable
    assert not d.cliques[0].members.flags.writeable
    with pytest.raises(ValueError):
        d.membership[0] = -1


@pytest.mark.parametrize(
    "membership, match",
    [
        ([0, 0, -1], "1-D int64 array of length 3"),
        (np.array([0, 0, -1], dtype=np.int32), "1-D int64 array of length 3"),
        (np.array([0.0, 0.0, -1.0]), "1-D int64 array of length 3"),
        (np.array([[0, 0, -1]]), "1-D int64 array of length 3"),
        (np.array([0, 0]), "1-D int64 array of length 3"),
        (np.array([0, -2, -1]), "vertex 1 is -2, not -1 .sparse. or a clique index up to 1"),
        (np.array([1, 1, -1]), "vertex 0 is 1, not -1 .sparse. or a clique index up to 0"),
        (np.array([0, 2, 1]), "vertex 1 is 2, not -1 .sparse. or a clique index up to 1"),
        (np.array([-1, 1, 0]), "vertex 1 is 1, not -1 .sparse. or a clique index up to 0"),
        (np.array([0, -1, 2]), "vertex 2 is 2, not -1 .sparse. or a clique index up to 1"),
    ],
)
def test_malformed_membership_is_rejected(membership, match):
    g = build_graph([(0, 1), (1, 2)])
    with pytest.raises(ValidationError, match=match):
        Decomposition(epsilon=0.1, friend_graph=g, membership=membership)


def leader_ordered(raw):
    """``raw`` with its nonnegative labels renumbered by first appearance."""
    index: dict[int, int] = {}
    return [index.setdefault(x, len(index)) if x >= 0 else -1 for x in raw]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=-1, max_value=5), min_size=1, max_size=40))
def test_sparse_and_cliques_are_the_groups_of_the_membership(raw):
    labels = leader_ordered(raw)
    n = len(labels)
    d = Decomposition(
        epsilon=0.1, friend_graph=build_graph([], n=n), membership=np.array(labels, dtype=np.int64)
    )
    groups = [[v for v in range(n) if labels[v] == j] for j in range(max(labels) + 1)]
    assert d.sparse.tolist() == [v for v in range(n) if labels[v] == -1]
    assert [c.members.tolist() for c in d.cliques] == groups
    assert [c.leader for c in d.cliques] == [group[0] for group in groups]
    assert d.leader_by_vertex().tolist() == [groups[j][0] if j >= 0 else -1 for j in labels]
    assert d.num_dense() == n - d.sparse.size


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=-1, max_value=3), min_size=1, max_size=12))
def test_membership_not_numbered_in_leader_order_is_rejected(raw):
    g = build_graph([], n=len(raw))
    membership = np.array(raw, dtype=np.int64)
    if leader_ordered(raw) == raw:
        assert Decomposition(epsilon=0.1, friend_graph=g, membership=membership).membership is membership
    else:
        with pytest.raises(ValidationError, match="in leader order"):
            Decomposition(epsilon=0.1, friend_graph=g, membership=membership)


def test_components_are_renumbered_by_leader(monkeypatch):
    # reversed component labels must still give cliques in leader order
    def reversed_labels(graph, directed, connection="weak"):
        count, labels = connected_components(graph, directed=directed, connection=connection)
        return count, count - 1 - labels

    monkeypatch.setattr(graph_module, "connected_components", reversed_labels)
    g = generate(GeneratorSpec("clique_chain", {"size": 21, "count": 3}))
    d = decompose(g, 0.1)
    assert [c.leader for c in d.cliques] == [0, 21, 42]
    assert same_decomposition(d, brute_force_decomposition(g, 0.1))
