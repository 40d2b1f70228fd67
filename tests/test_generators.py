import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltacolor import (
    GenerationError,
    GeneratorSpec,
    ValidationError,
    brute_force_decomposition,
    build_graph,
    decompose,
    generate,
    is_locally_sparse,
    neighborhood_edge_counts,
)
from deltacolor import generators

from conftest import same_decomposition


def test_spec_parse_forms():
    assert GeneratorSpec.parse("complete:21").params == {"n": 21}
    assert GeneratorSpec.parse("gnp:100,0.5").params == {"n": 100, "p": 0.5}
    assert GeneratorSpec.parse("clique_chain:21x8").params == {"size": 21, "count": 8}
    assert GeneratorSpec.parse("bipartite_random:100,0.3").params == {"n": 100, "p": 0.3}
    assert GeneratorSpec.parse("locally_sparse:200,0.5,0.3").params == {
        "n": 200, "p": 0.5, "delta": 0.3,
    }


def test_spec_parse_rejects_garbage():
    for bad in ("complete", "complete:x", "gnp:100", "wat:1", "clique_chain:3,4"):
        with pytest.raises(ValidationError):
            GeneratorSpec.parse(bad)


@pytest.mark.parametrize("kind, params, seed, match", [
    ("complete", {"n": 2.7}, 0, "'n' must be int"),
    ("complete", {"n": True}, 0, "'n' must be int"),
    ("gnp", {"n": "x", "p": 0.5}, 0, "'n' must be int"),
    ("gnp", {"n": 5}, 0, "missing field: 'p'"),
    ("complete", {"n": 5, "p": 0.5}, 0, "no parameter 'p'"),
    ("complete", {"n": 5}, -1, "seed must be nonnegative"),
    ("complete", {"n": 5}, "s", "'seed' must be int"),
])
def test_spec_constructor_checks_parameters(kind, params, seed, match):
    # checked before generate() can truncate 2.7 or fail on a missing key
    with pytest.raises(ValidationError, match=match):
        GeneratorSpec(kind, params, seed=seed)
    assert GeneratorSpec("gnp", {"n": np.int64(5), "p": 1}).params["p"] == 1


def test_spec_dict_roundtrip():
    spec = GeneratorSpec.parse("gnp:50,0.2", seed=9)
    again = GeneratorSpec.from_dict(spec.to_dict())
    assert again == spec


def test_complete_graph():
    g = generate(GeneratorSpec("complete", {"n": 21}))
    assert g.n == 21
    assert g.max_degree == 20
    assert g.num_edges == 210


def test_clique_chain_shape():
    g = generate(GeneratorSpec("clique_chain", {"size": 21, "count": 8}))
    assert g.n == 21 * 8
    assert g.max_degree == 21
    # bridges: last of block j to first of block j+1
    for j in range(7):
        assert 21 * (j + 1) in g.neighbors(21 * j + 20)
    assert g.num_edges == 8 * 210 + 7


def test_bipartite_is_triangle_free():
    g = generate(GeneratorSpec("bipartite_random", {"n": 100, "p": 0.3}, seed=4))
    assert np.all(neighborhood_edge_counts(g) == 0)
    # zero common neighbors across any edge: everything is sparse
    d = decompose(g, 0.19)
    assert d.sparse.size == g.n


def test_gnp_determinism():
    spec = GeneratorSpec("gnp", {"n": 80, "p": 0.4}, seed=123)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a.indices, b.indices)
    c = generate(GeneratorSpec("gnp", {"n": 80, "p": 0.4}, seed=124))
    assert not np.array_equal(a.indices, c.indices)


def triu_gnp_keys(n, p, rng):
    """G(n, p) edge keys u * n + v by one draw over every ``np.triu_indices`` pair."""
    rows, cols = np.triu_indices(n, k=1)
    keep = rng.random(rows.size) < p
    return (rows[keep] * n + cols[keep]).astype(np.int64)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=120),
    p=st.sampled_from([0.01, 0.3, 0.5, 0.97]),
    seed=st.integers(0, 2**32),
)
def test_row_chunked_gnp_draws_match_the_triu_formula(n, p, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    keys = generators._gnp_edges(n, p, rng)
    expected = triu_gnp_keys(n, p, ref_rng)
    assert keys.dtype == expected.dtype and np.array_equal(keys, expected)
    # both consumed the same stream, so later draws agree as well
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("kind, params", [
    ("complete", {"n": 2**40}),
    ("clique_chain", {"size": 2**20, "count": 2**20}),
    ("clique_chain", {"size": 3, "count": 2**40}),
    ("bipartite_random", {"n": 2**40, "p": 0.5}),
])
def test_quadratic_generators_reject_pair_counts_before_allocating(kind, params):
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=f"{kind} would allocate .* over the limit"):
            generate(GeneratorSpec(kind, params))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _no_draw(*args):
    raise AssertionError("the scale check must come before the first draw")


@pytest.mark.parametrize("kind, params", [
    ("gnp", {"n": 2000, "p": 0.5}),
    ("locally_sparse", {"n": 2000, "p": 0.5, "delta": 0.3}),
])
def test_gnp_kinds_reject_expected_edges_before_drawing(monkeypatch, kind, params):
    # about 10**6 expected edges, over a lowered limit of 2**16
    monkeypatch.setattr(generators, "_MAX_PAIRS", 2**16)
    monkeypatch.setattr(generators, "_gnp_edges", _no_draw)
    with pytest.raises(ValidationError, match=f"{kind} would draw about 999500 edges, over the limit 65536"):
        generate(GeneratorSpec(kind, params))


@pytest.mark.parametrize("kind, params", [
    ("gnp", {"n": 2**28 + 1, "p": 1e-12}),
    ("locally_sparse", {"n": 2**28 + 1, "p": 1e-12, "delta": 0.3}),
])
def test_gnp_kinds_reject_vertex_counts_before_drawing(monkeypatch, kind, params):
    monkeypatch.setattr(generators, "_gnp_edges", _no_draw)
    with pytest.raises(ValidationError, match=f"{kind} needs n <= 268435456, got 268435457"):
        generate(GeneratorSpec(kind, params))


def test_sparse_gnp_within_the_limits_still_draws(monkeypatch):
    # 2 * 10**5 expected edges pass; the draw itself is stubbed, as it takes seconds
    drawn = []

    def record(n, p, rng):
        drawn.append((n, p))
        return np.zeros(0, dtype=np.int64)

    monkeypatch.setattr(generators, "_gnp_edges", record)
    assert generate(GeneratorSpec("gnp", {"n": 40000, "p": 0.00025})).n == 40000
    assert drawn == [(40000, 0.00025)]


def test_locally_sparse_output_satisfies_predicate():
    g = generate(GeneratorSpec("locally_sparse", {"n": 120, "p": 0.4, "delta": 0.4}, seed=2))
    assert is_locally_sparse(g, 0.4)


def test_locally_sparse_infeasible_params_fail():
    with pytest.raises(GenerationError):
        generate(GeneratorSpec("locally_sparse", {"n": 60, "p": 0.95, "delta": 0.9}, seed=0))


def test_generator_parameter_validation():
    with pytest.raises(ValidationError):
        generate(GeneratorSpec("gnp", {"n": 10, "p": 1.5}))
    with pytest.raises(ValidationError):
        generate(GeneratorSpec("complete", {"n": 0}))
    with pytest.raises(ValidationError):
        GeneratorSpec("nonsense", {})


def test_neighborhood_edge_counts_k4():
    g = generate(GeneratorSpec("complete", {"n": 4}))
    assert neighborhood_edge_counts(g).tolist() == [3, 3, 3, 3]


def test_neighborhood_edge_counts_match_recount():
    g = generate(GeneratorSpec("gnp", {"n": 100, "p": 0.5}, seed=31))
    counts = neighborhood_edge_counts(g)
    for v in range(g.n):
        nb = set(int(w) for w in g.neighbors(v))
        manual = sum(
            1
            for x in nb
            for y in g.neighbors(x)
            if int(y) in nb and x < int(y)
        )
        assert counts[v] == manual


def test_brute_force_guard():
    g = generate(GeneratorSpec("gnp", {"n": 501, "p": 0.01}, seed=0))
    with pytest.raises(ValidationError, match="capped"):
        brute_force_decomposition(g, 0.1)


def test_brute_force_matches_on_fixed_gnp():
    g = generate(GeneratorSpec("gnp", {"n": 150, "p": 0.6}, seed=17))
    assert same_decomposition(decompose(g, 0.12), brute_force_decomposition(g, 0.12))


def test_brute_force_joins_friends_whose_least_member_comes_last():
    # K17 without the edges 0-1 and 0-2 at epsilon 0.19: every edge left is
    # a friend edge, but 1 and 2 are not 0's friends, so the oracle's
    # union-find hangs 2 under 1 before 1 under 0, then shortens 2 -> 1 -> 0
    g = build_graph([e for e in itertools.combinations(range(17), 2) if e not in {(0, 1), (0, 2)}])
    slow = brute_force_decomposition(g, 0.19)
    assert slow.membership.tolist() == [0] * 17 and slow.friend_graph.num_edges == 134
    assert same_decomposition(decompose(g, 0.19), slow)


def test_brute_force_matches_on_structured_graphs():
    for spec in (
        GeneratorSpec("complete", {"n": 21}),
        GeneratorSpec("clique_chain", {"size": 10, "count": 4}),
        GeneratorSpec("bipartite_random", {"n": 60, "p": 0.2}, seed=5),
    ):
        g = generate(spec)
        for eps in (0.05, 0.19):
            assert same_decomposition(decompose(g, eps), brute_force_decomposition(g, eps))
