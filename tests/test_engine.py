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
    apply_dense_tentative,
    apply_initial_tentative,
    build_graph,
    canonical_palettes,
    commit_colors,
    count_good_colors,
    decompose,
    dense_coloring_step,
    fallback_round,
    generate,
    init_state,
    initial_coloring_step,
    run,
)
from deltacolor.engine import (
    ROUND_COST,
    DenseStepResult,
    PhaseDriver,
    StepStats,
    _conflicted,
    _delta_pays,
    _select_dense_tentative,
    _uniform_pick,
    schedule_plan,
)
from deltacolor import engine as engine_module
from deltacolor import graph as graph_module
from deltacolor.checks import properness_failures, residual_consistency_failures
from deltacolor.graph import segment_sum
from deltacolor.io import dumps_json
from deltacolor.schedule import RoundParams, build_schedule

from conftest import copy_state


def rng_for(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


# ---------------------------------------------------------------- initial step


def test_initial_injection_path_conflict():
    g = build_graph([(0, 1), (1, 2)])
    state = init_state(g, canonical_palettes(g))
    stats = apply_initial_tentative(state, np.array([1, 1, 2]))
    assert state.committed.tolist() == [0, 0, 2]
    assert stats.colored == 1
    assert stats.de_colored == 2
    assert stats.initially_uncolored == 0


def test_initial_injection_finds_conflicts_on_the_state_graph():
    state = init_state(build_graph([(0, 1), (1, 2)]), [[1, 2, 3]] * 3)
    stats = apply_initial_tentative(state, np.array([1, 1, 0]))
    assert stats.de_colored == 2
    assert stats.colored == 0
    assert state.num_uncolored() == 3


def test_initial_injection_all_blank_is_noop():
    g = build_graph([(0, 1), (1, 2)])
    state = init_state(g, canonical_palettes(g))
    stats = apply_initial_tentative(state, np.zeros(3, dtype=np.int64))
    assert state.num_uncolored() == 3
    assert stats.colored == 0
    assert stats.initially_uncolored == 3


def test_initial_injection_rejects_foreign_color():
    g = build_graph([(0, 1)])
    state = init_state(g, canonical_palettes(g))
    with pytest.raises(ValidationError, match="palette"):
        apply_initial_tentative(state, np.array([7, 0]))


@pytest.mark.parametrize("size", [2, 4])
def test_injected_draws_need_one_entry_per_vertex(size):
    g = build_graph([(0, 1), (1, 2)])
    state = init_state(g, canonical_palettes(g))
    with pytest.raises(ValidationError) as exc:
        apply_initial_tentative(state, np.zeros(size, dtype=np.int64))
    assert str(exc.value) == "tentative array must have one entry per vertex"
    assert state.num_uncolored() == 3


def test_initial_step_requires_fresh_state():
    g = build_graph([(0, 1)])
    state = init_state(g, canonical_palettes(g))
    apply_initial_tentative(state, np.array([1, 0]))
    assert state.committed[0] == 1
    with pytest.raises(ValidationError, match="fresh"):
        initial_coloring_step(state, rng_for(1))


def test_initial_step_activation_rate_sanity():
    # 20k isolated vertices; tries should land near 1/100 (within 4 sigma)
    g = build_graph([], n=20_000)
    state = init_state(g, canonical_palettes(g))
    stats = initial_coloring_step(state, rng_for(42))
    tried = g.n - stats.initially_uncolored
    sigma = (g.n * 0.01 * 0.99) ** 0.5
    assert abs(tried - g.n * 0.01) < 4 * sigma
    # isolated vertices never conflict
    assert stats.colored == tried


# ---------------------------------------------------------------- dense steps


def single_clique_graph(n=10):
    return generate(GeneratorSpec("complete", {"n": n}))


def test_dense_step_single_clique_commits_prefix():
    g = single_clique_graph(10)
    decomp = decompose(g, 0.15)
    assert len(decomp.cliques) == 1
    state = init_state(g, canonical_palettes(g))
    result = dense_coloring_step(state, decomp, gamma=0.5, rng=rng_for(7))
    assert result.stats.colored == 5
    assert result.stats.de_colored == 0
    assert result.stats.initially_uncolored == 5
    committed = state.committed[state.committed != BLANK]
    assert np.unique(committed).size == 5  # pairwise distinct


def test_dense_step_gamma_zero_is_noop():
    g = single_clique_graph(10)
    decomp = decompose(g, 0.15)
    state = init_state(g, canonical_palettes(g))
    result = dense_coloring_step(state, decomp, gamma=0.0, rng=rng_for(7))
    assert result.stats.colored == 0
    assert result.stats.initially_uncolored == 10
    assert state.num_uncolored() == 10


def test_dense_step_gamma_validated():
    g = single_clique_graph(10)
    decomp = decompose(g, 0.15)
    state = init_state(g, canonical_palettes(g))
    for bad in (-0.1, 1.5):
        with pytest.raises(ValidationError, match="gamma"):
            dense_coloring_step(state, decomp, gamma=bad, rng=rng_for(0))


def test_dense_injection_smaller_leader_wins():
    g = generate(GeneratorSpec("clique_chain", {"size": 21, "count": 2}))
    decomp = decompose(g, 0.1)
    assert [c.leader for c in decomp.cliques] == [0, 21]
    state = init_state(g, canonical_palettes(g))
    tentative = np.zeros(g.n, dtype=np.int64)
    tentative[20] = 5  # bridge endpoint in the leader-0 clique
    tentative[21] = 5  # bridge endpoint in the leader-21 clique
    result = apply_dense_tentative(state, decomp, tentative)
    assert state.committed[20] == 5
    assert state.committed[21] == BLANK
    assert result.colored == 1
    assert result.de_colored == 1


def three_clique_chain():
    # three K30 blocks; vertex 30 bridges to 29 (left) and 60 (right)
    edges = []
    for b in range(3):
        base = 30 * b
        edges += [(base + i, base + j) for i in range(30) for j in range(i + 1, 30)]
    edges += [(29, 30), (30, 60)]
    return build_graph(edges)


def test_dense_decoloring_checks_tentative_not_committed():
    # 29 in the first clique commits; 30 loses to 29; 60 still loses to 30
    # because the rule compares tentative draws, not final commits
    g = three_clique_chain()
    decomp = decompose(g, 0.15)
    assert [c.leader for c in decomp.cliques] == [0, 30, 60]
    state = init_state(g, canonical_palettes(g))
    tentative = np.zeros(g.n, dtype=np.int64)
    tentative[29] = tentative[30] = tentative[60] = 3
    result = apply_dense_tentative(state, decomp, tentative)
    assert state.committed[29] == 3
    assert state.committed[30] == BLANK
    assert state.committed[60] == BLANK
    assert result.de_colored == 2


def test_dense_injection_rejects_a_colour_drawn_twice_in_one_clique():
    # the selection never repeats a colour inside a clique; an injected
    # repeat is a broken selection, not a conflict to resolve
    g = three_clique_chain()
    decomp = decompose(g, 0.15)
    state = init_state(g, canonical_palettes(g))
    tentative = np.zeros(g.n, dtype=np.int64)
    tentative[[31, 45]] = 7
    with pytest.raises(InvariantViolation) as exc:
        apply_dense_tentative(state, decomp, tentative)
    assert str(exc.value) == "duplicate tentative colors inside the almost-clique led by 30"
    assert state.num_uncolored() == g.n


def test_dense_injection_rejects_sparse_participant():
    g = generate(GeneratorSpec("clique_chain", {"size": 21, "count": 2}))
    decomp = decompose(g, 0.1)
    state = init_state(g, canonical_palettes(g))
    # make vertex 5 sparse artificially by restricting membership lookup
    g2 = build_graph([(0, 1), (1, 2), (2, 0), (3, 0)])
    decomp2 = decompose(g2, 0.1)
    state2 = init_state(g2, canonical_palettes(g2))
    tentative = np.zeros(g2.n, dtype=np.int64)
    tentative[3] = 1
    with pytest.raises(ValidationError, match="sparse"):
        apply_dense_tentative(state2, decomp2, tentative)
    del g, decomp, state


def test_dense_step_skips_prefix_vertex_with_exhausted_palette():
    # white-box: empty one palette row so the selection must skip it
    g = single_clique_graph(10)
    decomp = decompose(g, 0.15)
    state = init_state(g, canonical_palettes(g))
    state.palette[7, :] = False
    state.residual_palette_size[7] = 0
    tentative, in_prefix = _select_dense_tentative(state, decomp, 1.0, rng_for(3))
    assert in_prefix[7]
    assert tentative[7] == BLANK
    assert np.count_nonzero(tentative) == 9
    # the same draws through the whole step: the count is derived from them
    result = dense_coloring_step(state, decomp, gamma=1.0, rng=rng_for(3))
    assert result.stats.palette_exhausted == 1
    assert result.stats.initially_uncolored == 0
    assert result.stats.colored == 9
    assert state.committed[7] == BLANK


def test_dense_step_counts_uncolored_dense_vertices_left_out_of_the_prefix():
    # a 12-clique with a pendant (sparse) vertex 12; vertex 1 is colored
    # first, so 11 members remain and gamma 1/2 leaves ceil(5.5) = 6 in
    # the prefix: 5 are left out, and neither vertex 1 nor 12 counts
    g = build_graph([(i, j) for i in range(12) for j in range(i + 1, 12)] + [(0, 12)])
    decomp = decompose(g, 0.19)
    assert decomp.membership[12] < 0
    state = init_state(g, canonical_palettes(g))
    apply_initial_tentative(state, np.eye(1, 13, 1, dtype=np.int64)[0] * 2)
    result = dense_coloring_step(state, decomp, gamma=0.5, rng=rng_for(4))
    assert result.stats.initially_uncolored == 5
    assert int(np.count_nonzero(result.in_prefix)) == 6
    assert result.stats.palette_exhausted == 0


def test_dense_step_skips_a_clique_with_no_uncolored_member():
    # two disjoint 10-cliques, the first colored before the step: it draws
    # no prefix, and the second, drawn from its own stream, is colored whole
    g = build_graph([(i + s, j + s) for s in (0, 10) for i in range(10) for j in range(i + 1, 10)])
    decomp = decompose(g, 0.15)
    assert len(decomp.cliques) == 2
    state = init_state(g, canonical_palettes(g))
    commit_colors(state, np.arange(10), np.arange(1, 11))
    result = dense_coloring_step(state, decomp, gamma=1.0, rng=rng_for(7))
    assert not result.in_prefix[:10].any() and result.in_prefix[10:].all()
    assert result.stats.colored == 10 and state.num_uncolored() == 0


def test_palette_floor_skips_cliques_with_no_prefix_vertex():
    # under a floor no vertex meets, gamma 0 puts no vertex of any clique
    # in the prefix, so nothing is checked; gamma 1 fails once per clique
    g = generate(GeneratorSpec.parse("clique_chain:50x4"))
    unreachable = RoundParams(d=1e9, z=1.0, delta=1e9, gamma=None)
    for gamma, failures in ((0.0, 0), (1.0, 4)):
        driver = PhaseDriver(g, canonical_palettes(g), seed=1, epsilon=0.1)
        driver.decompose()
        assert len(driver.decomp.cliques) == 4
        driver.dense([gamma], [unreachable])
        assert len(driver.failures) == failures, driver.failures


def test_dense_first_pick_is_uniform():
    # gamma = 1/7 on a 7-clique: exactly one vertex picks, uniformly at
    # random from the shared palette; multinomial check within 5 sigma.
    # dense_coloring_step hands its rng straight to this selection, and a
    # lone pick cannot conflict, so the selection alone decides the color.
    g = single_clique_graph(7)
    decomp = decompose(g, 0.19)
    assert len(decomp.cliques) == 1
    state = init_state(g, canonical_palettes(g))
    trials = 100_000
    counts = np.zeros(8, dtype=np.int64)
    for seed in range(trials):
        tentative, in_prefix = _select_dense_tentative(state, decomp, 1.0 / 7.0, rng_for(seed))
        drew = tentative[tentative != BLANK]
        assert drew.size == 1 and np.count_nonzero(in_prefix) == 1
        counts[int(drew[0])] += 1
    expected = trials / 7.0
    sigma = (trials * (1 / 7) * (6 / 7)) ** 0.5
    for c in range(1, 8):
        assert abs(counts[c] - expected) < 5 * sigma


# ---------------------------------------------------------------- good colors


def test_good_color_two_neighbors_same_in_palette_color():
    g = build_graph([(0, 1), (0, 2)])  # star; leaves not adjacent
    state = init_state(g, [[1, 2, 3]] * 3)
    apply_initial_tentative(state, np.array([0, 1, 1]))
    assert state.committed.tolist() == [0, 1, 1]
    diag = count_good_colors(state)
    assert diag.good_counts[0] == 1  # color 1 appears twice and is in Pal(0)
    assert diag.s0[0] >= diag.good_counts[0]
    assert diag.s0[0] == 2  # q0 = 2, d0 = 0


def test_good_color_single_out_of_palette_neighbor():
    g = build_graph([(0, 1)])
    state = init_state(g, [[2, 3], [1, 2]])
    apply_initial_tentative(state, np.array([0, 1]))
    diag = count_good_colors(state)
    assert diag.good_counts[0] == 1  # color 1 not in Pal(0), one occurrence
    assert diag.s0[0] == 2  # palette intact, degree dropped to 0


def test_good_color_no_commits_leaves_surplus():
    g = build_graph([(0, 1), (1, 2)])
    state = init_state(g, canonical_palettes(g))
    pre = copy_state(state)
    apply_initial_tentative(state, np.zeros(3, dtype=np.int64))
    diag = count_good_colors(state)
    assert np.all(diag.good_counts == 0)
    assert np.array_equal(diag.s0, pre.surplus())


def test_good_color_bound_statistical():
    g = generate(GeneratorSpec("gnp", {"n": 200, "p": 0.4}, seed=9))
    template = init_state(g, canonical_palettes(g))
    for seed in range(20):
        state = copy_state(template)
        initial_coloring_step(state, rng_for(seed))
        diag = count_good_colors(state)
        assert np.all(diag.s0 >= diag.good_counts)


# ------------------------------------------------------------------- fallback


def test_fallback_single_vertex_one_round():
    driver = PhaseDriver(build_graph([], n=1), [[5]])
    driver.fallback()
    assert driver.state.committed.tolist() == [5]
    assert [s.kind for s in driver.steps] == ["fallback"]
    assert driver.failures == []


def test_fallback_k2_terminates():
    driver = PhaseDriver(build_graph([(0, 1)]), [[1, 2], [1, 2]], seed=3)
    driver.fallback()
    state = driver.state
    assert state.num_uncolored() == 0
    assert driver.failures == []
    assert state.committed[0] != state.committed[1]


def test_fallback_on_colored_graph_is_noop():
    driver = PhaseDriver(build_graph([(0, 1)]), [[1, 2], [1, 2]], seed=3)
    driver.fallback()
    steps = len(driver.steps)
    driver.fallback()
    assert len(driver.steps) == steps
    assert driver.failures == []


def test_fallback_exhaustion_reported():
    driver = PhaseDriver(build_graph([(0, 1)]), [[1, 2], [1, 2]], seed=3, max_fallback_iters=0)
    driver.fallback()
    assert driver.failures == ["fallback exhausted after 0 rounds with 2 vertices uncolored"]
    assert driver.state.num_uncolored() == 2
    with pytest.raises(ValidationError, match="max_fallback_iters"):
        PhaseDriver(build_graph([(0, 1)]), [[1, 2], [1, 2]], max_fallback_iters=-1)


@pytest.mark.parametrize(
    "decomposed, eligible, label",
    [
        (False, None, "fallback"),
        (True, [True, False, True], "fallback (sparse phase)"),
        (True, None, "fallback (residual phase)"),
    ],
)
def test_fallback_exhaustion_names_its_pass(decomposed, eligible, label):
    g = build_graph([(0, 1), (1, 2)])
    driver = PhaseDriver(g, canonical_palettes(g), epsilon=0.1, max_fallback_iters=0)
    if decomposed:
        driver.decompose()
    driver.fallback(None if eligible is None else np.array(eligible))
    assert driver.failures == [f"{label} exhausted after 0 rounds with 3 vertices uncolored"]


def test_fallback_respects_eligibility_mask():
    g = build_graph([(0, 1), (1, 2)])
    driver = PhaseDriver(g, canonical_palettes(g), seed=5)
    driver.fallback(eligible=np.array([True, False, True]))
    committed = driver.state.committed
    assert committed[1] == BLANK
    assert committed[0] != BLANK and committed[2] != BLANK
    assert driver.failures == []


def test_driver_dense_needs_the_decomposition():
    g = single_clique_graph(7)
    driver = PhaseDriver(g, canonical_palettes(g), epsilon=0.19)
    with pytest.raises(ValidationError, match=r"call decompose\(\) first"):
        driver.dense([0.5])
    assert driver.steps == []


@pytest.mark.parametrize(
    "eligible",
    [
        np.ones(2, dtype=bool),
        np.ones((3, 1), dtype=bool),
        np.ones(3),
        np.array([False]),  # would broadcast to no vertex
        np.array([True]),  # would broadcast to every vertex
        np.ones(3, dtype=np.int64),
    ],
)
def test_driver_fallback_rejects_a_mask_of_another_shape_or_dtype(eligible):
    g = build_graph([(0, 1), (1, 2)])
    driver = PhaseDriver(g, canonical_palettes(g))
    with pytest.raises(ValidationError, match=r"boolean mask of shape \(3,\)"):
        driver.fallback(eligible)
    assert driver.steps == []
    # the exported step function takes the same check, before any pick
    state = init_state(g, canonical_palettes(g))
    with pytest.raises(ValidationError, match=r"boolean mask of shape \(3,\)"):
        fallback_round(state, np.random.default_rng(1), eligible)
    assert np.all(state.committed == BLANK)


def test_driver_rejects_a_decomposition_of_another_graph_or_epsilon():
    g = generate(GeneratorSpec.parse("clique_chain:50x4"))
    palettes = canonical_palettes(g)
    other = generate(GeneratorSpec.parse("clique_chain:50x3"))
    for decomp, match in (
        (decompose(other, 0.1), "of 150 vertices at epsilon 0.1 given for 200 vertices"),
        (decompose(g, 0.05), "of 200 vertices at epsilon 0.05 given for 200 vertices"),
    ):
        with pytest.raises(ValidationError, match=match):
            PhaseDriver(g, palettes, epsilon=0.1, decomp=decomp)


def test_driver_adopts_a_precomputed_decomposition(monkeypatch):
    import deltacolor.engine

    g = generate(GeneratorSpec.parse("clique_chain:50x4"))
    decomp = decompose(g, 0.1)
    monkeypatch.setattr(deltacolor.engine, "decompose", None)
    driver = PhaseDriver(g, canonical_palettes(g), epsilon=0.1, decomp=decomp)
    driver.decompose()
    assert driver.decomp is decomp
    assert [s.kind for s in driver.steps] == ["decompose"]


@pytest.mark.parametrize("gammas, rows, match", [
    ([0.6, 0.6], 1, "got 1 rows for 2 gammas"),
    ([0.6], 2, "got 2 rows for 1 gammas"),
    ([0.6, 1.5], None, r"gamma must lie in \[0, 1\], got 1.5"),
    ([0.6, -0.1], 2, r"gamma must lie in \[0, 1\], got -0.1"),
    ([0.6, "0.5"], None, "gamma must be a real number, got '0.5'"),
    ([0.6, True], None, "gamma must be a real number, got True"),
])
def test_driver_checks_the_whole_dense_plan_before_the_first_step(gammas, rows, match):
    g = generate(GeneratorSpec.parse("clique_chain:50x4"))
    driver, fresh = (PhaseDriver(g, canonical_palettes(g), seed=1, epsilon=0.1) for _ in range(2))
    driver.decompose()
    fresh.decompose()
    bounds = None if rows is None else [driver.schedule.rounds[0]] * rows
    with pytest.raises(ValidationError, match=match):
        driver.dense(gammas, bounds)
    assert [s.kind for s in driver.steps] == ["decompose"]
    for name in ("committed", "palette", "residual_palette_size", "residual_degree"):
        assert np.array_equal(getattr(driver.state, name), getattr(fresh.state, name)), name
    # no stream was drawn either: the next step matches a fresh driver's
    driver.dense([0.6])
    fresh.dense([0.6])
    assert np.array_equal(driver.state.committed, fresh.state.committed)


# ------------------------------------------------------------- step records


def _clique_with_tail():
    """K_20 on 0..19 (dense at epsilon 0.1) and the path 0-20-21-22 (sparse)."""
    edges = [(u, v) for u in range(20) for v in range(u + 1, 20)]
    return build_graph(edges + [(0, 20), (20, 21), (21, 22)])


def test_step_surplus_covers_every_uncolored_vertex_before_decompose():
    g = _clique_with_tail()
    driver = PhaseDriver(g, canonical_palettes(g), epsilon=0.1)
    driver.fallback(np.arange(g.n) == 22)
    (stats,) = driver.steps
    # vertex 0 has 21 colours and 20 uncolored neighbours
    surplus = driver.state.surplus()[:22]
    assert (stats.surplus_min, stats.surplus_mean) == (1, float(surplus.mean()))


def test_step_surplus_covers_only_uncolored_sparse_vertices_after_decompose():
    g = _clique_with_tail()
    driver = PhaseDriver(g, canonical_palettes(g), epsilon=0.1)
    driver.decompose()
    assert driver.decomp.sparse.tolist() == [20, 21, 22]
    driver.fallback(np.arange(g.n) == 22)
    # 20 keeps 21 colours and 2 uncolored neighbours; 21 loses 22's colour and 22
    assert (driver.steps[-1].surplus_min, driver.steps[-1].surplus_mean) == (19, 19.0)


def test_step_surplus_is_none_when_no_tracked_vertex_is_left():
    g = _clique_with_tail()
    driver = PhaseDriver(g, canonical_palettes(g), epsilon=0.1)
    driver.fallback()
    last = driver.steps[-1]
    assert (last.surplus_min, last.surplus_mean) == (None, None)
    # after decompose(), the clique's uncolored members are not tracked
    driver = PhaseDriver(g, canonical_palettes(g), epsilon=0.1)
    driver.decompose()
    driver.fallback(driver.decomp.membership < 0)
    assert driver.state.num_uncolored() == 20
    last = driver.steps[-1]
    assert (last.surplus_min, last.surplus_mean) == (None, None)


@pytest.mark.parametrize("kind", sorted(ROUND_COST))
def test_step_rounds_follow_the_kind(kind):
    assert StepStats(kind).rounds == ROUND_COST[kind]
    with pytest.raises(TypeError):
        StepStats(kind, rounds=1)


def test_rounds_used_is_the_sum_over_the_steps():
    g = generate(GeneratorSpec("clique_chain", {"size": 200, "count": 5}))
    report = run(g, canonical_palettes(g), k=0.5, seed=3, epsilon=0.035, force_main_path=True)
    assert {s.kind for s in report.steps} == set(ROUND_COST)
    assert report.rounds_used == sum(ROUND_COST[s.kind] for s in report.steps)


# ----------------------------------------------------------------------- run


def test_run_triangle():
    g = build_graph([(0, 1), (1, 2), (0, 2)])
    report = run(g, canonical_palettes(g), seed=1)
    assert report.complete
    assert report.invariant_failures == []
    assert report.rounds_used >= 1
    assert sorted(report.coloring.tolist()) == [1, 2, 3]


def test_run_cycle_uses_fallback_path():
    g = build_graph([(i, (i + 1) % 5) for i in range(5)])
    report = run(g, canonical_palettes(g), k=16.0, seed=2)
    assert not report.main_path
    assert report.dense_steps_executed == 0
    assert report.complete
    assert all(s.kind == "fallback" for s in report.steps)
    assert set(report.coloring.tolist()) <= {1, 2, 3}


def test_run_medium_gnp_clean():
    g = generate(GeneratorSpec("gnp", {"n": 2000, "p": 0.5}, seed=12))
    report = run(g, canonical_palettes(g), k=16.0, seed=12)
    assert report.complete
    assert report.invariant_failures == []
    assert sum(s.colored for s in report.steps) == g.n


def test_run_forced_main_path_executes_dense_steps():
    g = generate(GeneratorSpec("clique_chain", {"size": 200, "count": 5}))
    report = run(g, canonical_palettes(g), k=0.5, seed=3, epsilon=0.035, force_main_path=True)
    assert report.forced_main_path
    assert report.dense_steps_executed == 1
    assert report.complete
    assert report.invariant_failures == []
    kinds = [s.kind for s in report.steps]
    assert kinds[:3] == ["decompose", "initial", "dense"]
    assert report.good_color is not None
    assert np.all(report.good_color.s0 >= report.good_color.good_counts)


def test_driver_reports_the_main_path_it_was_built_to_force():
    g = generate(GeneratorSpec("clique_chain", {"size": 200, "count": 5}))
    driver = PhaseDriver(g, canonical_palettes(g), k=0.5, seed=3, epsilon=0.035, force_main_path=True)
    driver.full()
    report = driver.report()
    assert not report.main_path
    assert report.forced_main_path
    assert report.to_dict()["forced_main_path"] is True
    assert [s.kind for s in report.steps][:2] == ["decompose", "initial"]


def test_run_gamma_turns_negative_skips_dense_steps():
    # ratio 6*eps > 1/4 keeps gamma negative: regular round, no dense step
    g = generate(GeneratorSpec("gnp", {"n": 400, "p": 0.9}, seed=4))
    report = run(g, canonical_palettes(g), k=0.5, seed=4, epsilon=0.15, force_main_path=True)
    assert report.dense_steps_executed == 0
    assert report.complete
    assert report.invariant_failures == []


def test_run_reports_fallback_exhaustion():
    g = build_graph([(0, 1)])
    report = run(g, [[1, 2], [1, 2]], seed=0, max_fallback_iters=0)
    assert not report.complete
    assert any("exhausted" in msg for msg in report.invariant_failures)


def test_run_rejects_negative_seed():
    g = build_graph([(0, 1)])
    with pytest.raises(ValidationError, match="seed"):
        run(g, [[1, 2], [1, 2]], seed=-1)


@pytest.mark.parametrize(
    "option, message",
    [
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": "3"}, "seed must be an integer, got '3'"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"max_fallback_iters": 2.5}, "max_fallback_iters must be an integer, got 2.5"),
        ({"max_fallback_iters": True}, "max_fallback_iters must be an integer, got True"),
        ({"epsilon": "0.1"}, "epsilon override must be a real number, got '0.1'"),
        ({"epsilon": True}, "epsilon override must be a real number, got True"),
        ({"k": "16"}, "K must be a real number, got '16'"),
        ({"k": np.bool_(True)}, f"K must be a real number, got {np.bool_(True)!r}"),
        ({"force_main_path": "no"}, "force_main_path must be a bool, got 'no'"),
        ({"force_main_path": 0.0}, "force_main_path must be a bool, got 0.0"),
    ],
)
def test_run_rejects_scalar_options_that_are_not_numbers(option, message):
    g = build_graph([(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValidationError) as err:
        run(g, canonical_palettes(g), **option)
    assert str(err.value) == message


def test_run_reads_a_numpy_integer_seed_as_that_int():
    g = build_graph([(0, 1), (1, 2), (0, 2)])
    report = run(g, canonical_palettes(g), seed=np.int64(3))
    assert type(report.seed) is int
    assert dumps_json(report.to_dict()) == dumps_json(run(g, canonical_palettes(g), seed=3).to_dict())


def test_run_reads_a_numpy_bool_force_main_path_as_that_bool():
    g = generate(GeneratorSpec.parse("clique_chain:21x3"))
    report = run(g, canonical_palettes(g), seed=1, epsilon=0.1, force_main_path=np.bool_(True))
    assert report.to_dict()["forced_main_path"] is True
    forced = run(g, canonical_palettes(g), seed=1, epsilon=0.1, force_main_path=True)
    assert dumps_json(report.to_dict()) == dumps_json(forced.to_dict())


def test_run_is_reproducible():
    g = generate(GeneratorSpec("gnp", {"n": 300, "p": 0.3}, seed=6))
    a = run(g, canonical_palettes(g), seed=77)
    b = run(g, canonical_palettes(g), seed=77)
    assert np.array_equal(a.coloring, b.coloring)
    assert a.rounds_used == b.rounds_used
    c = run(g, canonical_palettes(g), seed=78)
    assert not np.array_equal(a.coloring, c.coloring)


def test_run_report_dict_schema():
    g = build_graph([(0, 1), (1, 2), (0, 2)])
    report = run(g, canonical_palettes(g), seed=1)
    doc = report.to_dict()
    for key in ("seed", "n", "delta", "epsilon", "K", "main_path", "rounds_used",
                "steps", "invariant_failures", "schedule", "coloring"):
        assert key in doc
    assert doc["coloring"]["0"] in (1, 2, 3)
    assert all("kind" in s for s in doc["steps"])


def test_run_list_coloring_respects_palettes():
    # disjoint-ish palettes drawn from a wide universe
    g = generate(GeneratorSpec("gnp", {"n": 60, "p": 0.4}, seed=2))
    rng = np.random.default_rng(5)
    universe = np.arange(1, 4 * (g.max_degree + 1))
    palettes = [rng.choice(universe, size=g.max_degree + 1, replace=False).tolist() for _ in range(g.n)]
    report = run(g, palettes, seed=9)
    assert report.complete
    assert report.invariant_failures == []
    for v in range(g.n):
        assert int(report.coloring[v]) in set(palettes[v])


def test_driver_checks_palette_floor_only_with_schedule_bounds():
    from deltacolor.engine import PhaseDriver

    g = generate(GeneratorSpec.parse("clique_chain:50x4"))
    tight = RoundParams(d=1e3, z=2e3, delta=0.5, gamma=None)
    for bounds, flagged in ((None, False), ([tight], True)):
        driver = PhaseDriver(g, canonical_palettes(g), seed=1, epsilon=0.1)
        driver.decompose()
        driver.dense([0.6], bounds)
        failures = driver.report().invariant_failures
        assert any("palette floor violated" in msg for msg in failures) is flagged



@pytest.mark.parametrize("margin, flagged", [(1.0, True), (0.0, False)])
def test_palette_floor_takes_the_prefix_from_q(margin, flagged):
    # three prefix vertices of one clique, Q = Δ + 1 each: a floor ``margin``
    # above Q - L fails them, one at Q - L passes, and Q + L would clear both
    g = generate(GeneratorSpec.parse("clique_chain:50x4"))
    driver = PhaseDriver(g, canonical_palettes(g), seed=1, epsilon=0.1)
    driver.decompose()
    in_prefix = np.zeros(g.n, dtype=bool)
    in_prefix[driver.decomp.cliques[0].members[:3]] = True
    q_pre = driver.state.residual_palette_size.copy()
    q = int(q_pre[driver.decomp.cliques[0].members[0]])
    d = q - 3 + margin - 0.5  # floor = sqrt(z d) + d = d + 0.5
    driver._check_palette_floor(DenseStepResult(StepStats("dense"), in_prefix), q_pre,
                                RoundParams(d=d, z=0.25 / d, delta=0.0, gamma=None), 1)
    assert any("palette floor violated" in msg for msg in driver.failures) is flagged


def test_schedule_plan_stops_at_the_end_of_the_table():
    # Δ = 50 at ε = 1e-5: two dense rows, both with a positive gamma
    sched = build_schedule(50, 100, epsilon=1e-5)
    assert len(sched.rounds) == 3 and all(r.gamma > 0 for r in sched.rounds[1:])
    gammas, bounds = schedule_plan(sched, count=len(sched.rounds) + 2)
    assert gammas == [r.gamma for r in sched.rounds[1:]]
    assert bounds == list(sched.rounds[:-1])


def test_forced_main_path_runs_on_a_perfect_matching():
    # max degree 1: the main path's phases run, though no dense step is planned
    g = build_graph([(2 * i, 2 * i + 1) for i in range(10)], n=20)
    report = run(g, canonical_palettes(g), seed=1, epsilon=0.1, force_main_path=True)
    assert [s.kind for s in report.steps[:2]] == ["decompose", "initial"]
    assert schedule_plan(report.schedule) == ([], [])
    assert report.invariant_failures == []


# ------------------------------------------- array kernels vs per-vertex loops


def test_vector_integers_draw_the_scalar_stream():
    # _uniform_pick draws every index with one rng.integers(0, sizes); the
    # seeded reports stay byte-identical only while that consumes the
    # generator exactly as one scalar rng.integers(size) per vertex does
    sizes = np.array([1, 2, 3, 4, 5, 7, 8, 16, 17, 31, 32, 33, 64, 1, 1, 100, 128,
                      255, 256, 1000, 1024, 1601, 2048, 4096, 1, 65536])
    for seed in range(5):
        vector, scalar = rng_for(seed), rng_for(seed)
        drawn = vector.integers(0, sizes)
        assert drawn.tolist() == [int(scalar.integers(int(s))) for s in sizes]
        assert vector.random() == scalar.random()


@st.composite
def palette_rows(draw):
    """1-12 nonempty residual palette rows over 1-40 colour columns."""
    width = draw(st.integers(1, 40))
    row = st.lists(st.booleans(), min_size=width, max_size=width).filter(any)
    return draw(st.lists(row, min_size=1, max_size=12))


@settings(max_examples=80, deadline=None)
@given(
    rows=palette_rows(),
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from([None, 1, 3, 64]),
)
def test_uniform_pick_matches_the_scalar_loop(rows, seed, block):
    width = len(rows[0])
    g = build_graph([], n=len(rows))
    state = init_state(g, [list(range(1, width + 1))] * len(rows))
    state.palette[:] = np.array(rows)
    # colour values apart from column numbers, so a mix-up shows
    state.color_values = np.cumsum(np.arange(2, width + 2))
    vertices = np.arange(len(rows))
    vector, scalar = rng_for(seed), rng_for(seed)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(graph_module, "SLOT_BLOCK", block)
        picked = _uniform_pick(state, vertices, vector)
    expected = []
    for v in vertices:
        choices = np.flatnonzero(state.palette[v])
        expected.append(int(state.color_values[choices[int(scalar.integers(choices.size))]]))
    assert picked.tolist() == expected
    assert vector.random() == scalar.random()


def test_uniform_pick_memory_follows_the_cell_block(monkeypatch):
    # 2000 vertices over 600 colours: a |vertices| x colours int32 matrix
    # takes 4.8 MB; blocks of 2**12 cells keep the pick far below it
    monkeypatch.setattr(graph_module, "SLOT_BLOCK", 2**12)
    n, width = 2000, 600
    state = init_state(build_graph([], n=n), [range(1, width + 1)] * n)
    state.palette[:, ::3] = False
    tracemalloc.start()
    try:
        picked = _uniform_pick(state, np.arange(n), rng_for(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(picked % 3 != 1)
    assert peak < n * width * 4 // 8


def test_uniform_pick_names_the_first_empty_palette():
    g = build_graph([], n=4)
    state = init_state(g, [[1]] * 4)
    state.palette[[1, 3]] = False
    with pytest.raises(InvariantViolation, match="vertex 1 has an empty residual palette"):
        _uniform_pick(state, np.arange(4), rng_for(0))


def reference_good_counts(graph, pre, post):
    """Per-vertex good-colour count: one np.unique per vertex."""
    good = np.zeros(graph.n, dtype=np.int64)
    for v in range(graph.n):
        cc = post.committed[graph.neighbors(v)]
        cc = cc[cc != BLANK]
        if cc.size:
            uniq, cnt = np.unique(cc, return_counts=True)
            in_pal = pre.palette[v, np.searchsorted(post.color_values, uniq)]
            good[v] = np.count_nonzero(cnt >= 1 + in_pal)
    return good


@pytest.mark.parametrize("seed", range(6))
def test_good_counts_match_per_vertex_reference(seed):
    g = generate(GeneratorSpec("gnp", {"n": 80, "p": 0.2}, seed=seed))
    need = g.max_degree + 1
    rng = np.random.default_rng(seed)
    palettes = [sorted(rng.choice(np.arange(1, need + 4), size=need, replace=False).tolist())
                for _ in range(g.n)]
    state = init_state(g, palettes)
    pre = copy_state(state)
    # a dense tentative draw, so neighbours share colours often
    tentative = np.array([rng.choice(p) if rng.random() < 0.5 else 0 for p in palettes])
    apply_initial_tentative(state, tentative)
    diag = count_good_colors(state)
    assert diag.good_counts.tolist() == reference_good_counts(g, pre, state).tolist()
    assert diag.good_counts.any()


def test_dense_de_coloring_matches_per_candidate_reference():
    g = generate(GeneratorSpec("clique_chain", {"size": 12, "count": 4}, seed=1))
    decomp = decompose(g, 0.19)
    leader_of = decomp.leader_by_vertex()
    rng = np.random.default_rng(5)
    for _ in range(20):
        tentative = np.zeros(g.n, dtype=np.int64)
        for clique in decomp.cliques:
            chosen = clique.members[rng.random(clique.members.size) < 0.7]
            tentative[chosen] = rng.choice(np.arange(1, 6), size=chosen.size, replace=False) \
                if chosen.size <= 5 else rng.permutation(g.max_degree + 1)[: chosen.size] + 1
        expected = []
        for v in np.flatnonzero(tentative):
            nb = g.neighbors(v)
            clash = (tentative[nb] == tentative[v]) & (leader_of[nb] >= 0) & (leader_of[nb] < leader_of[v])
            expected.append(bool(clash.any()))
        winners = np.flatnonzero(tentative)[~np.array(expected, dtype=bool)]
        # the dense resolve scans candidate rows in slot blocks, as the other steps do
        for block in (None, 1, 3, 64):
            state = init_state(g, canonical_palettes(g))
            with pytest.MonkeyPatch.context() as mp:
                if block is not None:
                    mp.setattr(graph_module, "SLOT_BLOCK", block)
                result = apply_dense_tentative(state, decomp, tentative)
            assert result.de_colored == sum(expected)
            assert np.flatnonzero(state.committed).tolist() == winners.tolist()


def test_dense_injection_names_the_first_bad_vertex():
    # a 12-clique with a pendant (sparse) vertex 12 hanging off vertex 0
    g = build_graph([(i, j) for i in range(12) for j in range(i + 1, 12)] + [(0, 12)])
    decomp = decompose(g, 0.19)
    assert decomp.membership[12] < 0 and np.all(decomp.membership[:12] == 0)
    state = init_state(g, canonical_palettes(g))
    apply_initial_tentative(state, np.eye(1, 13, 1, dtype=np.int64)[0] * 2)
    for picks, message in (
        ({0: 99, 1: 3, 12: 1}, "injected color 99 is not in the palette of vertex 0"),
        ({1: 3, 12: 1}, "vertex 1 is already colored"),
        ({12: 1, 2: 2}, "injected color 2 is not in the palette of vertex 2"),
        ({12: 1}, "sparse vertex 12"),
    ):
        tentative = np.zeros(g.n, dtype=np.int64)
        tentative[list(picks)] = list(picks.values())
        with pytest.raises(ValidationError, match=message):
            apply_dense_tentative(state, decomp, tentative)


def test_initial_injection_rejects_a_colored_vertex():
    g = build_graph([(0, 1), (1, 2)])
    state = init_state(g, canonical_palettes(g))
    apply_initial_tentative(state, np.array([0, 2, 0]))
    with pytest.raises(ValidationError, match="vertex 1 is already colored"):
        apply_initial_tentative(state, np.array([0, 3, 0]))
    assert state.committed.tolist() == [0, 2, 0]


def test_initial_injection_names_the_first_foreign_color():
    g = build_graph([(0, 1), (1, 2)])
    state = init_state(g, [[1, 2, 3], [1, 2, 4], [2, 3, 5]])
    with pytest.raises(ValidationError, match="injected color 3 is not in the palette of vertex 1"):
        apply_initial_tentative(state, np.array([0, 3, 1]))


@pytest.mark.parametrize(
    "tentative", [np.array([1.7, 0.0, 0.0]), np.array([1, 0, 2], dtype=bool), [True, 0, 0], [0, np.False_, 2]]
)
def test_initial_injection_rejects_non_integer_colors(tentative):
    g = build_graph([(0, 1), (1, 2)])
    state = init_state(g, canonical_palettes(g))
    with pytest.raises(ValidationError, match="tentative colors must hold integers"):
        apply_initial_tentative(state, tentative)
    assert state.num_uncolored() == 3


def test_dense_injection_rejects_non_integer_colors():
    g = generate(GeneratorSpec("clique_chain", {"size": 21, "count": 2}))
    decomp = decompose(g, 0.1)
    state = init_state(g, canonical_palettes(g))
    tentative = np.zeros(g.n)
    tentative[0] = 5.9
    with pytest.raises(ValidationError, match="tentative colors must hold integers, not float64"):
        apply_dense_tentative(state, decomp, tentative)
    assert state.num_uncolored() == g.n


def full_slot_conflicted(graph, tentative, rank=None):
    """The conflict check over every CSR slot, blank rows included; with
    ``rank``, only a neighbor of strictly smaller rank counts."""
    own = np.repeat(tentative, graph.degrees())
    eq = (own == tentative[graph.indices]) & (own != BLANK)
    if rank is not None:
        eq &= rank[graph.indices] < np.repeat(rank, graph.degrees())
    return segment_sum(eq, graph.indptr) > 0


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=14),
    raw=st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=50),
    colors=st.lists(st.integers(0, 4), min_size=14, max_size=14),
    blank=st.lists(st.booleans(), min_size=14, max_size=14),
    block=st.sampled_from([None, 1, 3, 64]),
    ranks=st.none() | st.lists(st.integers(-1, 2), min_size=14, max_size=14),
    pairs_pay=st.sampled_from([None, True, False]),
)
def test_live_row_conflicts_match_the_full_slot_scan(n, raw, colors, blank, block, ranks, pairs_pay):
    # few colours, so neighbours clash often; blank rows are never scanned;
    # small slot blocks spread the rows over many blocks; few ranks, so
    # equal ranks (which never conflict) occur often; pairs_pay True looks
    # every same-colour pair up, False scans the rows whenever any pair
    g = build_graph([(u % n, v % n) for u, v in raw if u % n != v % n], n=n)
    tentative = np.where(blank[:n], BLANK, colors[:n]).astype(np.int64)
    rank = None if ranks is None else np.array(ranks[:n], dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(graph_module, "SLOT_BLOCK", block)
        if pairs_pay is not None:
            mp.setattr(graph_module, "_pairs_pay", lambda pairs, slots: pairs_pay)
        assert np.array_equal(
            _conflicted(g, tentative, rank), full_slot_conflicted(g, tentative, rank)
        )


# ------------------------------------------------------------ delta monitor


def test_the_delta_recount_pays_below_half_the_uncolored_slots():
    assert not _delta_pays(5, 10)
    assert _delta_pays(5, 11)
    assert not _delta_pays(0, 0)


def test_the_delta_recount_finds_a_touched_row_whose_q_and_d_held(monkeypatch):
    # step 2's commit leaves one live neighbour of a batch vertex as it
    # was, so that row's maintained Q and d still equal the snapshot: only
    # the delta's scan of the new rows puts it among the rows recounted
    g = generate(GeneratorSpec.parse("gnp:60,0.3", seed=1))
    commit, calls, skipped = engine_module.commit_colors, [], []

    def commit_and_skip(state, vertices, colors):
        calls.append(vertices)
        before = copy_state(state)
        commit(state, vertices, colors)
        if len(calls) == 2:
            v = next(int(w) for u in vertices for w in g.neighbors(u) if state.committed[w] == BLANK)
            for name in ("residual_degree", "residual_palette_size", "palette"):
                getattr(state, name)[v] = getattr(before, name)[v]
            skipped.append(v)

    recounted = []
    recount = engine_module.residual_consistency_failures

    def recording(state, rows=None):
        recounted.append(rows)
        return recount(state, rows)

    monkeypatch.setattr(engine_module, "commit_colors", commit_and_skip)
    monkeypatch.setattr(engine_module, "residual_consistency_failures", recording)
    monkeypatch.setattr(engine_module, "_delta_pays", lambda new_slots, uncolored_slots: True)
    driver = PhaseDriver(g, canonical_palettes(g), seed=1, max_fallback_iters=2)
    driver.fallback()
    expected = [f"step 2 (fallback): {msg}" for msg in recount(driver.state)]
    assert expected and skipped
    assert driver.failures[:-1] == expected
    assert driver.failures[-1].startswith("fallback exhausted after 2 rounds")
    # step 1 full, step 2 the delta over the scanned rows, then the full
    assert [rows is None for rows in recounted] == [True, False, True]
    assert skipped[0] in recounted[1]


def test_a_recoloured_vertex_sends_the_check_to_the_full_path(monkeypatch):
    # between steps 1 and 2, vertex 0 takes the colour of its one
    # neighbour 1. Neither is new at step 2 and 0 has no uncolored
    # neighbour, so only the snapshot compare sees the change; the scan
    # path is forced, since a pair lookup would find the edge anyway
    g = build_graph([(0, 1)] + [(u, v) for u in range(2, 10) for v in range(u + 1, 10)])
    rounds = engine_module.fallback_round
    recoloured = []

    def recolour_then_round(state, rng, eligible=None):
        if state.num_uncolored() < g.n:
            assert state.committed[0] and state.committed[1] and not recoloured
            state.committed[0] = state.committed[1]
            recoloured.append(int(state.committed[1]))
        return rounds(state, rng, eligible)

    monkeypatch.setattr(engine_module, "fallback_round", recolour_then_round)
    monkeypatch.setattr(graph_module, "PAIR_SLOTS", 10**9)
    driver = PhaseDriver(g, canonical_palettes(g), seed=2, max_fallback_iters=2)
    driver.fallback()
    state = driver.state
    full = properness_failures(g, state.committed) + residual_consistency_failures(state)
    assert full == [f"edge (0, 1) is monochromatic with color {recoloured[0]}"]
    assert state.num_uncolored()
    assert driver.failures[:-1] == [f"step 2 (fallback): {msg}" for msg in full]


@pytest.mark.parametrize("field, change", [("residual_palette_size", 1), ("residual_degree", -1)])
def test_the_delta_recount_takes_a_row_whose_q_or_d_moved(monkeypatch, field, change):
    # vertices 0 and 1 are never eligible, so no step colours a neighbour
    # of theirs; between steps 1 and 2 vertex 0's maintained Q or d moves
    # (its surplus rises), and only that move puts it among the rows recounted
    g = build_graph([(0, 1)] + [(u, v) for u in range(2, 14) for v in range(u + 1, 14)])
    rounds = engine_module.fallback_round

    def tamper_then_round(state, rng, eligible=None):
        if state.num_uncolored() < g.n:
            getattr(state, field)[0] += change
        return rounds(state, rng, eligible)

    monkeypatch.setattr(engine_module, "fallback_round", tamper_then_round)
    monkeypatch.setattr(engine_module, "_delta_pays", lambda new_slots, uncolored_slots: True)
    driver = PhaseDriver(g, canonical_palettes(g), seed=1, max_fallback_iters=2)
    driver.fallback(eligible=np.arange(g.n) >= 2)
    expected = [f"step 2 (fallback): {msg}" for msg in residual_consistency_failures(driver.state)]
    assert len(driver.steps) == 2 and len(expected) == 1
    assert driver.failures[: len(expected)] == expected
