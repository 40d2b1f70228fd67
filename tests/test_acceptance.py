"""Acceptance criteria, one test per criterion.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion. The correctness sweep (criterion 1) is shared by criteria
4 and 7 through a module-scoped fixture.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from deltacolor import (
    GeneratorSpec,
    advance_params,
    apply_dense_tentative,
    build_graph,
    build_schedule,
    canonical_palettes,
    count_good_colors,
    decompose,
    generate,
    init_state,
    initial_coloring_step,
    is_locally_sparse,
    run,
    structural_metrics,
    verify_coloring,
)
from deltacolor.checks import (
    decomposition_bound_failures,
    decomposition_failures,
    properness_failures,
    residual_consistency_failures,
)
from deltacolor.engine import PhaseDriver, _select_dense_tentative
from deltacolor.io import dumps_json

from conftest import copy_state, same_decomposition
from reference import brute_force_decomposition


@dataclass
class SweepConfig:
    tag: str
    spec: GeneratorSpec
    seeds: int
    k: float = 16.0
    epsilon: float | None = None
    force: bool = False
    random_palettes: bool = False


def _gs(kind: str, seed: int = 0, **params) -> GeneratorSpec:
    return GeneratorSpec(kind, params, seed=seed)


SWEEP_CONFIGS = [
    # complete graphs
    SweepConfig("complete:10", _gs("complete", n=10), seeds=12),
    SweepConfig("complete:21", _gs("complete", n=21), seeds=18),
    SweepConfig("complete:60", _gs("complete", n=60), seeds=10),
    SweepConfig("complete:150", _gs("complete", n=150), seeds=6),
    # G(n, p) over the full grid
    SweepConfig("gnp:100,0.1", _gs("gnp", n=100, p=0.1, seed=1), seeds=14),
    SweepConfig("gnp:100,0.5", _gs("gnp", n=100, p=0.5, seed=2), seeds=14),
    SweepConfig("gnp:100,0.9", _gs("gnp", n=100, p=0.9, seed=3), seeds=14),
    SweepConfig("gnp:300,0.5", _gs("gnp", n=300, p=0.5, seed=4), seeds=8),
    SweepConfig("gnp:1000,0.1", _gs("gnp", n=1000, p=0.1, seed=5), seeds=6),
    SweepConfig("gnp:1000,0.5", _gs("gnp", n=1000, p=0.5, seed=6), seeds=6),
    SweepConfig("gnp:1000,0.9", _gs("gnp", n=1000, p=0.9, seed=7), seeds=6),
    SweepConfig("gnp:3000,0.1", _gs("gnp", n=3000, p=0.1, seed=8), seeds=3),
    SweepConfig("gnp:3000,0.5", _gs("gnp", n=3000, p=0.5, seed=9), seeds=3),
    SweepConfig("gnp:3000,0.9", _gs("gnp", n=3000, p=0.9, seed=10), seeds=3),
    # clique chains
    SweepConfig("clique_chain:10x30", _gs("clique_chain", size=10, count=30), seeds=10),
    SweepConfig("clique_chain:21x8", _gs("clique_chain", size=21, count=8), seeds=12),
    SweepConfig("clique_chain:50x20", _gs("clique_chain", size=50, count=20), seeds=8),
    # bipartite (triangle-free, everything sparse)
    SweepConfig("bipartite:100,0.3", _gs("bipartite_random", n=100, p=0.3, seed=11), seeds=14),
    SweepConfig("bipartite:400,0.1", _gs("bipartite_random", n=400, p=0.1, seed=12), seeds=10),
    SweepConfig("bipartite:1000,0.05", _gs("bipartite_random", n=1000, p=0.05, seed=13), seeds=6),
    # forced main path: decomposition + initial + dense machinery in play
    SweepConfig("forced complete:150", _gs("complete", n=150), seeds=4,
                k=0.5, epsilon=0.01, force=True),
    SweepConfig("forced chain:200x5", _gs("clique_chain", size=200, count=5), seeds=8,
                k=0.5, epsilon=0.035, force=True),
    SweepConfig("forced chain:1000x2", _gs("clique_chain", size=1000, count=2), seeds=2,
                k=0.02, epsilon=0.0034, force=True),
    SweepConfig("forced gnp:1000,0.9", _gs("gnp", n=1000, p=0.9, seed=14), seeds=3,
                k=0.5, epsilon=0.15, force=True),
    # list coloring with scattered palettes
    SweepConfig("palettes gnp:200,0.3", _gs("gnp", n=200, p=0.3, seed=15), seeds=6,
                random_palettes=True),
]


@dataclass
class SweepRun:
    tag: str
    seed: int
    graph: object
    palettes: object
    report: object


@dataclass
class SweepResult:
    runs: list = field(default_factory=list)
    elapsed: float = 0.0


def _random_palettes(graph, seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    width = graph.max_degree + 1
    universe = np.arange(1, 4 * width + 1)
    return [rng.choice(universe, size=width, replace=False).tolist() for _ in range(graph.n)]


@pytest.fixture(scope="module")
def sweep() -> SweepResult:
    result = SweepResult()
    start = time.time()
    for cfg in SWEEP_CONFIGS:
        graph = generate(cfg.spec)
        palettes = _random_palettes(graph, 99) if cfg.random_palettes else canonical_palettes(graph)
        for seed in range(cfg.seeds):
            report = run(
                graph,
                palettes,
                k=cfg.k,
                seed=seed,
                epsilon=cfg.epsilon,
                force_main_path=cfg.force,
            )
            result.runs.append(SweepRun(cfg.tag, seed, graph, palettes, report))
    result.elapsed = time.time() - start
    return result


def test_criterion_01_correctness_sweep(sweep):
    """Every seeded run ends in a complete, proper, in-palette coloring."""
    assert len(sweep.runs) >= 200, f"matrix too small: {len(sweep.runs)} runs"
    bad = []
    for item in sweep.runs:
        rep = item.report
        if not rep.complete or rep.invariant_failures:
            bad.append((item.tag, item.seed, rep.invariant_failures[:2]))
            continue
        # independent re-verification, not trusting the run's own record
        coloring = {v: int(c) for v, c in enumerate(rep.coloring)}
        problems = verify_coloring(item.graph, item.palettes, coloring)
        if problems:
            bad.append((item.tag, item.seed, problems[:2]))
    assert bad == [], f"failing runs: {bad[:5]}"
    print(f"\n[acceptance] criterion 1 correctness sweep: PASS "
          f"({len(sweep.runs)} runs in {sweep.elapsed:.1f}s)")


DECOMP_GRAPH_SPECS = [
    _gs("complete", n=21),
    _gs("complete", n=60),
    _gs("complete", n=150),
    _gs("clique_chain", size=21, count=8),
    _gs("clique_chain", size=50, count=20),
    _gs("gnp", n=100, p=0.1, seed=21),
    _gs("gnp", n=100, p=0.5, seed=22),
    _gs("gnp", n=100, p=0.9, seed=23),
    _gs("gnp", n=1000, p=0.5, seed=24),
    _gs("gnp", n=1000, p=0.9, seed=25),
    _gs("gnp", n=3000, p=0.9, seed=26),
    _gs("bipartite_random", n=400, p=0.2, seed=27),
]


def test_criterion_02_decomposition_theorems():
    """Structure bounds hold exactly for eps in {0.05, 0.1, 0.19}."""
    rng = np.random.default_rng(0)
    pairs_checked = 0
    for spec in DECOMP_GRAPH_SPECS:
        graph = generate(spec)
        for eps in (0.05, 0.1, 0.19):
            decomp = decompose(graph, eps)
            metrics = structural_metrics(graph, decomp)
            assert decomposition_failures(graph, decomp) == [], (spec.kind, eps)
            assert decomposition_bound_failures(graph, decomp, metrics) == [], (spec.kind, eps)
            bound = (1 - 2 * eps) * graph.max_degree
            for clique in decomp.cliques:
                if clique.members.size < 2:
                    continue
                take = min(10, clique.members.size * (clique.members.size - 1) // 2)
                for _ in range(take):
                    x, y = rng.choice(clique.members, size=2, replace=False)
                    shared = np.intersect1d(
                        graph.neighbors(int(x)), graph.neighbors(int(y)), assume_unique=True
                    ).size
                    assert shared >= bound - 1e-9, (spec.kind, eps, int(x), int(y))
                    pairs_checked += 1
    assert pairs_checked >= 100, f"only {pairs_checked} intra-clique pairs sampled"
    print(f"\n[acceptance] criterion 2 decomposition theorems: PASS "
          f"({pairs_checked} pair samples)")


def test_criterion_03_oracle_equivalence():
    """Optimized decomposition equals the brute-force oracle exactly."""
    checked = 0
    eps_cycle = (0.05, 0.1, 0.15, 0.19)
    for seed in range(50):
        kind = seed % 5
        if kind == 0:
            spec = _gs("complete", n=20 + (seed % 7) * 10)
        elif kind == 1:
            spec = _gs("clique_chain", size=8 + seed % 20, count=3)
        elif kind == 2:
            spec = _gs("bipartite_random", n=60 + seed, p=0.3, seed=seed)
        else:
            spec = _gs("gnp", n=50 + 3 * seed, p=(0.2, 0.45, 0.7)[seed % 3], seed=seed)
        graph = generate(spec)
        assert graph.n <= 200
        eps = eps_cycle[seed % 4]
        fast, slow = decompose(graph, eps), brute_force_decomposition(graph, eps)
        assert same_decomposition(fast, slow), (seed, eps)
        checked += 1
    assert checked == 50
    print("\n[acceptance] criterion 3 oracle equivalence: PASS (50 graphs)")


def test_criterion_04_surplus_and_residual_consistency(sweep):
    """Surplus monotonicity and residual recount checked after every commit."""
    offenders = [
        (item.tag, item.seed, msg)
        for item in sweep.runs
        for msg in item.report.invariant_failures
        if "surplus" in msg or "maintained" in msg
    ]
    assert offenders == [], offenders[:5]
    commits = sum(len(item.report.steps) for item in sweep.runs)
    assert commits > 0
    print(f"\n[acceptance] criterion 4 surplus monotonicity + residual consistency: PASS "
          f"({commits} checked steps)")


def test_delta_and_full_monitors_agree_on_the_sweep(sweep, monkeypatch):
    """The sweep again, every step reporting the full check's messages:
    each step's delta monitor says the same, and each report's bytes
    equal the sweep's, whose monitor took the delta."""
    monitor = PhaseDriver._monitor
    steps = []

    def full_beside_delta(self, uncolored):
        delta = monitor(self, uncolored)
        state = self.state
        full = properness_failures(state.graph, state.committed)
        full += residual_consistency_failures(state)
        steps.append((delta, full))
        return full

    monkeypatch.setattr(PhaseDriver, "_monitor", full_beside_delta)
    for item in sweep.runs:
        cfg = next(cfg for cfg in SWEEP_CONFIGS if cfg.tag == item.tag)
        report = run(item.graph, item.palettes, k=cfg.k, seed=item.seed,
                     epsilon=cfg.epsilon, force_main_path=cfg.force)
        assert dumps_json(report.to_dict()) == dumps_json(item.report.to_dict()), (item.tag, item.seed)
    assert [delta for delta, _ in steps] == [full for _, full in steps]
    # one check per coloring step
    assert len(steps) == sum(s.kind != "decompose" for item in sweep.runs for s in item.report.steps)


def test_criterion_05_good_color_bound():
    """s0 >= |J| for every vertex over 100 seeded initial steps."""
    graph = generate(_gs("gnp", n=500, p=0.5, seed=50))
    template = init_state(graph, canonical_palettes(graph))
    violations = 0
    for seed in range(100):
        state = copy_state(template)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        initial_coloring_step(state, rng)
        diag = count_good_colors(state)
        violations += int(np.count_nonzero(diag.s0 < diag.good_counts))
    assert violations == 0
    print("\n[acceptance] criterion 5 good-color bound: PASS (100 runs, 0 violations)")


def test_criterion_06_schedule_recurrence_and_bounds():
    """Recurrence matches the closed form; gamma and growth bounds hold."""
    # closed form delta_i = 6 eps 12^i over 40 iterations (scale chosen so
    # the recurrence stays inside its domain and above underflow)
    eps, dmax = 1e-44, 1e200
    d, z = 3 * eps * dmax, dmax / 2
    for i in range(41):
        assert d / z == pytest.approx(6 * eps * 12**i, rel=1e-9)
        d, z = advance_params(d, z)

    for dmax in (math.e**4, math.e**9, math.e**16, math.e**25):
        sched = build_schedule(dmax, n=10**6, k=16.0)
        # recurrence vs closed form along the schedule's own domain
        d, z = sched.rounds[0].d, sched.rounds[0].z
        i = 0
        while d / z < 1.0 and i <= 40:
            assert d / z == pytest.approx(6 * sched.epsilon * 12**i, rel=1e-9)
            d, z = advance_params(d, z)
            i += 1
        # gamma stays a probability wherever the previous ratio allows it
        for prev, row in zip(sched.rounds, sched.rounds[1:]):
            if prev.delta <= 0.25:
                assert 0.0 <= row.gamma <= 1.0
        # growth bound on the d-sequence
        root = math.sqrt(math.log(dmax))
        for i in range(5, sched.num_dense_rounds + 1):
            if i >= len(sched.rounds):
                break
            assert sched.rounds[i].d <= 12 ** (i**2 / 2) * 10 ** (-i * root) * dmax * (1 + 1e-9)
    print("\n[acceptance] criterion 6 schedule recurrence vs closed form: PASS")


def test_criterion_07_dense_distinctness_and_palette_floor(sweep):
    """Regular dense steps satisfy the palette floor; tentative colors are
    pairwise distinct inside each clique (asserted in-step)."""
    floor_failures = [
        (item.tag, item.seed, msg)
        for item in sweep.runs
        for msg in item.report.invariant_failures
        if "palette floor" in msg or "duplicate tentative" in msg
    ]
    assert floor_failures == [], floor_failures[:5]
    dense_steps = sum(item.report.dense_steps_executed for item in sweep.runs)
    assert dense_steps >= 8, "sweep exercised too few dense steps"
    assert max(item.report.dense_steps_executed for item in sweep.runs) >= 2
    print(f"\n[acceptance] criterion 7 dense distinctness + palette floor: PASS "
          f"({dense_steps} dense steps)")


def test_criterion_08_per_vertex_failure_statistics():
    """Empirical de-coloring and non-prefix rates on a 20-clique chain.

    The chain is decomposed at eps = 0.1 (the only workable range for
    50-cliques) while the step itself runs at ratio delta = 0.04, i.e.
    gamma = 1 - 2 sqrt(delta) = 0.6.
    """
    start = time.time()
    delta = 0.04
    gamma = 1.0 - 2.0 * math.sqrt(delta)
    graph = generate(_gs("clique_chain", size=50, count=20))
    decomp = decompose(graph, 0.1)
    assert len(decomp.cliques) == 20
    template = init_state(graph, canonical_palettes(graph))

    trials = 500
    de_colored = np.zeros(graph.n, dtype=np.int64)
    bound_nonprefix = 2 * math.sqrt(delta)
    for seed in range(trials):
        state = copy_state(template)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        # the two halves of dense_coloring_step, on the same stream
        tentative, in_prefix = _select_dense_tentative(state, decomp, gamma, rng)
        apply_dense_tentative(state, decomp, tentative)
        de_colored += (tentative != 0) & (state.committed == 0)
        for clique in decomp.cliques:
            m = clique.members.size
            frac = np.count_nonzero(~in_prefix[clique.members]) / m
            assert frac <= bound_nonprefix + 1.0 / m + 1e-12
    rates = de_colored / trials
    assert rates.max() <= 2 * math.sqrt(delta), f"max de-coloring rate {rates.max():.3f}"
    elapsed = time.time() - start
    assert elapsed < 120, f"criterion 8 took {elapsed:.0f}s"
    print(f"\n[acceptance] criterion 8 per-vertex failure statistics: PASS "
          f"(max rate {rates.max():.3f} <= {2 * math.sqrt(delta):.3f}, {elapsed:.1f}s)")


def test_criterion_09_locally_sparse_equivalence():
    """Locally sparse inputs decompose to all-sparse at eps = delta/2.

    delta = 0.5 asks for eps = 0.25, outside the enforced (0, 1/5) range;
    all-sparse is monotone in eps, so the capped value 0.19 still verifies.
    """
    cases = 0
    for delta, p in ((0.2, 0.55), (0.5, 0.3)):
        eps = min(delta / 2.0, 0.19)
        for seed in range(10):
            graph = generate(_gs("locally_sparse", n=140 + 10 * seed, p=p, delta=delta, seed=seed))
            assert is_locally_sparse(graph, delta)
            decomp = decompose(graph, eps)
            assert decomp.sparse.size == graph.n, (delta, seed)
            cases += 1
    assert cases == 20
    print("\n[acceptance] criterion 9 locally-sparse equivalence: PASS (20 graphs)")


def test_criterion_10_initial_activation_rate():
    """Tentative-selection rate over 1e5 independent vertices is 1/100
    within 3 binomial standard deviations."""
    n = 100_000
    graph = build_graph([], n=n)
    state = init_state(graph, canonical_palettes(graph))
    rng = np.random.default_rng(np.random.SeedSequence(7))
    stats = initial_coloring_step(state, rng)
    tried = n - stats.initially_uncolored
    sigma = math.sqrt(n * 0.01 * 0.99)
    assert abs(tried - n * 0.01) <= 3 * sigma, f"{tried} tries vs expected {n * 0.01:.0f}"
    print(f"\n[acceptance] criterion 10 initial activation rate: PASS "
          f"({tried} tries, {abs(tried - n * 0.01) / sigma:.2f} sigma)")
