"""The randomized coloring engine.

Phases, in order, for a full run:

1. decompose the graph into sparse vertices and almost-cliques
2. initial coloring step: every vertex stays blank with probability
   99/100, otherwise tries a uniform palette color; a vertex keeps its
   try only if no neighbor drew the same color
3. dense coloring steps: each almost-clique draws a random permutation
   of its uncolored members; the first ceil(M * gamma) members pick
   tentative colors uniformly from their residual palette minus earlier
   picks in the same clique; a member keeps its pick unless some dense
   neighbor in a clique with a smaller leader ID picked the same color
4. fallback trial rounds (uniform pick, keep unless an uncolored
   neighbor picked the same color) for sparse vertices, then for
   whatever remains

The engine simulates at the information level: each clique's leader is
assumed to know its members' full state, so permutations and picks are
computed centrally. Round accounting charges each step the fixed cost
of its kind in ``ROUND_COST`` (3 for the decomposition's distance-3
topology gathering, 2 for the initial step, 5 per dense step, 2 per
fallback round); the costs only affect reporting, never correctness.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from . import graph as graph_module
from .checks import (
    coloring_failures,
    properness_failures,
    residual_consistency_failures,
)
from .decomposition import Decomposition, decompose
from .errors import InvariantViolation, ValidationError
from .graph import BLANK, Graph, as_int64, first_non_integer
from .schedule import (
    ACTIVATION_PROB,
    DEFAULT_K,
    RoundParams,
    ScheduleParams,
    build_schedule,
    is_real,
)
from .state import ColoringState, commit_colors, init_state, recompute_residuals

DEFAULT_MAX_FALLBACK_ITERS = 500

# LOCAL rounds charged to one step of each kind.
ROUND_COST = {"decompose": 3, "initial": 2, "dense": 5, "fallback": 2}

# ceil() guard against float products landing epsilon above an integer.
_CEIL_TOL = 1e-12


@dataclass
class StepStats:
    """Per-step accounting for run reports.

    ``de_colored`` counts vertices that drew a non-blank tentative color
    but lost it to a conflict. For dense steps ``initially_uncolored``
    counts clique members left outside the permutation prefix; for the
    initial step it counts blank draws. ``palette_exhausted`` counts
    prefix vertices skipped because earlier picks consumed their whole
    residual palette (impossible while the regularity conditions hold).
    ``rounds`` is the step's ``ROUND_COST``, set by its ``kind``.
    """

    kind: str
    colored: int = 0
    de_colored: int = 0
    initially_uncolored: int = 0
    palette_exhausted: int = 0
    surplus_min: int | None = None
    surplus_mean: float | None = None
    rounds: int = field(init=False)

    def __post_init__(self) -> None:
        self.rounds = ROUND_COST[self.kind]

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class GoodColorDiag:
    """Good-color diagnostic after the initial step.

    A color c is good for v when its count among committed neighbors is
    at least 1 + [c in Pal(v)]: one such neighbor outside the palette
    frees a degree, two sharing an in-palette color free two degrees for
    one palette entry. Either way the surplus grows, so
    s0 >= good_counts holds pointwise with certainty.

    s0 is the post-initial-step surplus Q - d, recounted for every vertex
    regardless of its own commit status. The calibration assumes
    palettes of size exactly max_degree + 1; ``oversized_palettes``
    flags inputs where that is not the case.
    """

    good_counts: np.ndarray
    s0: np.ndarray
    oversized_palettes: bool


@dataclass(eq=False)
class DenseStepResult:
    stats: StepStats
    in_prefix: np.ndarray  # this step's permutation prefix, incl. exhausted palettes


@dataclass(eq=False)
class RunReport:
    seed: int
    n: int
    delta: int
    epsilon: float
    k: float
    main_path: bool
    forced_main_path: bool
    rounds_used: int
    steps: list[StepStats]
    schedule: ScheduleParams
    invariant_failures: list[str]
    coloring: np.ndarray
    dense_steps_executed: int
    good_color: GoodColorDiag | None = None

    @property
    def complete(self) -> bool:
        return bool(np.all(self.coloring != BLANK))

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n": self.n,
            "delta": self.delta,
            "epsilon": self.epsilon,
            "K": self.k,
            "main_path": self.main_path,
            "forced_main_path": self.forced_main_path,
            "rounds_used": self.rounds_used,
            "dense_steps_executed": self.dense_steps_executed,
            "complete": self.complete,
            "steps": [s.to_dict() for s in self.steps],
            "invariant_failures": list(self.invariant_failures),
            "schedule": self.schedule.to_dict(),
            "coloring": dict(zip(map(str, range(self.n)), self.coloring.tolist())),
        }


def _ceil_frac(x: float) -> int:
    return int(math.ceil(x - _CEIL_TOL))


def _check_gamma(gamma: float) -> None:
    if not is_real(gamma):
        raise ValidationError(f"gamma must be a real number, got {gamma!r}")
    if not 0.0 <= gamma <= 1.0:
        raise ValidationError(f"gamma must lie in [0, 1], got {gamma}")


def _conflicted(
    graph: Graph, tentative: np.ndarray, rank: np.ndarray | None = None
) -> np.ndarray:
    """True where some neighbor holds the same non-blank tentative color
    and, when ``rank`` is given, a strictly smaller rank: the
    :meth:`~deltacolor.graph.Graph.same_color_edges` of the drawn
    vertices, then the rank rule. A blank vertex is never conflicted."""
    u, v = graph.same_color_edges(tentative, np.flatnonzero(tentative != BLANK))
    if rank is not None:
        u = u[rank[v] < rank[u]]
    conflicted = np.zeros(graph.n, dtype=bool)
    conflicted[u] = True
    return conflicted


def _resolve(
    state: ColoringState, tentative: np.ndarray, kind: str, rank: np.ndarray | None = None
) -> StepStats:
    """The end of every coloring step: commit each drawn color that is not
    :func:`_conflicted` on ``state.graph`` and return the step's record
    with its colored and de-colored counts."""
    conflicted = _conflicted(state.graph, tentative, rank)
    winners = np.flatnonzero((tentative != BLANK) & ~conflicted)
    commit_colors(state, winners, tentative[winners])
    return StepStats(
        kind, colored=int(winners.size), de_colored=int(np.count_nonzero(conflicted))
    )


def _uniform_pick(
    state: ColoringState, vertices: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draws, one per vertex: a uniform residual-palette color for each of
    the ascending ``vertices``, blank for every other vertex.

    One draw ``rng.integers(0, sizes)`` consumes the generator exactly as
    one scalar ``rng.integers(size)`` per vertex, in order, would.
    """
    tentative = np.zeros(state.graph.n, dtype=np.int64)
    if vertices.size == 0:
        return tentative
    # Blocks of at most SLOT_BLOCK palette cells (a wider row is a block
    # of its own), so no temporary grows with |vertices| x colours.
    width = state.num_colors
    step = max(1, graph_module.SLOT_BLOCK // width)
    blocks = [slice(start, start + step) for start in range(0, vertices.size, step)]
    sizes = np.concatenate(
        [np.count_nonzero(state.palette[vertices[block]], axis=1) for block in blocks]
    )
    if not sizes.all():
        v = int(vertices[np.argmin(sizes)])
        raise InvariantViolation(f"vertex {v} has an empty residual palette")
    k = rng.integers(0, sizes)
    for block in blocks:
        # the k-th set cell of a row sits k cells after the row's first one
        cells = np.flatnonzero(state.palette[vertices[block]])
        k[block] += np.cumsum(sizes[block]) - sizes[block]
        tentative[vertices[block]] = state.color_values[cells[k[block]] % width]
    return tentative


def _checked_draws(
    state: ColoringState, tentative: np.ndarray, membership: np.ndarray | None = None
) -> np.ndarray:
    """Injected draws as int64, one per vertex; each vertex that drew must be
    uncolored, dense (given ``membership``) and in palette, or the first
    bad vertex is named."""
    tentative = as_int64(tentative, "tentative colors")
    if tentative.shape != (state.graph.n,):
        raise ValidationError("tentative array must have one entry per vertex")
    drawn = np.flatnonzero(tentative != BLANK)
    ok = (state.committed[drawn] == BLANK) & state.in_residual_palette(drawn, tentative[drawn])
    if membership is not None:
        ok &= membership[drawn] >= 0
    if not ok.all():
        v = int(drawn[np.argmin(ok)])
        if membership is not None and membership[v] < 0:
            raise ValidationError(f"sparse vertex {v} cannot participate in a dense step")
        if state.committed[v] != BLANK:
            raise ValidationError(f"vertex {v} is already colored")
        raise ValidationError(
            f"injected color {int(tentative[v])} is not in the palette of vertex {v}"
        )
    return tentative


def apply_initial_tentative(state: ColoringState, tentative: np.ndarray) -> StepStats:
    """Conflict resolution and commit for given initial-step draws.

    A vertex commits its tentative color iff the color is non-blank and
    no neighbor (of any kind) drew the same one; conflicts de-color both
    sides. Split out from the random draw so tests can inject colors.
    """
    tentative = _checked_draws(state, tentative)
    stats = _resolve(state, tentative, "initial")
    stats.initially_uncolored = int(np.count_nonzero(tentative == BLANK))
    return stats


def initial_coloring_step(state: ColoringState, rng: np.random.Generator) -> StepStats:
    """One synchronous initial coloring step on a fresh state.

    Each vertex independently stays blank with probability 99/100 and
    otherwise draws uniformly from its palette; non-conflicting draws
    are committed.
    """
    if np.any(state.committed != BLANK):
        raise ValidationError("initial coloring step requires a fresh state")
    active = np.flatnonzero(rng.random(state.graph.n) < ACTIVATION_PROB)
    return apply_initial_tentative(state, _uniform_pick(state, active, rng))


def count_good_colors(state: ColoringState) -> GoodColorDiag:
    """Good-color diagnostic after the initial step, against the original palettes."""
    graph = state.graph
    width = state.num_colors
    # one (vertex, color column) key per slot of a committed neighbor
    columns = state.color_columns(state.committed)[graph.indices]
    held = columns < width
    keys = (graph.slot_owners() * width)[held] + columns[held]
    pairs, counts = np.unique(keys, return_counts=True)
    v, c = np.divmod(pairs, width)
    good = np.bincount(v[counts >= 1 + state.original_palette[v, c]], minlength=graph.n)

    q0, d0 = recompute_residuals(state)
    return GoodColorDiag(
        good_counts=good,
        s0=q0 - d0,
        oversized_palettes=state.has_oversized_palettes,
    )


def _select_dense_tentative(
    state: ColoringState,
    decomp: Decomposition,
    gamma: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Leader-simulated selection phase of one dense step.

    Returns (tentative, in_prefix); a prefix vertex whose palette earlier
    picks exhausted stays blank. Each clique gets its own RNG stream
    spawned from ``rng`` so per-clique work is reproducible and could run
    in parallel.
    """
    n = state.graph.n
    tentative = np.zeros(n, dtype=np.int64)
    in_prefix = np.zeros(n, dtype=bool)

    streams = rng.spawn(len(decomp.cliques))
    for clique, stream in zip(decomp.cliques, streams):
        residual = clique.members[state.committed[clique.members] == BLANK]
        m = residual.size
        if m == 0:
            continue
        perm = stream.permutation(residual)
        prefix_len = min(m, _ceil_frac(m * gamma))
        used = np.zeros(state.num_colors, dtype=bool)
        for v in perm[:prefix_len]:
            v = int(v)
            in_prefix[v] = True
            avail = state.palette[v] & ~used
            choices = np.flatnonzero(avail)
            if choices.size == 0:
                continue
            idx = int(choices[int(stream.integers(choices.size))])
            used[idx] = True
            tentative[v] = int(state.color_values[idx])
    return tentative, in_prefix


def apply_dense_tentative(
    state: ColoringState, decomp: Decomposition, tentative: np.ndarray
) -> StepStats:
    """Conflict resolution and commit for given dense-step draws.

    A vertex is de-colored iff some dense neighbor in a clique with a
    strictly smaller leader ID drew the same tentative color; the check
    runs against tentative colors, so a vertex that itself loses to a
    third clique still de-colors its larger-leader neighbors. Sparse
    neighbors never de-color anyone: only dense candidates draw. Intra-
    clique tentative colors are asserted pairwise distinct (the
    selection rule forces this).
    """
    tentative = _checked_draws(state, tentative, decomp.membership)
    for clique in decomp.cliques:
        vals = tentative[clique.members]
        vals = vals[vals != BLANK]
        if np.unique(vals).size != vals.size:
            raise InvariantViolation(
                f"duplicate tentative colors inside the almost-clique led by {clique.leader}"
            )

    return _resolve(state, tentative, "dense", decomp.leader_by_vertex())


def dense_coloring_step(
    state: ColoringState,
    decomp: Decomposition,
    gamma: float,
    rng: np.random.Generator,
) -> DenseStepResult:
    """One dense coloring step over all almost-cliques.

    ``gamma`` in [0, 1] sets the prefix fraction: in each clique only the
    first ceil(M * gamma) members of a fresh random permutation of the M
    uncolored members try a color this step.
    """
    _check_gamma(gamma)
    tentative, in_prefix = _select_dense_tentative(state, decomp, gamma, rng)
    left_out = np.count_nonzero((decomp.membership >= 0) & state.uncolored_mask() & ~in_prefix)
    stats = apply_dense_tentative(state, decomp, tentative)
    stats.initially_uncolored = int(left_out)
    stats.palette_exhausted = int(np.count_nonzero(in_prefix & (tentative == BLANK)))
    return DenseStepResult(stats=stats, in_prefix=in_prefix)


def fallback_round(
    state: ColoringState, rng: np.random.Generator, eligible: np.ndarray | None = None
) -> StepStats:
    """One trial round: uniform pick from the residual palette, keep it
    unless an uncolored neighbor picked the same color. Only ``eligible``
    vertices (a boolean mask; all when None) pick."""
    mask = state.committed == BLANK
    if eligible is not None:
        mask &= _eligible_mask(eligible, state.graph.n)
    return _resolve(state, _uniform_pick(state, np.flatnonzero(mask), rng), "fallback")


def _eligible_mask(eligible, n: int) -> np.ndarray:
    """``eligible`` as a boolean mask over the n vertices, or a
    :class:`ValidationError` naming its dtype and shape."""
    eligible = np.asarray(eligible)
    if eligible.dtype != bool or eligible.shape != (n,):
        raise ValidationError(
            f"eligible must be a boolean mask of shape ({n},), "
            f"got {eligible.dtype} of shape {eligible.shape}"
        )
    return eligible


class PhaseDriver:
    """One run's state, RNG root, invariant monitor and step ledger.

    Each phase method runs one phase of the pipeline and checks the
    invariants after every commit. :meth:`full` composes all of them; the
    CLI's step modes select some. Every phase draws its own stream from
    the root, so a phase's randomness depends only on the seed and on
    the phases run before it. Call :meth:`report` once, at the end.

    ``decomp``, when given, is this graph's decomposition at the
    schedule's epsilon, computed earlier (the decomposition draws no
    randomness, so every run of a graph can share one);
    :meth:`decompose` then adopts it instead of recomputing it.
    ``force_main_path`` and ``max_fallback_iters`` are the run options
    of :meth:`full` and :meth:`fallback`. ``palettes`` are taken as
    :func:`~deltacolor.state.init_state` takes them: a
    :class:`~deltacolor.palettes.PaletteTable` is used as it is, so runs
    that share one convert their palettes once.
    """

    def __init__(
        self,
        graph: Graph,
        palettes: Sequence[Sequence[int]],
        k: float = DEFAULT_K,
        seed: int = 0,
        epsilon: float | None = None,
        decomp: Decomposition | None = None,
        force_main_path: bool = False,
        max_fallback_iters: int = DEFAULT_MAX_FALLBACK_ITERS,
    ):
        for name, value in (("seed", seed), ("max_fallback_iters", max_fallback_iters)):
            if first_non_integer([value]) is not None:
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValidationError(f"{name} must be nonnegative")
        if not isinstance(force_main_path, (bool, np.bool_)):
            raise ValidationError(f"force_main_path must be a bool, got {force_main_path!r}")
        self.seed = int(seed)
        self.force_main_path = bool(force_main_path)
        self.max_fallback_iters = int(max_fallback_iters)
        self.state = init_state(graph, palettes)
        self.schedule = build_schedule(max(graph.max_degree, 1), graph.n, k, epsilon=epsilon)
        if decomp is not None and (decomp.membership.size, decomp.epsilon) != (
            graph.n, self.schedule.epsilon
        ):
            raise ValidationError(
                f"decomposition of {decomp.membership.size} vertices at epsilon {decomp.epsilon} "
                f"given for {graph.n} vertices at epsilon {self.schedule.epsilon}"
            )
        self._decomp = decomp
        self.failures: list[str] = []
        self.steps: list[StepStats] = []
        self.decomp: Decomposition | None = None
        self.good: GoodColorDiag | None = None
        self._root = np.random.default_rng(np.random.SeedSequence(self.seed))
        self._require_complete = False
        self._prev_surplus = self.state.surplus()
        self._prev_uncolored = self.state.uncolored_mask()

    def _stream(self) -> np.random.Generator:
        return self._root.spawn(1)[0]

    def _finish_step(self, stats: StepStats) -> None:
        """Record a committed step, with the surplus min/mean over the
        uncolored sparse vertices (all uncolored vertices before
        :meth:`decompose`), and run the per-commit checks."""
        state = self.state
        surplus = state.surplus()
        uncolored = state.uncolored_mask()
        tracked = uncolored if self.decomp is None else uncolored & (self.decomp.membership < 0)
        if tracked.any():
            stats.surplus_min = int(surplus[tracked].min())
            stats.surplus_mean = float(surplus[tracked].mean())
        self.steps.append(stats)
        tag = f"step {len(self.steps)} ({stats.kind})"
        drop = uncolored & self._prev_uncolored & (surplus < self._prev_surplus)
        if np.any(drop):
            v = int(np.flatnonzero(drop)[0])
            self.failures.append(f"{tag}: surplus of uncolored vertex {v} decreased")
        self.failures.extend(f"{tag}: {msg}" for msg in properness_failures(state.graph, state.committed))
        self.failures.extend(f"{tag}: {msg}" for msg in residual_consistency_failures(state))
        self._prev_surplus = surplus
        self._prev_uncolored = uncolored

    def decompose(self) -> None:
        """Split the graph into sparse vertices and almost-cliques."""
        if self._decomp is None:
            self._decomp = decompose(self.state.graph, self.schedule.epsilon)
        self.decomp = self._decomp
        self.steps.append(StepStats("decompose"))

    def initial(self) -> None:
        """The initial step, then the good-color bound s0 >= |J|."""
        self._finish_step(initial_coloring_step(self.state, self._stream()))
        good = self.good = count_good_colors(self.state)
        if np.any(good.s0 < good.good_counts):
            v = int(np.flatnonzero(good.s0 < good.good_counts)[0])
            self.failures.append(
                f"good-color bound violated at vertex {v}: s0={int(good.s0[v])} < |J|={int(good.good_counts[v])}"
            )

    def dense(self, gammas: Sequence[float], bounds: Sequence[RoundParams] | None = None) -> None:
        """One dense step per gamma, after :meth:`decompose`.

        ``bounds[i]`` is the schedule row (D, Z) that step i + 1 starts
        from; with it, each prefix vertex is checked against the palette
        floor. Steps driven by a hand-picked gamma carry no bounds. The
        whole plan is checked before the first step: every gamma must lie
        in [0, 1] and ``bounds``, when given, must hold one row per gamma.
        """
        if self.decomp is None:
            raise ValidationError("dense steps need the decomposition: call decompose() first")
        for gamma in gammas:
            _check_gamma(gamma)
        if bounds is not None and len(bounds) != len(gammas):
            raise ValidationError(
                f"a dense plan needs one bound row per gamma, got {len(bounds)} rows "
                f"for {len(gammas)} gammas"
            )
        for i, gamma in enumerate(gammas, start=1):
            # the palette floor check is the only reader of Q before the step
            q_pre = None if bounds is None else self.state.residual_palette_size.copy()
            result = dense_coloring_step(self.state, self.decomp, gamma, self._stream())
            self._finish_step(result.stats)
            if bounds is not None:
                self._check_palette_floor(result, q_pre, bounds[i - 1], i)

    def fallback(self, eligible: np.ndarray | None = None) -> None:
        """Trial rounds until every ``eligible`` vertex (all when None) is
        colored. After :meth:`decompose`, the exhaustion message names the
        sparse pass (``eligible`` given) or the residual pass.

        Surplus at least 1 keeps every residual palette non-empty, so the
        loop ends with probability 1; ``max_fallback_iters`` bounds the
        worst case and exhaustion is recorded as a failure, never swallowed.
        """
        n = self.state.graph.n
        if eligible is not None:
            eligible = _eligible_mask(eligible, n)
        rng = self._stream()
        self._require_complete |= eligible is None
        todo = np.ones(n, dtype=bool) if eligible is None else eligible
        rounds = 0
        while np.any(todo & self.state.uncolored_mask()):
            if rounds == self.max_fallback_iters:
                phase = "residual" if eligible is None else "sparse"
                name = "fallback" if self.decomp is None else f"fallback ({phase} phase)"
                self.failures.append(
                    f"{name} exhausted after {rounds} rounds "
                    f"with {self.state.num_uncolored()} vertices uncolored"
                )
                return
            self._finish_step(fallback_round(self.state, rng, eligible))
            rounds += 1

    def full(self) -> None:
        """Every phase, in order, when the activation gate holds (or
        ``force_main_path`` overrides it); otherwise the whole graph goes
        straight to the fallback."""
        if (self.schedule.main_path or self.force_main_path) and self.state.graph.max_degree >= 1:
            self.decompose()
            self.initial()
            self.dense(*schedule_plan(self.schedule))
            self.fallback(eligible=self.decomp.membership < 0)
        self.fallback()

    def report(self) -> RunReport:
        """The run report, after the final check: proper and in-palette,
        and complete once a fallback over all vertices has run; the
        per-step colored counts must add up to the colored vertices."""
        state, sched, graph = self.state, self.schedule, self.state.graph
        failures = self.failures + coloring_failures(
            graph, state.committed, state.outside_palette(), require_complete=self._require_complete
        )
        colored = graph.n - state.num_uncolored()
        total_colored = sum(s.colored for s in self.steps)
        if total_colored != colored:
            failures.append(
                f"per-step colored counts sum to {total_colored}, "
                f"but {colored} vertices are colored"
            )
        return RunReport(
            seed=self.seed,
            n=graph.n,
            delta=graph.max_degree,
            epsilon=sched.epsilon,
            k=sched.k,
            main_path=sched.main_path,
            forced_main_path=self.force_main_path and not sched.main_path,
            rounds_used=sum(s.rounds for s in self.steps),
            steps=self.steps,
            schedule=sched,
            invariant_failures=failures,
            coloring=state.committed.copy(),
            dense_steps_executed=sum(s.kind == "dense" for s in self.steps),
            good_color=self.good,
        )

    def _check_palette_floor(
        self, result: DenseStepResult, q_pre: np.ndarray, row: RoundParams, step_index: int
    ) -> None:
        """Palette floor of a regular dense step: every prefix vertex must
        satisfy Q(v) - L_j >= Z sqrt(delta) + D for its clique's prefix L_j."""
        delta = row.d / row.z
        floor = row.z * math.sqrt(delta) + row.d
        for clique in self.decomp.cliques:
            prefix = clique.members[result.in_prefix[clique.members]]
            if prefix.size == 0:
                continue
            lj = int(prefix.size)
            short = prefix[q_pre[prefix] - lj < floor - 1e-9]
            if short.size:
                v = int(short[0])
                self.failures.append(
                    f"dense step {step_index}: palette floor violated at vertex {v}: "
                    f"Q={int(q_pre[v])}, L={lj}, floor={floor:.3f}"
                )


def schedule_plan(
    sched: ScheduleParams, count: int | None = None
) -> tuple[list[float], list[RoundParams]]:
    """Gammas of the schedule-driven dense steps and the rows they start from.

    Step i uses row i's gamma and row i - 1's bounds. The plan covers the
    first ``count`` steps of the table (by default, up to the regularity
    horizon) and stops before the first negative gamma.
    """
    if count is None:
        count = sched.regularity_horizon
    gammas: list[float] = []
    bounds: list[RoundParams] = []
    for i in range(1, min(count, len(sched.rounds) - 1) + 1):
        gamma = sched.rounds[i].gamma
        assert gamma is not None
        if gamma < 0.0:
            break
        gammas.append(gamma)
        bounds.append(sched.rounds[i - 1])
    return gammas, bounds


def run(
    graph: Graph,
    palettes: Sequence[Sequence[int]],
    k: float = DEFAULT_K,
    seed: int = 0,
    epsilon: float | None = None,
    force_main_path: bool = False,
    max_fallback_iters: int = DEFAULT_MAX_FALLBACK_ITERS,
) -> RunReport:
    """Full coloring run; returns a report with per-step accounting.

    When the activation gate eps^4 * max_degree >= K ln n fails (which
    it does for every desk-scale input under the density formula), the
    whole graph goes straight to the fallback; ``force_main_path``
    overrides the routing so the decomposition and dense machinery can
    be exercised, usually together with an epsilon override.
    """
    driver = PhaseDriver(graph, palettes, k, seed, epsilon, force_main_path=force_main_path,
                         max_fallback_iters=max_fallback_iters)
    driver.full()
    return driver.report()

