"""Plain-Python references for the tests: a brute-force decomposition and a
scalar simulator of the whole coloring run.

Both follow the definitions as the package's docstrings state them, one
vertex, one pair or one clique at a time, with Python sets, and share no
code path with the array kernels they check. ``reference_report`` takes
the schedule table from :func:`deltacolor.schedule.build_schedule` and
the split from :func:`brute_force_decomposition`; it imports nothing
from ``engine``, ``state``, ``checks`` or ``sharing``.
"""

from __future__ import annotations

import math

import numpy as np

from deltacolor.decomposition import THRESHOLD_TOL, Decomposition
from deltacolor.errors import ValidationError
from deltacolor.graph import build_graph
from deltacolor.schedule import build_schedule, check_epsilon

_BRUTE_FORCE_LIMIT = 1000

# LOCAL rounds charged to a step of each kind, and the chance that a vertex
# tries a colour in the initial step (the engine module's docstring).
ROUND_COST = {"decompose": 3, "initial": 2, "dense": 5, "fallback": 2}
ACTIVATION = 0.01


def neighbors(graph, v: int) -> set[int]:
    """The neighbours of ``v`` as a set of Python ints."""
    return set(graph.neighbors(v).tolist())


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def brute_force_decomposition(graph, epsilon: float) -> Decomposition:
    """Oracle decomposition by direct definition chasing (small graphs only)."""
    if graph.n > _BRUTE_FORCE_LIMIT:
        raise ValidationError(f"brute-force oracle capped at n={_BRUTE_FORCE_LIMIT}")
    epsilon = check_epsilon(epsilon)

    nsets = [neighbors(graph, v) for v in range(graph.n)]
    threshold = (1.0 - epsilon) * graph.max_degree - THRESHOLD_TOL
    friend_pairs = []
    friend_count = [0] * graph.n
    for u in range(graph.n):
        for v in nsets[u]:
            if u < v and len(nsets[u] & nsets[v]) >= threshold:
                friend_pairs.append((u, v))
                friend_count[u] += 1
                friend_count[v] += 1

    if graph.max_degree == 0:
        dense = set()
    else:
        dense = {v for v in range(graph.n) if friend_count[v] >= threshold}

    uf = _UnionFind(sorted(dense))
    for u, v in friend_pairs:
        if u in dense and v in dense:
            uf.union(u, v)
    groups: dict[int, list[int]] = {}
    for v in sorted(dense):
        groups.setdefault(uf.find(v), []).append(v)

    membership = np.full(graph.n, -1, dtype=np.int64)
    for j, root in enumerate(sorted(groups)):  # a root is its group's least member
        membership[groups[root]] = j
    friend_graph = build_graph(friend_pairs, n=graph.n)
    return Decomposition(epsilon=epsilon, friend_graph=friend_graph, membership=membership)


def dense_plan(sched) -> list:
    """(gamma, row) per schedule-driven dense step: step i takes row i's
    gamma and starts from row i - 1, up to the regularity horizon and the
    end of the table, and the plan stops before the first negative gamma."""
    plan = []
    for before, row in zip(sched.rounds[: sched.regularity_horizon], sched.rounds[1:]):
        if row.gamma < 0.0:
            break
        plan.append((row.gamma, before))
    return plan


def reference_report(
    graph,
    palettes,
    k: float = 16.0,
    seed: int = 0,
    epsilon: float | None = None,
    force_main_path: bool = False,
    max_fallback_iters: int = 500,
) -> dict:
    """The report dict of ``deltacolor.run`` with the same arguments."""
    return _Run(graph, palettes, k, seed, epsilon, max_fallback_iters).full(force_main_path)


def _step(kind: str, **counts) -> dict:
    """A step record as ``StepStats.to_dict()`` gives it."""
    step = {"kind": kind, "colored": 0, "de_colored": 0, "initially_uncolored": 0, "palette_exhausted": 0}
    return {**step, **counts, "surplus_min": None, "surplus_mean": None, "rounds": ROUND_COST[kind]}


class _Run:
    """One run: residual palettes as sets, committed colours (0 = blank),
    residual degrees, the RNG root and the step and failure lists."""

    def __init__(self, graph, palettes, k, seed, epsilon, max_fallback_iters):
        self.graph = graph
        self.adj = [neighbors(graph, v) for v in range(graph.n)]
        self.palette = [set(map(int, p)) for p in palettes]
        self.color = [0] * graph.n
        self.degree = [len(a) for a in self.adj]
        self.sched = build_schedule(max(graph.max_degree, 1), graph.n, k, epsilon=epsilon)
        self.seed = seed
        self.max_fallback_iters = max_fallback_iters
        self.root = np.random.default_rng(np.random.SeedSequence(seed))
        self.sparse = None  # the sparse vertices, once decomposed
        self.steps: list[dict] = []
        self.failures: list[str] = []

    def full(self, force_main_path: bool) -> dict:
        sched, n = self.sched, self.graph.n
        if (sched.main_path or force_main_path) and self.graph.max_degree >= 1:
            cliques = self.decompose()
            self.initial()
            self.dense(cliques)
            self.fallback(eligible=self.sparse)
        self.fallback()
        uncolored = [v for v in range(n) if not self.color[v]]
        if uncolored:
            self.failures.append(f"{len(uncolored)} vertices left uncolored (first: {uncolored[0]})")
        return {
            "seed": self.seed,
            "n": n,
            "delta": self.graph.max_degree,
            "epsilon": sched.epsilon,
            "K": sched.k,
            "main_path": sched.main_path,
            "forced_main_path": force_main_path and not sched.main_path,
            "rounds_used": sum(s["rounds"] for s in self.steps),
            "dense_steps_executed": sum(s["kind"] == "dense" for s in self.steps),
            "complete": not uncolored,
            "steps": self.steps,
            "invariant_failures": self.failures,
            "schedule": sched.to_dict(),
            "coloring": {str(v): c for v, c in enumerate(self.color)},
        }

    def stream(self):
        return self.root.spawn(1)[0]

    def pick(self, v: int, rng, taken=frozenset()) -> int | None:
        """A uniform colour of v's residual palette outside ``taken``, by one
        draw over them in ascending order; None when there is none."""
        free = sorted(self.palette[v] - taken)
        return free[int(rng.integers(len(free)))] if free else None

    def resolve(self, kind: str, drawn: dict, rank: dict | None = None) -> dict:
        """Commit every draw that no neighbour drew too (with ``rank``, no
        neighbour of a smaller rank), and record the step."""
        lost = {
            v for v, c in drawn.items()
            if any(drawn.get(w) == c and (rank is None or rank[w] < rank[v]) for w in self.adj[v])
        }
        won = {v: c for v, c in drawn.items() if v not in lost}
        for v, c in won.items():
            self.color[v] = c
        for v, c in won.items():
            for w in self.adj[v]:
                if not self.color[w]:
                    self.palette[w].discard(c)
                    self.degree[w] -= 1
        return _step(kind, colored=len(won), de_colored=len(lost))

    def finish(self, step: dict) -> None:
        """Record ``step`` with the surplus Q - d over the uncolored vertices
        (only the sparse ones once decomposed)."""
        surplus = [
            len(self.palette[v]) - self.degree[v]
            for v in range(self.graph.n)
            if not self.color[v] and (self.sparse is None or v in self.sparse)
        ]
        if surplus:
            step["surplus_min"], step["surplus_mean"] = min(surplus), sum(surplus) / len(surplus)
        self.steps.append(step)

    def decompose(self) -> list[list[int]]:
        """The almost-cliques, each ascending, in leader order."""
        membership = brute_force_decomposition(self.graph, self.sched.epsilon).membership.tolist()
        cliques = [[] for _ in range(max(membership, default=-1) + 1)]
        for v, j in enumerate(membership):
            if j >= 0:
                cliques[j].append(v)
        self.sparse = {v for v, j in enumerate(membership) if j < 0}
        self.steps.append(_step("decompose"))
        return cliques

    def initial(self) -> None:
        """Each vertex tries a uniform palette colour with probability 1/100."""
        rng = self.stream()
        tries = rng.random(self.graph.n).tolist()
        drawn = {v: self.pick(v, rng) for v in range(self.graph.n) if tries[v] < ACTIVATION}
        step = self.resolve("initial", drawn)
        step["initially_uncolored"] = self.graph.n - len(drawn)
        self.finish(step)

    def dense(self, cliques: list[list[int]]) -> None:
        """Per step of the plan, each clique permutes its uncolored members and
        the first ceil(M gamma) pick in turn, avoiding earlier picks; a draw
        loses to a dense neighbour's in a clique of smaller leader. Then every
        prefix vertex must keep Q - L >= Z sqrt(D / Z) + D of its row."""
        leader = {v: members[0] for members in cliques for v in members}
        for i, (gamma, row) in enumerate(dense_plan(self.sched), start=1):
            streams = self.stream().spawn(len(cliques))
            drawn, prefixes, left_out, exhausted = {}, [], 0, 0
            for members, rng in zip(cliques, streams):
                live = [v for v in members if not self.color[v]]
                if not live:
                    continue
                order = rng.permutation(live).tolist()
                prefix = order[: min(len(live), math.ceil(len(live) * gamma - 1e-12))]
                taken = set()
                for v in prefix:
                    c = self.pick(v, rng, taken)
                    if c is None:
                        exhausted += 1
                    else:
                        taken.add(c)
                        drawn[v] = c
                prefixes.append(sorted(prefix))
                left_out += len(live) - len(prefix)
            q = {v: len(self.palette[v]) for prefix in prefixes for v in prefix}
            step = self.resolve("dense", drawn, leader)
            step["initially_uncolored"], step["palette_exhausted"] = left_out, exhausted
            self.finish(step)
            floor = row.z * math.sqrt(row.d / row.z) + row.d
            for prefix in prefixes:
                short = [v for v in prefix if q[v] - len(prefix) < floor - 1e-9]
                if short:
                    v = short[0]
                    self.failures.append(
                        f"dense step {i}: palette floor violated at vertex {v}: "
                        f"Q={q[v]}, L={len(prefix)}, floor={floor:.3f}"
                    )

    def fallback(self, eligible: set | None = None) -> None:
        """Trial rounds for the uncolored ``eligible`` vertices (all when
        None) until none is left or ``max_fallback_iters`` rounds ran."""
        rng = self.stream()
        todo = range(self.graph.n) if eligible is None else sorted(eligible)
        rounds = 0
        while any(not self.color[v] for v in todo):
            if rounds == self.max_fallback_iters:
                phase = "residual" if eligible is None else "sparse"
                name = "fallback" if self.sparse is None else f"fallback ({phase} phase)"
                left = self.color.count(0)
                self.failures.append(f"{name} exhausted after {rounds} rounds with {left} vertices uncolored")
                return
            drawn = {v: self.pick(v, rng) for v in todo if not self.color[v]}
            self.finish(self.resolve("fallback", drawn))
            rounds += 1
