"""The benchmark's workloads and the checked operations it times.

Every workload turns a seed into a ``Graph`` and palettes through the
same public calls a user of the CLI goes through, and hands the package
nothing else. The three timed operations mirror the CLI modes:
``run --mode full --out``, ``run --mode decompose-only`` and
``run --mode verify``, minus argument parsing.

Each operation's output is checked here, independently of
``deltacolor.checks``: the coloring is read against the graph's CSR
arrays and the palettes, and the decomposition against the structure
the generator planted.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from deltacolor import checks, decomposition, engine, generators, graph, io, schedule


@dataclass(frozen=True)
class Inputs:
    """A loaded graph plus palettes, and what the check needs to know."""

    graph: graph.Graph
    palettes: Sequence[Sequence[int]]
    planted_cliques: tuple[np.ndarray, ...] = ()


@dataclass(frozen=True)
class Workload:
    """``prepare`` turns a seed into the raw material a user starts from
    (an edge array, a generator spec, a palette file); it runs once per
    seed, untimed. ``setup`` takes that material to a loaded graph plus
    palettes along the user's path, and is what ``setup_s`` times."""

    name: str
    why: str
    prepare: Callable[[int, Path], Any] = field(repr=False)
    setup: Callable[[Any], Inputs] = field(repr=False)
    run_options: dict = field(default_factory=dict)
    decompose_epsilon: float = 0.1
    decompose_k: float = schedule.DEFAULT_K


def sparse_fallback(n: int = 20_000, pairs: int = 200_000) -> Workload:
    """Uniform random pairs, built, written as an edge list and read back."""

    def prepare(seed: int, workdir: Path):
        edges = np.random.default_rng(seed).integers(0, n, size=(pairs, 2))
        return edges[edges[:, 0] != edges[:, 1]], workdir / "sparse-fallback.edges"

    def setup(prepared) -> Inputs:
        edges, path = prepared
        io.write_edge_list(graph.build_graph(edges, n=n), path)
        g = io.read_edge_list(path)
        return Inputs(g, io.canonical_palettes(g))

    return Workload(
        name="sparse-fallback",
        why="n=2e4 random pairs, max degree ~40, fallback path: per-vertex Python loops, "
        "the per-edge decomposition loop (n > 4096) and edge-list IO in setup dominate",
        prepare=prepare,
        setup=setup,
    )


DENSE_P = 0.5


def dense_fallback(n: int = 3000) -> Workload:
    """``gnp:n,0.5`` from the generator, as ``run --gen`` builds it."""

    def prepare(seed: int, workdir: Path) -> generators.GeneratorSpec:
        return generators.GeneratorSpec.parse(f"gnp:{n},{DENSE_P}", seed=seed)

    def setup(spec: generators.GeneratorSpec) -> Inputs:
        g = generators.generate(spec)
        return Inputs(g, io.canonical_palettes(g))

    return Workload(
        name="dense-fallback",
        why="gnp:3000,0.5, max degree ~1600, fallback path: per-edge array work, the "
        "monitor's recount and properness scan, the dense-matmul decomposition and the "
        "O(n^2) generator dominate",
        prepare=prepare,
        setup=setup,
    )


# Edge probability inside the mixed-main periphery, and the chance that a
# clique member has its one edge into the periphery.
PERIPHERY_P = 0.06
LINK_P = 0.5


def mixed_main(cliques: int = 12, clique_size: int = 200, periphery: int = 1600) -> Workload:
    """Planted cliques plus a G(periphery, 0.06) periphery, forced main path.

    Each clique member has at most one edge into the periphery, so the
    max degree is ``clique_size`` and every in-clique edge is a friend
    edge at epsilon 0.01. Palettes are random lists of exactly
    max_degree + 1 colors from {1..2(max_degree + 1)}, written to a
    palette JSON file that set-up reads back.
    """

    def prepare(seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        iu, ju = np.triu_indices(clique_size, k=1)
        blocks = [np.column_stack((iu, ju)) + j * clique_size for j in range(cliques)]
        base = cliques * clique_size
        pi, pj = np.triu_indices(periphery, k=1)
        keep = rng.random(pi.size) < PERIPHERY_P
        blocks.append(np.column_stack((pi[keep], pj[keep])) + base)
        linked = np.flatnonzero(rng.random(base) < LINK_P)
        targets = rng.integers(0, periphery, size=linked.size) + base
        blocks.append(np.column_stack((linked, targets)))
        edges = np.vstack(blocks)
        n = base + periphery

        # no edge is drawn twice, so degrees are endpoint counts
        size = int(np.bincount(edges.ravel(), minlength=n).max()) + 1
        universe = np.tile(np.arange(1, 2 * size + 1), (n, 1))
        chosen = np.sort(rng.permuted(universe, axis=1)[:, :size], axis=1)
        path = workdir / "mixed-main.palettes.json"
        path.write_text(json.dumps({str(v): row for v, row in enumerate(chosen.tolist())}))
        planted = tuple(
            np.arange(j * clique_size, (j + 1) * clique_size) for j in range(cliques)
        )
        return edges, n, path, planted

    def setup(prepared) -> Inputs:
        edges, n, path, planted = prepared
        g = graph.build_graph(edges, n=n)
        return Inputs(g, io.read_palettes(path, g.n), planted)

    return Workload(
        name="mixed-main",
        why="12 planted 200-cliques plus a G(1600,0.06) periphery on the forced main path "
        "with list palettes: the only workload with the initial step, dense steps and "
        "structural metrics",
        prepare=prepare,
        setup=setup,
        run_options={"k": 0.04, "epsilon": 0.01, "force_main_path": True},
        decompose_epsilon=0.01,
        decompose_k=0.04,
    )


WORKLOADS = {w.name: w for w in (sparse_fallback(), dense_fallback(), mixed_main())}


def input_digests(inputs: Inputs) -> dict[str, str]:
    """SHA-256 of the edges (CSR arrays) and of the palettes, in a fixed layout."""
    g = inputs.graph
    edges = hashlib.sha256()
    for arr in (np.array([g.n]), g.indptr, g.indices):
        edges.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    flat, ptr = palette_table(inputs.palettes)
    palettes = hashlib.sha256(ptr.tobytes())
    palettes.update(flat.tobytes())
    return {"edges_sha256": edges.hexdigest(), "palettes_sha256": palettes.hexdigest()}


def palette_table(palettes: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Palettes as one flat int64 array plus CSR offsets."""
    lengths = np.fromiter((len(p) for p in palettes), dtype=np.int64, count=len(palettes))
    ptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=ptr[1:])
    flat = np.concatenate([np.asarray(p, dtype=np.int64) for p in palettes])
    return flat, ptr


def coloring_problems(
    g: graph.Graph, table: tuple[np.ndarray, np.ndarray], coloring: np.ndarray
) -> list[str]:
    """Completeness, properness and palette membership, from raw arrays."""
    colors = np.asarray(coloring, dtype=np.int64)
    if colors.shape != (g.n,):
        return [f"coloring has shape {colors.shape} for {g.n} vertices"]
    problems = []
    blank = np.flatnonzero(colors == graph.BLANK)
    if blank.size:
        problems.append(f"{blank.size} vertices uncolored (first: {int(blank[0])})")
    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    mono = np.flatnonzero((colors[src] == colors[g.indices]) & (colors[src] != graph.BLANK))
    if mono.size:
        i = int(mono[0])
        problems.append(
            f"{mono.size // 2} monochromatic edges (first: {int(src[i])}-{int(g.indices[i])})"
        )
    flat, ptr = table
    lengths = np.diff(ptr)
    hit = np.repeat(colors, lengths) == flat
    inside = np.zeros(g.n, dtype=bool)
    nonempty = lengths > 0
    inside[nonempty] = np.logical_or.reduceat(hit, ptr[:-1][nonempty])
    outside = np.flatnonzero(~inside & (colors != graph.BLANK))
    if outside.size:
        problems.append(
            f"{outside.size} vertices colored outside their palette (first: {int(outside[0])})"
        )
    return problems


def decomposition_problems(decomp: decomposition.Decomposition, inputs: Inputs) -> list[str]:
    """The almost-cliques must be exactly the planted cliques."""
    found = [c.members for c in decomp.cliques]
    planted = list(inputs.planted_cliques)
    if len(found) != len(planted) or any(
        not np.array_equal(a, b) for a, b in zip(found, planted)
    ):
        return [f"found {len(found)} almost-cliques, planted {len(planted)}"]
    dense = sum(c.size for c in planted)
    if decomp.sparse.size != inputs.graph.n - dense:
        return [f"{decomp.sparse.size} sparse vertices, expected {inputs.graph.n - dense}"]
    return []


def run_full(wl: Workload, inputs: Inputs, seed: int) -> engine.RunReport:
    return engine.run(inputs.graph, inputs.palettes, seed=seed, **wl.run_options)


def decompose_only(wl: Workload, inputs: Inputs):
    """The ``--mode decompose-only`` pipeline; returns (decomp, failures)."""
    g = inputs.graph
    sched = schedule.build_schedule(
        max(g.max_degree, 1), g.n, wl.decompose_k, epsilon=wl.decompose_epsilon
    )
    decomp = decomposition.decompose(g, sched.epsilon)
    metrics = decomposition.structural_metrics(g, decomp)
    failures = checks.decomposition_failures(g, decomp)
    failures += checks.decomposition_bound_failures(g, decomp, metrics)
    return decomp, failures


def decomposition_digest(decomp: decomposition.Decomposition) -> str:
    h = hashlib.sha256()
    for arr in (decomp.sparse, decomp.friend_graph.indptr, decomp.friend_graph.indices):
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    for clique in decomp.cliques:
        h.update(np.ascontiguousarray(clique.members, dtype=np.int64).tobytes())
    return h.hexdigest()


def verify(inputs: Inputs, coloring: dict[str, int]) -> list[str]:
    """The ``--mode verify`` check on a coloring map read from a report."""
    return checks.verify_coloring(inputs.graph, inputs.palettes, coloring)
