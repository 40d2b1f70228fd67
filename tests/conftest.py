"""Test-wide settings.

Hypothesis draws its examples from a seed derived from each test
function rather than a fresh random one, and keeps no example database,
so an unchanged tree gives the same test outcomes on every run. The
helpers below read states and decompositions for the tests.
"""

import dataclasses
import itertools

import numpy as np
from hypothesis import settings

from deltacolor import GeneratorSpec, build_graph, generate

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


# ------------------------------------------------ helpers shared by the tests


def palette_of(state, v: int) -> set[int]:
    """The residual palette of ``v`` as a set of colors."""
    return set(state.color_values[state.palette[v]].tolist())


def color_index(state, value: int) -> int:
    """Palette column of the color ``value``, which some palette holds."""
    column = int(np.searchsorted(state.color_values, value))
    assert state.color_values[column] == value, value
    return column


def copy_state(state):
    """A state with its own copies of every array a commit writes."""
    mutable = ("palette", "committed", "residual_palette_size", "residual_degree")
    return dataclasses.replace(state, **{name: getattr(state, name).copy() for name in mutable})


def same_decomposition(a, b) -> bool:
    """Equal memberships (the split and its clique numbering) and friend graphs."""
    return (
        np.array_equal(a.membership, b.membership)
        and np.array_equal(a.friend_graph.indptr, b.friend_graph.indptr)
        and np.array_equal(a.friend_graph.indices, b.friend_graph.indices)
    )


def clique_beside_bipartite(size: int = 90, spec: str = "bipartite_random:400,0.37"):
    """A ``size``-clique beside the bipartite graph ``spec`` (seed 1), IDs
    shuffled so that all kept rows share one run. Bipartite edges share no
    neighbour, so only the clique's pairs come near the threshold."""
    side = generate(GeneratorSpec.parse(spec, seed=1))
    u, v = side.edge_array().T
    a, b = np.triu_indices(size, 1)
    edges = np.concatenate([np.column_stack((u, v)), np.column_stack((a, b)) + side.n])
    shuffled = np.random.default_rng(1).permutation(side.n + size)
    return build_graph(shuffled[edges], n=side.n + size)


def mixed_main_shaped(cliques=12, size=40, periphery=300, seed=1):
    """Planted cliques in contiguous ID ranges, a G(periphery, 0.06) after
    them, and at most one edge from each clique member into it."""
    rng = np.random.default_rng(seed)
    base = cliques * size
    edges = [
        (u, v)
        for j in range(0, base, size)
        for u, v in itertools.combinations(range(j, j + size), 2)
    ]
    periphery_pairs = itertools.combinations(range(base, base + periphery), 2)
    edges += [pair for pair in periphery_pairs if rng.random() < 0.06]
    edges += [(u, base + rng.integers(periphery)) for u in range(base) if rng.random() < 0.5]
    return build_graph(edges, n=base + periphery)


