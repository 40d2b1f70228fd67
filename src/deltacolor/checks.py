"""Verification helpers: properness, residual consistency, structure.

Every function returns a list of human-readable failure messages; an
empty list means the property holds. The engine records these in run
reports, the test suite asserts on them, and the CLI verify mode reuses
them against saved colorings.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import ValidationError
from .graph import BLANK, Graph, first_non_integer, same_color_pairs, vertex_ids
from .state import ColoringState, recompute_residuals

_REPORT_CAP = 5


def properness_failures(graph: Graph, committed: np.ndarray) -> list[str]:
    """Monochromatic edges among committed vertices, found by looking up
    the same-colour pairs in the graph when that is cheaper (see
    :func:`~deltacolor.graph.same_color_pairs`), otherwise by one scan of
    every row (:meth:`~deltacolor.graph.Graph.scan`). Both name the first
    bad slots in (row, column) order. The pair path assumes the symmetric
    CSR that :func:`~deltacolor.graph.build_graph` guarantees."""
    pairs = same_color_pairs(committed, graph.indices.size)
    if pairs is not None:
        u, v = pairs
        hit = graph.adjacent(u, v)
        rows = np.concatenate((u[hit], v[hit]))  # both slots of each edge
        columns = np.concatenate((v[hit], u[hit]))
        first = np.lexsort((columns, rows))[: 2 * _REPORT_CAP]
        count = rows.size
        bad = zip(rows[first].tolist(), columns[first].tolist())
    else:
        count, bad = _bad_slots(graph, committed)
    if not count:
        return []
    out = [f"edge ({u}, {v}) is monochromatic with color {int(committed[u])}" for u, v in bad if u < v]
    return out[:_REPORT_CAP] or [f"{count // 2} monochromatic edges among committed vertices"]


def _bad_slots(graph: Graph, committed: np.ndarray) -> tuple[int, list[tuple[int, int]]]:
    """The number of monochromatic slots among committed vertices and the
    first ``2 * _REPORT_CAP`` of them as (row, column), from one scan of
    every row."""
    first: list[int] = []  # the first bad slots, in slot order
    count = 0
    start = 0  # every row in order: the scan's slots are the CSR slots
    for block, neighbors, degrees in graph.scan(np.arange(graph.n)):
        own = np.repeat(committed[block], degrees)
        bad = np.flatnonzero((own == committed[neighbors]) & (own != BLANK))
        count += bad.size
        first.extend((bad[: 2 * _REPORT_CAP - len(first)] + start).tolist())
        start += neighbors.size
    first_slots = np.array(first, dtype=np.int64)
    rows = np.searchsorted(graph.indptr, first_slots, side="right") - 1
    return count, list(zip(rows.tolist(), graph.indices[first_slots].tolist()))


def residual_consistency_failures(state: ColoringState) -> list[str]:
    """Incrementally maintained Q/d of every uncolored vertex must match
    a from-scratch recount of its row."""
    rows = np.flatnonzero(state.committed == BLANK)
    q, d = recompute_residuals(state, rows)
    out = []
    for i in np.flatnonzero(q != state.residual_palette_size[rows])[:_REPORT_CAP]:
        v = rows[i]
        out.append(
            f"vertex {int(v)}: maintained Q={int(state.residual_palette_size[v])}, recomputed {int(q[i])}"
        )
    for i in np.flatnonzero(d != state.residual_degree[rows])[:_REPORT_CAP]:
        v = rows[i]
        out.append(
            f"vertex {int(v)}: maintained d={int(state.residual_degree[v])}, recomputed {int(d[i])}"
        )
    return out


def coloring_failures(state: ColoringState, require_complete: bool = True) -> list[str]:
    """Final-output check: complete, proper, and palette-respecting."""
    out = []
    uncolored = np.flatnonzero(state.committed == BLANK)
    if require_complete and uncolored.size:
        out.append(f"{uncolored.size} vertices left uncolored (first: {int(uncolored[0])})")
    colored = np.flatnonzero(state.committed != BLANK)
    colors = state.committed[colored]
    values = state.color_values
    columns = np.minimum(np.searchsorted(values, colors), values.size - 1)
    inside = (values[columns] == colors) & state.original_palette[colored, columns]
    for v in colored[~inside][: _REPORT_CAP - len(out)]:
        out.append(f"vertex {int(v)} wears color {int(state.committed[v])} outside its own palette")
    out.extend(properness_failures(state.graph, state.committed))
    return out


def verify_coloring(
    graph: Graph, palettes, coloring: dict[int, int] | np.ndarray
) -> list[str]:
    """Check a saved coloring against a graph and its palettes.

    A map's keys must be vertex IDs (integers, or strings of ASCII digits
    after an optional minus sign) and its colors integers; an array must
    have an integer dtype. Anything else raises :class:`ValidationError`
    rather than being truncated.
    """
    if isinstance(coloring, dict):
        vertices, values = vertex_ids(list(coloring), "coloring key"), list(coloring.values())
        bad = first_non_integer(values)
        if bad is not None:
            raise ValidationError(f"coloring of vertex {vertices[bad]}: {values[bad]!r} is not an integer")
        by_vertex = dict(zip(vertices, values))
        if len(by_vertex) < len(vertices):
            named: dict[int, object] = {}  # the key that named each vertex
            for key, v in zip(coloring, vertices):
                if v in named:
                    raise ValidationError(f"coloring names vertex {v} twice, by keys {named[v]!r} and {key!r}")
                named[v] = key
        outside = next((v for v in vertices if not 0 <= v < graph.n), None)
        if outside is not None:
            return [f"coloring references unknown vertex {outside}"]
        # one color per vertex, blank where the map has none
        coloring = list(map(by_vertex.get, range(graph.n), repeat(BLANK)))
    colors = np.asarray(coloring)
    if not np.issubdtype(colors.dtype, np.integer):
        raise ValidationError(f"colors must be integers inside the int64 range, not {colors.dtype}")
    if colors.shape != (graph.n,):
        return [f"coloring has {colors.size} entries for {graph.n} vertices"]

    out = []
    for v, (c, palette) in enumerate(zip(colors.tolist(), palettes)):
        if c == BLANK:
            out.append(f"vertex {v} is uncolored")
        elif c not in palette:
            out.append(f"vertex {v} wears color {c} outside its own palette")
        if len(out) >= _REPORT_CAP:
            break
    out.extend(properness_failures(graph, colors))
    return out


def decomposition_failures(graph: Graph, decomp) -> list[str]:
    """Friend-edge connectivity of each almost-clique; the split itself
    holds by construction of the decomposition."""
    member, friends = decomp.membership, decomp.friend_graph
    dense = np.flatnonzero(member >= 0)
    if dense.size == 0:
        return []
    src, dst = friends.slot_owners(), friends.indices
    inside = (member[src] >= 0) & (member[src] == member[dst])
    ones = np.ones(int(np.count_nonzero(inside)), dtype=np.int8)
    intra = csr_matrix((ones, (src[inside], dst[inside])), shape=(friends.n, friends.n))
    # a clique is connected iff all its members share its leader's label
    labels = connected_components(intra, directed=False)[1]
    split = labels[dense] != labels[decomp.leader_by_vertex()[dense]]
    bad = np.unique(member[dense[split]]).tolist()
    return [f"almost-clique {j} is not connected under friend edges" for j in bad]


def decomposition_bound_failures(graph: Graph, decomp, metrics) -> list[str]:
    """Deterministic structure theorems; a violation always means a bug.

    external degree <= eps * max_degree, anti-degree <= 3 eps * max_degree,
    weak diameter <= 2, clique size <= (1 + 3 eps) * max_degree.
    """
    out = []
    eps = decomp.epsilon
    dmax = graph.max_degree
    tol = 1e-9
    for v, ext in metrics.external_degree.items():
        if ext > eps * dmax + tol:
            out.append(f"external degree of {v} is {ext} > eps*max_degree = {eps * dmax:.3f}")
    for v, a in metrics.anti_degree.items():
        if a > 3 * eps * dmax + tol:
            out.append(f"anti-degree of {v} is {a} > 3*eps*max_degree = {3 * eps * dmax:.3f}")
    for j, diam in enumerate(metrics.weak_diameter):
        if diam > 2:
            out.append(f"almost-clique {j} has weak diameter > 2")
    for j, size in enumerate(metrics.clique_size):
        if size > (1 + 3 * eps) * dmax + tol:
            out.append(
                f"almost-clique {j} has {size} members > (1+3*eps)*max_degree = {(1 + 3 * eps) * dmax:.3f}"
            )
    return out[:_REPORT_CAP * 4]
