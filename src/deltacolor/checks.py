"""Verification helpers: properness, residual consistency, structure.

Every function returns a list of human-readable failure messages; an
empty list means the property holds. The engine records these in run
reports, the test suite asserts on them, and the CLI verify mode reuses
them against saved colorings.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .decomposition import check_decomposition_of
from .errors import ValidationError
from .graph import BLANK, Graph, first_non_integer, slot_components, vertex_map
from .palettes import membership
from .state import ColoringState, recompute_residuals

_REPORT_CAP = 5


def properness_failures(graph: Graph, committed: np.ndarray) -> list[str]:
    """Monochromatic edges among committed vertices, from one
    :meth:`~deltacolor.graph.Graph.same_color_edges` query over every
    row; names the first bad slots in (row, column) order."""
    rows, columns = graph.same_color_edges(committed)
    if not rows.size:
        return []
    first = np.lexsort((columns, rows))[: 2 * _REPORT_CAP]
    bad = zip(rows[first].tolist(), columns[first].tolist())
    out = [f"edge ({u}, {v}) is monochromatic with color {int(committed[u])}" for u, v in bad if u < v]
    return out[:_REPORT_CAP] or [f"{rows.size // 2} monochromatic edges among committed vertices"]


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


def coloring_failures(
    graph: Graph, colors: np.ndarray, outside: np.ndarray, require_complete: bool = True
) -> list[str]:
    """Final-output check of ``colors`` (one per vertex, blank for none):
    complete when ``require_complete``, no colored vertex in ``outside``
    (those wearing a color outside their own palette, ascending), and
    proper."""
    out = []
    uncolored = np.flatnonzero(colors == BLANK)
    if require_complete and uncolored.size:
        out.append(f"{uncolored.size} vertices left uncolored (first: {int(uncolored[0])})")
    for v in outside[: _REPORT_CAP - len(out)].tolist():
        out.append(f"vertex {v} wears color {int(colors[v])} outside its own palette")
    out.extend(properness_failures(graph, colors))
    return out


def verify_coloring(
    graph: Graph, palettes, coloring: dict[int, int] | list[int] | np.ndarray
) -> list[str]:
    """Check a saved coloring against a graph and its palettes.

    ``palettes`` is a :class:`~deltacolor.palettes.PaletteTable` or one
    color collection per vertex, of any size (the Δ+1 floor of
    :func:`~deltacolor.state.init_state` does not apply); a list of
    another length, or a color that is not an integer, raises
    :class:`ValidationError` (:func:`~deltacolor.palettes.membership`). A
    map's keys must be vertex IDs, each named once
    (:func:`~deltacolor.graph.vertex_map`), and its colors integers, as
    must be the entries of a list or tuple; an array must have an integer
    dtype. Anything else raises :class:`ValidationError` rather than
    being truncated. The failures are :func:`coloring_failures`'.
    """
    if len(palettes) != graph.n:
        raise ValidationError(f"expected {graph.n} palettes, got {len(palettes)}")
    holds = membership(palettes)
    if isinstance(coloring, dict):
        by_vertex = vertex_map(coloring, "coloring")
        values = list(by_vertex.values())
        bad = first_non_integer(values)
        if bad is not None:
            raise ValidationError(f"coloring of vertex {list(by_vertex)[bad]}: {values[bad]!r} is not an integer")
        outside = next((v for v in by_vertex if not 0 <= v < graph.n), None)
        if outside is not None:
            return [f"coloring references unknown vertex {outside}"]
        # one color per vertex, blank where the map has none
        coloring = list(map(by_vertex.get, range(graph.n), repeat(BLANK)))
    elif isinstance(coloring, (list, tuple)):
        bad = first_non_integer(coloring)
        if bad is not None:
            raise ValidationError(f"coloring of vertex {bad}: {coloring[bad]!r} is not an integer")
    colors = np.asarray(coloring)
    if not np.issubdtype(colors.dtype, np.integer):
        raise ValidationError(f"colors must be integers inside the int64 range, not {colors.dtype}")
    if colors.shape != (graph.n,):
        return [f"coloring has {colors.size} entries for {graph.n} vertices"]

    inside = holds(colors)
    return coloring_failures(graph, colors, np.flatnonzero(~inside & (colors != BLANK)))


def decomposition_failures(graph: Graph, decomp) -> list[str]:
    """Friend-edge connectivity of each almost-clique; the split itself
    holds by construction of the decomposition.

    The components come from :func:`~deltacolor.graph.slot_components`
    over the friend slots whose ends share a clique. Friend slots are
    symmetric, so these are the cliques' connected components; were
    they not, the strong components would only split finer, so the
    check could report more failures, never fewer.
    """
    check_decomposition_of(graph, decomp)
    member, friends = decomp.membership, decomp.friend_graph
    dense = np.flatnonzero(member >= 0)
    if dense.size == 0:
        return []
    owner = np.repeat(member, friends.degrees())  # the clique of each slot's row
    labels = slot_components(friends, (owner >= 0) & (owner == member[friends.indices]))
    # a clique is connected iff all its members share its leader's label
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
