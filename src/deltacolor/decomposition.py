"""Decomposition of a graph into sparse vertices and almost-cliques.

Definitions, all relative to a density parameter eps in (0, 1/5):

* friend edge: an edge uv with |N(u) & N(v)| >= (1 - eps) * max_degree
* dense vertex: has at least (1 - eps) * max_degree friends
* almost-clique: a connected component of dense vertices under friend
  edges; its leader is the member with the smallest ID

The decomposition is computed once on the original graph and stays
fixed; restricting to uncolored vertices is a view applied by
:func:`structural_metrics`, never a recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .graph import BLANK, Graph, as_int64, segment_sum, slot_components
from .schedule import check_epsilon
from .sharing import apart_common_counts, sharing_subgraph

# Threshold comparisons against (1 - eps) * max_degree use this slack so
# exact integer counts are not lost to float rounding at the boundary.
THRESHOLD_TOL = 1e-9

# Weak diameter report value meaning "more than 2"; any almost-clique
# with this value is a structural violation.
DIAMETER_EXCEEDED = 3


@dataclass(frozen=True, eq=False)
class AlmostClique:
    members: np.ndarray  # sorted vertex IDs, read-only

    @property
    def leader(self) -> int:
        return int(self.members[0])  # the smallest member


@dataclass(frozen=True, eq=False)
class Decomposition:
    """The split, recorded once as ``membership``: the clique index of each
    vertex, -1 for a sparse one. Cliques are numbered 0, 1, ... in leader
    order, the order of the dense step's per-clique streams; the
    constructor rejects any other array and makes it read-only, so the
    ``sparse`` and ``cliques`` views never go stale."""

    epsilon: float
    friend_graph: Graph
    membership: np.ndarray

    def __post_init__(self):
        m, n = self.membership, self.friend_graph.n
        if not isinstance(m, np.ndarray) or m.dtype != np.int64 or m.shape != (n,):
            raise ValidationError(f"membership must be a 1-D int64 array of length {n}")
        # a vertex may open the clique one past every index before it
        opens = np.maximum.accumulate(np.concatenate(([0], m[:-1] + 1)))
        bad = np.flatnonzero((m < -1) | (m > opens))
        if bad.size:
            v = int(bad[0])
            raise ValidationError(
                f"membership of vertex {v} is {int(m[v])}, not -1 (sparse) or a clique index "
                f"up to {int(opens[v])}: cliques are numbered 0, 1, ... in leader order"
            )
        m.setflags(write=False)

    @cached_property
    def sparse(self) -> np.ndarray:
        """Sorted sparse vertex IDs."""
        return np.flatnonzero(self.membership < 0)

    @cached_property
    def cliques(self) -> tuple[AlmostClique, ...]:
        """The almost-cliques by index, which is leader order."""
        dense = np.flatnonzero(self.membership >= 0)
        dense = dense[np.argsort(self.membership[dense], kind="stable")]
        dense.setflags(write=False)
        bounds = np.flatnonzero(np.diff(self.membership[dense])) + 1
        return tuple(map(AlmostClique, np.split(dense, bounds))) if dense.size else ()

    def num_dense(self) -> int:
        return int(np.count_nonzero(self.membership >= 0))

    def leader_by_vertex(self) -> np.ndarray:
        """Per-vertex leader ID of its almost-clique, -1 for sparse."""
        leaders = np.array([c.leader for c in self.cliques] + [-1], dtype=np.int64)
        return leaders[self.membership]


def check_decomposition_of(graph: Graph, decomp: Decomposition) -> None:
    """Raise :class:`ValidationError` unless ``decomp`` splits as many
    vertices as ``graph`` has."""
    if decomp.membership.size != graph.n:
        raise ValidationError(
            f"decomposition of {decomp.membership.size} vertices given for {graph.n} vertices"
        )


@dataclass(frozen=True, eq=False)
class StructuralMetrics:
    """Per-vertex and per-clique structure, restricted to uncolored vertices.

    external_degree counts uncolored dense neighbors outside the vertex's
    own almost-clique (sparse neighbors never count). anti_degree counts
    uncolored non-neighbors inside the clique, the vertex itself excluded.
    Weak diameter is measured in the full original graph.
    """

    external_degree: dict[int, int]
    anti_degree: dict[int, int]
    weak_diameter: list[int]
    clique_size: list[int]


def compute_friend_edges(graph: Graph, epsilon: float) -> Graph:
    """Friend edges of ``graph`` at density ``epsilon``, as a graph.

    An edge qualifies when its endpoints share at least
    (1 - eps) * max_degree neighbors. The returned graph has the same
    vertex set; its degrees are the per-vertex friend counts.

    A shared count never exceeds either endpoint's degree, so only
    vertices of degree at least the threshold are kept at all, and the
    kernel, which only compares counts with the threshold, may prune
    pairs that cannot reach it.
    """
    threshold = _friend_threshold(graph, check_epsilon(epsilon))
    return sharing_subgraph(graph, threshold, keep=graph.degrees() >= threshold)


def _friend_threshold(graph: Graph, epsilon: float) -> float:
    """(1 - eps) * max_degree - THRESHOLD_TOL, for shared and friend counts."""
    return (1.0 - epsilon) * graph.max_degree - THRESHOLD_TOL


def classify_and_components(graph: Graph, friend_graph: Graph, epsilon: float) -> Decomposition:
    """Split vertices into sparse ones and almost-cliques.

    A vertex is dense when it has at least (1 - eps) * max_degree
    friends; almost-cliques are the connected components of the dense
    vertices under friend edges, each led by its smallest member ID.
    ``friend_graph`` must come from :func:`compute_friend_edges` at the
    same epsilon.
    """
    epsilon = check_epsilon(epsilon)
    n = graph.n
    membership = np.full(n, -1, dtype=np.int64)

    if graph.max_degree == 0:
        # Degenerate graphs have no triangles; everything is sparse.
        dense_mask = np.zeros(n, dtype=bool)
    else:
        dense_mask = friend_graph.degrees() >= _friend_threshold(graph, epsilon)

    dense_ids = np.flatnonzero(dense_mask)
    if dense_ids.size:
        # friend slots with both ends dense; friend counts are symmetric
        inner = np.repeat(dense_mask, friend_graph.degrees()) & dense_mask[friend_graph.indices]
        labels = slot_components(friend_graph, inner)[dense_ids]
        # labels cover all n vertices: renumber the dense ones' by leader,
        # the first position of each label
        _, first, component = np.unique(labels, return_index=True, return_inverse=True)
        membership[dense_ids] = np.argsort(np.argsort(first))[component]

    return Decomposition(epsilon=epsilon, friend_graph=friend_graph, membership=membership)


def decompose(graph: Graph, epsilon: float) -> Decomposition:
    """Convenience wrapper: friend edges plus classification."""
    friend_graph = compute_friend_edges(graph, epsilon)
    return classify_and_components(graph, friend_graph, epsilon)


def structural_metrics(
    graph: Graph, decomp: Decomposition, committed: np.ndarray | None = None
) -> StructuralMetrics:
    """External degrees, anti-degrees, weak diameters and clique sizes.

    Given the ``committed`` colors, metrics cover only uncolored vertices
    (the residual view of each clique); distances for the weak diameter
    are always measured in the full original graph. The counts read the
    live rows through :meth:`~deltacolor.graph.Graph.scan`. A clique
    whose anti-degrees sum to 0 has no apart pair, so its weak diameter
    (1, or 0 for at most one uncolored member) needs no distance count.
    """
    check_decomposition_of(graph, decomp)
    if committed is not None:
        committed = as_int64(committed, "committed colors")
        if committed.shape != (graph.n,):
            raise ValidationError(
                f"committed colors must hold one entry per vertex, shape ({graph.n},); "
                f"got shape {committed.shape}"
            )
        uncolored = committed == BLANK
    else:
        uncolored = np.ones(graph.n, dtype=bool)

    member = decomp.membership
    live = np.flatnonzero(uncolored & (member >= 0))
    own = member[live]
    inside = np.zeros(live.size, dtype=np.int64)
    external = np.zeros(live.size, dtype=np.int64)
    for block, neighbors, degrees in graph.scan(live):
        other = member[neighbors]
        counted = uncolored[neighbors] & (other >= 0)
        indptr = np.concatenate(([0], np.cumsum(degrees)))
        external[block] = segment_sum(counted, indptr)
        counted &= other == np.repeat(own[block], degrees)
        inside[block] = segment_sum(counted, indptr)
    external -= inside
    sizes = np.bincount(own, minlength=len(decomp.cliques))
    anti = sizes[own] - 1 - inside
    # twice each clique's count of uncolored non-adjacent member pairs
    apart = np.bincount(own, weights=anti, minlength=sizes.size)

    # report order: clique by clique, members ascending
    order = np.argsort(own, kind="stable")
    vertices = live[order].tolist()
    diameters = []
    for j, clique in enumerate(decomp.cliques):
        if apart[j] == 0:  # every pair of live members adjacent: no kernel call
            diameters.append(int(sizes[j] > 1))
            continue
        diameters.append(_weak_diameter(graph, clique.members[uncolored[clique.members]]))
    return StructuralMetrics(
        external_degree=dict(zip(vertices, external[order].tolist())),
        anti_degree=dict(zip(vertices, anti[order].tolist())),
        weak_diameter=diameters,
        clique_size=sizes.tolist(),
    )


def _weak_diameter(graph: Graph, members: np.ndarray) -> int:
    """Max pairwise distance in the full graph among ``members`` (sorted
    vertex IDs, at least two), reported as min(dist, 3): the theory
    promises at most 2, so a larger exact value carries no information."""
    counts = apart_common_counts(graph, members)
    if counts.size == 0:
        return 1
    return 2 if np.all(counts > 0) else DIAMETER_EXCEEDED


def decomposition_to_dict(
    decomp: Decomposition, metrics: StructuralMetrics | None = None
) -> dict:
    """JSON-exportable form of a decomposition (plus optional metrics)."""
    out: dict = {
        "epsilon": decomp.epsilon,
        "sparse": decomp.sparse.tolist(),
        "cliques": [{"leader": c.leader, "members": c.members.tolist()} for c in decomp.cliques],
    }
    if metrics is not None:
        out["metrics"] = {
            "external_degree": {str(v): d for v, d in sorted(metrics.external_degree.items())},
            "anti_degree": {str(v): a for v, a in sorted(metrics.anti_degree.items())},
            "weak_diameter": list(metrics.weak_diameter),
            "clique_size": list(metrics.clique_size),
        }
    return out
