"""Immutable simple undirected graph with integer vertex IDs 0..n-1."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import ValidationError

# Reserved "blank" color: means "no color chosen / not yet colored".
# Real colors are integers >= 1 and palettes never contain the blank.
BLANK = 0

# float32 holds every integer below 2**24, so products of 0/1 float32 rows
# count shared neighbours exactly while row degrees stay below it.
_FLOAT32_EXACT = 2**24

# Price of one SpGEMM multiply in dense multiply-adds (_dense_pays).
_SPARSE_MULTIPLY = 2.4e-8 / 7e-12
# Fixed price of one dense row run in dense multiply-adds (_dense_pays, _join_runs).
_DENSE_RUN_MULTIPLIES = 7_000_000
# Memory bounds: the dense backend's float32 operand per run (b rows x
# the columns it reads, or b x b for its product if that is larger) and
# the multiplies in one sparse block.
_DENSE_OPERAND_ELEMENTS = 2**28
_SPARSE_BLOCK_MULTIPLIES = 2**22
# Share of the columns whose product bounds every pair of a whole dense
# product read under a floor (_dense_sharing). On dense-fallback
# (gnp:3000,0.5 at eps 0.1, floor about 1441, 4.3-4.4e6 pairs), seeds 1
# and 2, 1/8 of the columns left 4.9-5.7e4 pairs whose bound reaches the
# floor, 1/6 left 622-714 (on 95-100 rows) and 1/4 none. Yet 1/6 buys no
# time there: 12 interleaved compute_friend_edges calls per share took
# 303 against 305 ms (seed 1) and 297 against 299 ms (seed 2) in median,
# 1/6 faster in 6 and 7 of 12 pairs (in process, 2-vCPU x86 VM).
_PREFIX_SHARE = 0.25
# Rows sampled before the prune (_dense_sharing): 64 read the share of
# rows holding a survivor within 0.12 (two binomial deviations at one half).
_BOUND_ROWS = 64
# Largest sampled share of rows holding a survivor at which the prune pays (_prune_pays).
_HELD_SHARE = 0.5
_INT64_MAX = np.iinfo(np.int64).max
_INT32_MAX = np.iinfo(np.int32).max
# Most vertices: init_state's palette matrix, one row per vertex, holds at
# most 2**28 cells, so no run holds more. The square still fits in int64
# (build_graph's edge keys), and no n-sized array is allocated beyond it.
_MAX_VERTICES = 2**28
# CSR slots per block of a row scan (Graph.scan): the per-slot
# temporaries of one block stay in cache, and the heap reuses them from
# block to block instead of faulting in fresh pages for every call.
SLOT_BLOCK = 2**18
# Price of a masked read in gathered slots, per spanned slot and per row (_mask_pays).
MASK_SPAN = 10
MASK_ROW = 8
# Price of one same-colour pair lookup in scanned CSR slots (_pairs_pay).
PAIR_SLOTS = 40


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph in CSR form (sorted neighbor lists, no loops).

    Instances are immutable and safe to share across threads; construct
    them via :func:`build_graph` so the invariants (symmetry, no self
    loops, no duplicates, correct ``max_degree``) are enforced.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    max_degree: int

    @property
    def num_edges(self) -> int:
        return self.indices.size // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor IDs of ``v`` (a read-only view)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def slot_owners(self) -> np.ndarray:
        """The CSR row of every slot, aligned with ``indices``."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())

    def scan(self, rows: np.ndarray) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
        """The neighbours of ``rows`` (vertex IDs in any order, repeats
        allowed), one block at a time: ``rows`` is cut, in order, into
        runs of at most ``SLOT_BLOCK`` CSR slots (a row with more is a
        run of its own), and per run come its slice of ``rows``, the
        neighbours of those rows row after row, and each row's degree.

        A block of consecutive rows reads its neighbours as one slice of
        ``indices``. A block of ascending rows compresses its slot span by
        a row mask when that pays (:func:`_mask_pays`). Any other block
        gathers its slots one by one.
        """
        indptr, indices = self.indptr, self.indices
        starts = indptr[rows]
        degrees = indptr[rows + 1] - starts
        for block in _cut(degrees):
            part, wanted = rows[block], degrees[block]
            first, last = int(part[0]), int(part[-1])
            lo, hi = int(indptr[first]), int(indptr[last + 1])
            read = _read(part, hi - lo, int(wanted.sum()))
            if read == "slice":
                yield block, indices[lo:hi], wanted
            elif read == "mask":
                chosen = np.zeros(last - first + 1, dtype=bool)
                chosen[part - first] = True
                keep = np.repeat(chosen, np.diff(indptr[first : last + 2]))
                yield block, indices[lo:hi][keep], wanted
            else:
                ends = np.cumsum(wanted)
                slots = np.arange(int(ends[-1]), dtype=np.int64)
                slots += np.repeat(starts[block] - (ends - wanted), wanted)
                yield block, indices[slots], wanted

    def adjacent(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Whether ``v[i]`` is a neighbour of ``u[i]``, for every i: a
        binary search of each sorted CSR row, all pairs in step, in as
        many passes as the longest of these rows has bits."""
        lo, end = self.indptr[u], self.indptr[u + 1]
        hi = end.copy()
        last = self.indices.size - 1
        for _ in range(int((end - lo).max(initial=0)).bit_length()):
            # a pair whose range is empty keeps lo == hi == mid
            mid = (lo + hi) >> 1
            below = (self.indices[np.minimum(mid, last)] < v) & (lo < hi)
            lo = np.where(below, mid + 1, lo)
            hi = np.where(below, hi, mid)
        hit = lo < end
        hit[hit] = self.indices[lo[hit]] == v[hit]
        return hit

    def same_color_edges(
        self, colors: np.ndarray, rows: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every CSR slot (u, v) whose ends hold the same non-blank color
        in ``colors`` (one per vertex), as two aligned arrays, each edge
        by both of its slots, in no set order.

        ``rows`` must hold every non-blank vertex; None means every row.
        The same-color pairs are looked up by :meth:`adjacent` when that
        is cheaper (:func:`same_color_pairs`), which assumes the symmetric
        CSR that :func:`build_graph` guarantees; otherwise ``rows`` are
        scanned (:meth:`scan`), and only a scan of every row tests for
        blank rows.
        """
        every = rows is None
        if every:
            slots, rows = self.indices.size, np.arange(self.n)
        else:
            slots = int((self.indptr[rows + 1] - self.indptr[rows]).sum())
        pairs = same_color_pairs(colors, slots)
        if pairs is not None:
            hit = self.adjacent(*pairs)
            u, v = pairs[0][hit], pairs[1][hit]
            return np.concatenate((u, v)), np.concatenate((v, u))
        us, vs = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        for block, neighbors, degrees in self.scan(rows):
            part = rows[block]
            own = np.repeat(colors[part], degrees)
            same = own == colors[neighbors]
            if every:
                same &= own != BLANK
            clash = np.flatnonzero(same)
            if clash.size:
                us.append(part[np.searchsorted(np.cumsum(degrees), clash, side="right")])
                vs.append(neighbors[clash])
        return np.concatenate(us), np.concatenate(vs)

    def neighbor_set(self, v: int) -> set[int]:
        return set(int(w) for w in self.neighbors(v))

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v, lexicographically sorted."""
        src = self.slot_owners()
        keep = src < self.indices
        return np.column_stack((src[keep], self.indices[keep]))

    def sparse_adjacency(self, rows: np.ndarray | None = None) -> csr_matrix:
        """0/1 adjacency as a float32 scipy CSR matrix: every row, or the
        rows of the sorted distinct vertex IDs ``rows`` (len(rows) x n)."""
        if rows is None:
            indptr, indices = self.indptr, self.indices
        else:
            degrees = self.degrees()
            chosen = np.zeros(self.n, dtype=bool)
            chosen[rows] = True
            indices = self.indices[np.repeat(chosen, degrees)]
            indptr = np.zeros(len(rows) + 1, dtype=np.int64)
            np.cumsum(degrees[rows], out=indptr[1:])
        data = np.ones(indices.size, dtype=np.float32)
        return csr_matrix((data, indices, indptr), shape=(indptr.size - 1, self.n))


def build_graph(edges: Iterable[tuple[int, int]] | np.ndarray, n: int | None = None) -> Graph:
    """Build a :class:`Graph` from integer (u, v) pairs.

    ``edges`` is an (m, 2) integer array or an iterable of pairs, which
    ``np.asarray`` converts once; floats, strings and other non-integers
    are rejected, never truncated. Pairs are normalized (order ignored)
    and deduplicated. Self-loops, negative IDs and IDs at or beyond a
    declared ``n`` are rejected.

    Each pair becomes the undirected key ``lo * n + hi``. The keys are
    sorted and deduped only when one compare finds that they do not
    already ascend strictly, as they do for the sorted, unique pairs that
    :func:`~deltacolor.io.write_edge_list` writes; :func:`_csr_from_keys`
    then lays out the CSR.
    """
    try:
        arr = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    except ValueError as exc:
        raise ValidationError("edges must be (u, v) pairs; got a ragged sequence") from exc
    if arr.size == 0:
        arr = np.zeros((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError(f"edges must be (u, v) pairs, an (m, 2) array; got shape {arr.shape}")
    arr = as_int64(arr, "edge pairs")

    if arr.size and arr.min() < 0:
        raise ValidationError("vertex IDs must be nonnegative")
    if np.any(arr[:, 0] == arr[:, 1]):
        bad = int(arr[np.flatnonzero(arr[:, 0] == arr[:, 1])[0], 0])
        raise ValidationError(f"self-loop at vertex {bad}")

    inferred = int(arr.max()) + 1 if arr.size else 0
    if n is None:
        n = inferred
        if n == 0:
            raise ValidationError("cannot infer vertex count from an empty edge list; pass n")
    else:
        n = int(n)
        if n < 1:
            raise ValidationError("vertex count must be positive")
        if inferred > n:
            raise ValidationError(
                f"edge references vertex {inferred - 1} but only {n} vertices were declared"
            )
    if n > _MAX_VERTICES:
        raise ValidationError(
            f"{n} vertices exceed the limit of {_MAX_VERTICES}, "
            "the most rows a palette matrix may hold"
        )

    # Scalar keys lo * n + hi, deduped by one sort and an adjacent-difference
    # mask unless they already ascend strictly; n <= _MAX_VERTICES keeps
    # them, and the transposed keys of _csr_from_keys, in int64.
    keys = np.minimum(arr[:, 0], arr[:, 1]) * np.int64(n)
    keys += np.maximum(arr[:, 0], arr[:, 1])
    if not np.all(keys[1:] > keys[:-1]):
        keys.sort()
        keys = keys[np.diff(keys, prepend=-1) != 0]
    return _csr_from_keys(keys, n)


def _csr_from_keys(keys: np.ndarray, n: int) -> Graph:
    """The :class:`Graph` on ``n`` vertices whose edges are the strictly
    ascending int64 keys ``lo * n + hi`` (lo < hi < n), unchecked.

    Row r holds its lower neighbours, then its upper ones. The keys list
    each row's upper neighbours in order already; the lower ones come
    from one sort of the m transposed keys ``hi * n + lo``, and a mask
    over the 2m slots, row by row, places both. Both key arrays are
    int32 when every key fits, which halves their memory and the sort.
    """
    if n * n <= _INT32_MAX:  # so do the keys, which lie below it
        keys = keys.astype(np.int32)
    lo = keys // n
    hi = lo * n
    np.subtract(keys, hi, out=hi)
    transposed = hi * n
    transposed += lo
    del lo
    transposed.sort()
    # row starts of either key array: the keys ascend, so each row's
    # count is the difference of two binary searches
    starts = np.arange(n + 1, dtype=keys.dtype) * n
    above = np.diff(np.searchsorted(keys, starts))
    below = np.diff(np.searchsorted(transposed, starts))
    # each row's lower neighbours, in place
    rows = transposed // n
    rows *= n
    transposed -= rows
    del rows
    lower = np.repeat(np.tile([True, False], n), np.column_stack((below, above)).ravel())
    indices = np.empty(2 * keys.size, dtype=np.int64)
    indices[lower] = transposed
    del transposed
    indices[~lower] = hi
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(below + above, out=indptr[1:])
    return _subgraph(indptr, indices)


def as_int64(values, what: str) -> np.ndarray:
    """``values`` as an int64 array, tested before the cast: a non-integer
    dtype, or an unsigned value beyond the int64 maximum, raises
    :class:`ValidationError` rather than being truncated or wrapped. An
    empty input of any dtype gives an empty int64 array."""
    arr = np.asarray(values)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValidationError(f"{what} must hold integers, not {arr.dtype}")
    if arr.size and arr.dtype.kind == "u" and arr.max() > _INT64_MAX:
        raise ValidationError(f"{what} hold {int(arr.max())}, out of range: values must fit in int64")
    return arr.astype(np.int64, copy=False)


def first_non_integer(values: list) -> int | None:
    """Index of the first value that is not an int or a numpy integer
    (bools are not), or None. Only the distinct types are tested until
    one fails, so the all-integer case costs no Python step per value."""
    bad = {t for t in set(map(type, values)) if t is bool or not issubclass(t, (int, np.integer))}
    return next(i for i, x in enumerate(values) if type(x) in bad) if bad else None


def vertex_ids(keys: list, what: str) -> list[int]:
    """``keys`` as vertex IDs: integers (as in :func:`first_non_integer`) or
    strings of ASCII digits after an optional minus sign. The first other
    key raises :class:`ValidationError`, named after ``what``. Valid string
    keys are tested in one pass over their joined text, not key by key."""
    if not _vertex_keys(keys):
        for key in keys:
            if not _vertex_keys([key]):
                raise ValidationError(f"{what} {key!r} is not a vertex ID")
    return list(map(int, keys))


def _vertex_keys(keys: list) -> bool:
    try:
        text = "," + ",".join(keys)
    except TypeError:  # some key is not a string
        return first_non_integer(keys) is None
    digits = text.replace(",-", ",")  # one sign per key at most
    return (
        text.count(",") == len(keys)  # no key holds the separator
        and digits.isascii()
        and ",," not in digits + ","  # no key is empty
        and not digits.encode().translate(None, b",0123456789")
    )


def same_color_pairs(colors: np.ndarray, slots: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Every pair of vertices u < v whose entries in ``colors`` (one per
    vertex) are the same non-blank color, as two aligned arrays; or None
    when looking the pairs up does not pay against a scan of ``slots``
    CSR slots (:func:`_pairs_pay`). Only their count decides, so the
    pairs are listed only when they are used.

    k distinct colors among d colored vertices make at least
    d²/(2k) − d/2 pairs, and k is at most the span of the colors (the
    blank included), so a call that this bound refuses reads only the
    count, min and max of ``colors``; the others sort the colors once.
    """
    d = int(np.count_nonzero(colors))  # the blank is 0
    if d < 2:
        none = np.zeros(0, dtype=np.int64)
        return none, none
    distinct = min(d, int(colors.max()) - int(colors.min()) + 1)
    if not _pairs_pay(d * d / (2 * distinct) - d / 2, slots):
        return None
    vertices = np.flatnonzero(colors != BLANK)
    order = np.argsort(colors[vertices], kind="stable")
    ordered = colors[vertices[order]]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    sizes = np.diff(np.append(starts, d))
    if not _pairs_pay(int((sizes * (sizes - 1) // 2).sum()), slots):
        return None
    # sorted position p pairs with the later positions of its run
    later = np.repeat(starts + sizes, sizes) - np.arange(1, d + 1)
    first = np.repeat(np.arange(d), later)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
    return vertices[order[first]], vertices[order[second]]


def _pairs_pay(pairs: float, slots: int) -> bool:
    """Whether listing ``pairs`` same-colour pairs and looking them up by
    :meth:`Graph.adjacent` costs less than scanning ``slots`` CSR slots,
    at ``PAIR_SLOTS`` slots a pair. Timed on a 2-vCPU x86 VM (numpy 2.4),
    both paths on every call of full runs of the three benchmark
    workloads (seed 11), with every scan reading through
    :meth:`Graph.scan`: a pair costs 150-250 ns once thousands are looked
    up (8 to 11 binary-search passes), a slot 5-10 ns in the conflict and
    properness scans, so the paths tie between 29 and 50 slots per pair
    (properness on mixed-main: 9.7e3 pairs took 2.6 ms against 3.5 ms of
    scanning 6.3e5 slots, 1.6e4 pairs 3.9 ms against 3.5 ms)."""
    return pairs * PAIR_SLOTS < slots


def _cut(degrees: np.ndarray) -> list[slice]:
    """Rows of the given degrees cut, in order, into the runs of
    :meth:`Graph.scan`, as slices; no rows give no runs. Rows whose slots
    all fit in one block are one run, found with no search."""
    block = SLOT_BLOCK
    ends = np.cumsum(degrees)
    if ends.size and ends[-1] <= block:
        return [slice(0, degrees.size)]
    out = []
    start = 0
    while start < degrees.size:
        before = int(ends[start - 1]) if start else 0
        stop = max(int(np.searchsorted(ends, before + block, side="right")), start + 1)
        out.append(slice(start, stop))
        start = stop
    return out


def _read(rows: np.ndarray, span: int, wanted: int) -> str:
    """How :meth:`Graph.scan` reads a block of ``rows`` (at least one)
    that wants ``wanted`` CSR slots, ``span`` slots lying from the first
    row's first slot to the last row's end: ``"slice"`` for consecutive
    rows, ``"mask"`` for ascending rows where the row mask costs at most
    the gather (:func:`_mask_pays`), and ``"gather"`` for all others."""
    if not (np.diff(rows) > 0).all():
        return "gather"
    reach = int(rows[-1]) - int(rows[0]) + 1
    if reach == rows.size:
        return "slice"
    return "mask" if _mask_pays(span, reach, wanted) else "gather"


def _mask_pays(span: int, reach: int, wanted: int) -> bool:
    """Whether a row mask reads a block of ascending rows with gaps at most
    as dearly as gathering its ``wanted`` slots: the mask costs one
    gathered slot (4-7 ns) per ``MASK_SPAN`` slots of its ``span``
    (0.35-0.4 ns each) and ``MASK_ROW`` per row of its ``reach`` (about
    30 ns). Timed on a 2-vCPU x86 VM (numpy 2.4), both reads of each of
    the 67 such blocks of seed-11 runs of the three benchmark workloads:
    the rule picked the faster one every time."""
    return span // MASK_SPAN + MASK_ROW * reach <= wanted


def segment_sum(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-segment sum over a CSR layout; empty segments yield 0.

    reduceat is only fed the starts of non-empty segments: empty ones
    would otherwise swallow an element of the preceding segment. It sums
    in int64 as it reads, without an int64 copy of ``values``.
    """
    m = indptr.size - 1
    sums = np.zeros(m, dtype=np.int64)
    if values.size == 0:
        return sums
    nonempty = np.diff(indptr) > 0
    sums[nonempty] = np.add.reduceat(values, indptr[:-1][nonempty], dtype=np.int64)
    return sums


def slot_components(graph: Graph, mask: np.ndarray) -> np.ndarray:
    """Connected-component label of every vertex under the CSR slots that
    ``mask`` (a boolean mask aligned with ``graph.indices``) selects.

    The mask must be symmetric: slot (u, v) is selected exactly when slot
    (v, u) is. In a symmetric graph every path can be walked back, so
    the strongly connected components are the connected components, and
    scipy finds them without the transpose its undirected search builds.
    On an asymmetric mask the strong components only split finer: two
    vertices share a label only when each reaches the other.
    Labels are scipy's, with no promised order; a vertex with no
    selected slot is a component of its own.
    """
    indptr = np.zeros(graph.n + 1, dtype=np.int64)
    np.cumsum(segment_sum(mask, graph.indptr), out=indptr[1:])
    indices = graph.indices[mask]
    # float64, the weight type scipy's graph routines would otherwise cast to
    adjacency = csr_matrix((np.ones(indices.size), indices, indptr), shape=(graph.n, graph.n))
    return connected_components(adjacency, directed=True, connection="strong")[1]


def _keep_mask(graph: Graph, keep: np.ndarray | None) -> np.ndarray:
    """``keep`` as a boolean mask over the vertices, every one when None."""
    keep = np.ones(graph.n, dtype=bool) if keep is None else np.asarray(keep, dtype=bool)
    if keep.shape != (graph.n,):
        raise ValidationError(f"keep mask has shape {keep.shape} for {graph.n} vertices")
    return keep


def _subgraph(indptr: np.ndarray, indices: np.ndarray) -> Graph:
    """A read-only :class:`Graph` on CSR arrays that already meet its invariants."""
    indptr.setflags(write=False)
    indices.setflags(write=False)
    return Graph(indptr.size - 1, indptr, indices, int(np.diff(indptr).max()))


def sharing_subgraph(graph: Graph, floor: float, keep: np.ndarray | None = None) -> Graph:
    """The edges uv of ``graph`` whose ends both lie in ``keep`` (a boolean
    mask over the vertices; all of them when None) and share at least
    ``floor`` neighbours, as a graph on the same vertices.

    The kept rows are cut into runs (:func:`_runs`) by their farthest kept
    neighbours (:func:`_farthest_partners`), without keying the slots, and
    cheap runs are joined (:func:`_join_runs`). Where the dense backend
    pays (:func:`_dense_runs_pay`), :func:`_dense_sharing` reads the edges
    off one product per run. Otherwise the exact counts of
    :func:`edge_common_counts` are compared with ``floor``.
    """
    keep = _keep_mask(graph, keep)
    kept = np.flatnonzero(keep)
    runs = _runs(_farthest_partners(graph, keep, kept, np.cumsum(keep) - 1))
    if not runs.size:  # no edge has both ends kept
        return _subgraph(np.zeros(graph.n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64))
    runs = _join_runs(runs, int(graph.degrees()[kept].max()))
    if _dense_runs_pay(graph, keep, kept, runs):
        return _dense_sharing(graph, kept, runs, floor)
    counts = edge_common_counts(graph, keep)
    slots = np.flatnonzero(counts >= max(floor, 0))  # unkept slots read -1
    return _subgraph(np.searchsorted(slots, graph.indptr), graph.indices[slots])


def _dense_runs_pay(graph: Graph, keep: np.ndarray, kept: np.ndarray, runs: np.ndarray) -> bool:
    """Whether dense reads of the kept rows ``kept`` (``keep`` as a mask)
    in ``runs`` fit (b x max(w, b) elements for b rows over w columns) and
    cost less than SpGEMM (:func:`_dense_pays`). A run of every kept row
    reads all n columns, any other its own rows and at most one more per
    slot. SpGEMM multiplies the squared kept degrees of the columns, read
    off the unkept rows' slots."""
    n = graph.n
    degrees = graph.degrees()
    sizes = (runs[:, 1] - runs[:, 0]).astype(np.float64)
    slots = np.concatenate(([0], np.cumsum(degrees[kept])))
    widths = np.minimum(sizes + slots[runs[:, 1]] - slots[runs[:, 0]], n)
    if np.array_equal(runs, [[0, kept.size]]):
        widths[:] = n
    if np.max(sizes * np.maximum(widths, sizes)) > _DENSE_OPERAND_ELEMENTS:
        return False
    for _, neighbors, _ in graph.scan(np.flatnonzero(~keep)):
        degrees -= np.bincount(neighbors, minlength=n)
    return _dense_pays(sizes * sizes @ widths, sizes.size, float(degrees @ degrees))


def _runs(far: np.ndarray) -> np.ndarray:
    """The runs of rows whose farthest partners (row places, -1 for none)
    are ``far``, their pairs being symmetric: the maximal blocks of
    consecutive rows that no pair crosses, those that hold a pair, as
    (first, stop) rows. A run ends at a row that no row at or above it
    reaches past; a row alone holds no pair."""
    row = np.arange(far.size)
    stops = np.flatnonzero(np.maximum.accumulate(np.maximum(far, row)) == row) + 1
    firsts = np.concatenate(([0], stops))[:-1]
    paired = stops - firsts > 1
    return np.column_stack((firsts[paired], stops[paired]))


def _join_runs(runs: np.ndarray, degree: int) -> np.ndarray:
    """``runs`` (first, stop rows) of rows of degree at most ``degree``
    joined, in order, into runs read as one, rows between them included.
    b such rows make a product of at most b² (b + b · ``degree``)
    multiply-adds, and runs join while that stays within one run's fixed
    price, ``_DENSE_RUN_MULTIPLIES``, so they cost less together than
    apart. A longer run stays alone."""
    most = int((_DENSE_RUN_MULTIPLIES / (1 + degree)) ** (1 / 3))
    firsts, stops = runs[:, 0], runs[:, 1]
    # per run, the end of the runs that stop within that many rows of its first
    ends = np.searchsorted(stops, firsts + most, side="right")
    heads = [0]
    while heads[-1] < len(runs):
        heads.append(max(int(ends[heads[-1]]), heads[-1] + 1))
    return np.column_stack((firsts[heads[:-1]], stops[np.array(heads[1:]) - 1]))


def _farthest_partners(
    graph: Graph, keep: np.ndarray, kept: np.ndarray, position: np.ndarray
) -> np.ndarray:
    """Per kept row (``kept``, ascending vertex IDs), the place among the
    kept rows (``position``, per vertex) of its farthest kept neighbour,
    or -1 where it has none; or lower bounds of these places where they
    already cut the rows into one run of :func:`_runs`.

    CSR rows are sorted, so a row's last slot gives its farthest kept
    neighbour where that neighbour is kept, and a kept first neighbour
    bounds it from below otherwise. Only when these bounds leave a cut
    are the rows whose last neighbour is not kept scanned for it."""
    starts, ends = graph.indptr[kept], graph.indptr[kept + 1]
    held = np.flatnonzero(ends > starts)
    last = graph.indices[ends[held] - 1]
    far = np.full(kept.size, -1, dtype=np.int64)
    far[held] = position[last]
    rows = held[~keep[last]]
    first = graph.indices[starts[rows]]
    far[rows] = np.where(keep[first], position[first], -1)
    if not rows.size or np.array_equal(_runs(far), [[0, kept.size]]):
        return far
    for block, neighbors, degrees in graph.scan(kept[rows]):
        marks = np.where(keep[neighbors], position[neighbors], -1)
        # every scanned row has a slot, so the segment starts ascend strictly
        far[rows[block]] = np.maximum.reduceat(marks, np.cumsum(degrees) - degrees)
    return far


def _dense_sharing(graph: Graph, kept: np.ndarray, runs: np.ndarray, floor: float) -> Graph:
    """:func:`sharing_subgraph` from one dense float32 product per run
    of the k kept rows ``kept``. A run of every kept row reads all n
    columns, any other only those its rows touch (:func:`_dense_rows`).
    :func:`_run_keys` finds a run's edges as keys i * b + j among its b
    rows, placed as keys i * k + j among the kept rows; these ascend, so
    each kept row's first key places its edges.
    """
    k, n = kept.size, graph.n
    degrees = graph.degrees()[kept]
    _check_exact(int(degrees.max()))
    # Bounds and counts are integers below 2**24, exact in float32, and so
    # is the least integer at or above the floor, which they are compared with.
    floor = math.ceil(floor)
    if np.array_equal(runs, [[0, k]]):
        keys = _run_keys(_dense_rows(graph, kept), slice(None) if k == n else kept, degrees, floor)
    else:
        kind = np.int32 if k * k <= _INT32_MAX else np.int64
        found = array("i" if kind is np.int32 else "q")
        rank = np.full(n, -1, dtype=np.int64)  # per vertex: its column in a run
        for a, b in runs.tolist():
            read = _dense_rows(graph, kept[a:b], rank, a * n)
            keys = _run_keys(read, slice(0, b - a), degrees[a:b], floor).astype(kind)
            # the local key i * (b - a) + j is row a + i, partner a + j
            keys += keys // (b - a) * (k - b + a) + a * (k + 1)
            found.frombytes(keys.tobytes())
        keys = np.frombuffer(found, dtype=kind)
    # a division by the scalar k is much cheaper than a remainder
    starts = np.searchsorted(keys, np.arange(k + 1, dtype=keys.dtype) * k)
    out = np.zeros(n + 1, dtype=np.int64)
    out[kept + 1] = np.diff(starts)
    np.cumsum(out, out=out)
    partners = keys - keys // k * k
    return _subgraph(out, partners.astype(np.int64) if k == n else kept[partners])


def _run_keys(read, own, degrees: np.ndarray, floor: int) -> np.ndarray:
    """The keys i * b + j, ascending, of the pairs of a run's b rows
    (``degrees``) that are adjacent and share at least ``floor``
    neighbours. ``read(held, first)`` gives the dense float32 rows
    ``held`` (all by default) from column ``first`` on; ``own`` picks the
    run's rows among the columns.

    M is the whole product, unless the prune pays. Under the prune, M is
    P, the product over the first ⌈``_PREFIX_SHARE`` · w⌉ of the w
    columns, and with ``left[i]``, row i's degree in the others, count(i,
    j) <= P(i, j) + min(left[i], left[j]). The prune pays when about
    ``_BOUND_ROWS`` evenly spaced rows say so (:func:`_prune_pays`).

    M (plus the min) is read about ``SLOT_BLOCK`` entries at a time,
    skipping blocks with no entry at the floor. Entries at the floor whose
    rows are adjacent, as the dense rows say, are kept: the edges, or the
    survivors, which add the other columns' product over the rows that
    hold one and are compared again. Non-edges may pass the bound (on a
    bipartite graph every pair on one side does); the adjacency test
    drops them before any key is listed.
    """
    dense = read()
    b, width = dense.shape
    cut = math.ceil(width * _PREFIX_SHARE)
    head = dense[:, :cut]  # numpy multiplies this view without a copy
    left = degrees.astype(np.float32) - head.sum(axis=1)
    sample = slice(0, b, max(b // _BOUND_ROWS, 1))  # views, not copies
    reach = head[sample] @ head.T
    reach += np.minimum.outer(left[sample], left)
    # sampled rows that hold a survivor: a partner whose bound reaches the floor
    reach = (reach >= floor) & (dense[sample][:, own] > 0)
    prune = _prune_pays(int(np.count_nonzero(reach.any(axis=1))), reach.shape[0])
    del reach
    matrix = _gram(head if prune else dense).reshape(b, b)
    np.fill_diagonal(matrix, -np.inf)  # a row is no partner of its own
    step = max(SLOT_BLOCK // b, 1)
    # the keys of the entries kept, as C ints (b * b fits), in a buffer
    # that grows without one array object per block
    found = array("i")
    for a in range(0, b, step):
        bound = matrix[a : a + step]
        if prune:
            bound = np.minimum.outer(left[a : a + step], left) + bound
        hit = bound >= floor
        if hit.any():
            hit &= dense[a : a + step, own] > 0
            found.frombytes((np.flatnonzero(hit) + a * b).astype(np.intc).tobytes())
    del dense, head
    keys = np.frombuffer(found, dtype=np.intc)
    if prune and keys.size:
        keys = keys.copy()  # without the buffer's spare room
        del found
        # counts are integers, exact in any order of summation, so the bound
        # is symmetric: the rows holding a survivor are its first rows
        marked = np.zeros(b, dtype=bool)
        marked[keys // b] = True
        held = np.flatnonzero(marked)
        counts = matrix.ravel()[keys]
        del matrix  # the survivors' product reuses its memory
        rest = _gram(read(held, cut))
        where = np.cumsum(marked) - 1  # among the held rows; h * h fits
        for lo in range(0, keys.size, SLOT_BLOCK):
            i = keys[lo : lo + SLOT_BLOCK] // b
            j = keys[lo : lo + SLOT_BLOCK] - i * b
            counts[lo : lo + SLOT_BLOCK] += rest[where[i] * held.size + where[j]]
        keys = keys[counts >= floor]
    return keys


def _dense_rows(graph: Graph, rows: np.ndarray, rank: np.ndarray | None = None, base: int = 0):
    """A reader, as :func:`_run_keys` takes it, of the vertices ``rows``.
    With no ``rank``, over all n columns, each row set from its own CSR
    slots. Otherwise over the columns their slots touch, ``rows`` first:
    column c is the vertex whose ``rank`` entry reads ``base`` + c. Runs
    share ``rank`` (-1 at first), each with a base past every entry an
    earlier one set, so no entry is reset; their rows are scanned
    (:meth:`Graph.scan`) once to number the columns and once per read.
    """
    indptr, indices = graph.indptr, graph.indices
    width = graph.n
    if rank is not None:
        rank[rows] = np.arange(base, base + rows.size)
        width = rows.size
        for _, neighbors, _ in graph.scan(rows):
            new = neighbors[rank[neighbors] < base]
            if new.size:
                # each new column is marked by its last slot, then numbered
                marks = np.arange(-2, -2 - new.size, -1)
                rank[new] = marks
                new = new[rank[new] == marks]
                rank[new] = np.arange(base + width, base + width + new.size)
                width += new.size

    def read(held=slice(None), first=0):
        part = rows[held]
        out = np.zeros((part.size, width - first), dtype=np.float32)
        if rank is None:
            for row, v in zip(out, part.tolist()):
                x = indices[indptr[v] : indptr[v + 1]]
                row[x[np.searchsorted(x, first) :] - first if first else x] = 1
            return out
        for block, neighbors, degrees in graph.scan(part):
            columns = rank[neighbors] - (base + first)
            at = np.repeat(np.arange(block.start, block.stop), degrees), columns
            if first:
                at = at[0][columns >= 0], columns[columns >= 0]
            out[at] = 1
        return out

    return read


def edge_common_counts(graph: Graph, keep: np.ndarray | None = None) -> np.ndarray:
    """|N(u) & N(v)| for every CSR slot (u, v), aligned with ``graph.indices``.

    Only slots whose endpoints both lie in ``keep`` (a boolean mask over
    the vertices; all of them when None) are counted; the others read -1.
    Every count is exact (see :func:`common_counts`), so slots (u, v) and
    (v, u) read the same.
    """
    keep = _keep_mask(graph, keep)
    degrees = graph.degrees()
    counted = np.repeat(keep, degrees) & keep[graph.indices]
    k = int(np.count_nonzero(keep))
    # int32 pair keys when they fit: less memory traffic on dense graphs
    position = (np.cumsum(keep) - 1).astype(np.int32 if k * k < 2**31 else np.int64)
    pairs = np.repeat(position * k, degrees)
    pairs += position[graph.indices]
    pairs = pairs[counted]
    out = np.full(graph.indices.size, -1, dtype=np.int64)
    if pairs.size:
        out[counted] = common_counts(graph.sparse_adjacency(np.flatnonzero(keep)), pairs)
    return out


def common_counts(rows: csr_matrix, pairs: np.ndarray) -> np.ndarray:
    """Shared-neighbour counts between rows of a 0/1 adjacency row matrix.

    ``rows`` holds k vertices' adjacency rows (k x n, as from
    :meth:`Graph.sparse_adjacency`); ``pairs`` are ascending row-major
    keys i * k + j, and entry t of the result counts the columns set in
    both rows of pair t, exactly, as a float32. A key and its mirror
    j * k + i, where both are asked for, read the same.

    The backend is a row-blocked sparse product (one multiply per two
    entries sharing a column), or one dense float32 product of the whole
    rows where that pays (:func:`_dense_pays`, one run over all n
    columns) and its operand fits in memory.
    """
    k, n = rows.shape
    _check_exact(int(np.diff(rows.indptr).max(initial=0)))
    column_degrees = np.asarray(rows.sum(axis=0), dtype=np.float64).ravel()
    if k * max(n, k) <= _DENSE_OPERAND_ELEMENTS and _dense_pays(
        float(k) * k * n, 1, column_degrees @ column_degrees
    ):
        return _gram(rows.toarray())[pairs]
    return _sparse_common_counts(rows, pairs)


def _check_exact(degree: int) -> None:
    """Refuse rows of ``degree`` or more neighbours, whose float32 shared
    counts could round."""
    if degree >= _FLOAT32_EXACT:
        raise ValidationError(f"shared-neighbour counts need degrees below {_FLOAT32_EXACT}")


def _dense_pays(multiplies: float, runs: int, sparse_multiplies: float) -> bool:
    """Whether dense products, ``multiplies`` multiply-adds over ``runs``
    row runs, cost less than the
    ``sparse_multiplies`` multiplies of SpGEMM, all priced in dense
    multiply-adds: ``_SPARSE_MULTIPLY`` per sparse multiply and
    ``_DENSE_RUN_MULTIPLIES`` per run.

    Calibrated on a 2-vCPU x86 VM (numpy 2.4 with OpenBLAS, scipy 1.17):
    an SpGEMM multiply took 2.4e-8 s near the crossover (gnp:2000,0.02),
    a dense multiply-add 7e-12 s. Denser graphs run cheaper per sparse
    multiply, but there the dense product wins by 7x or more anyway. The
    per-run price was timed on runs too small for their product to
    count: 1500-5000 disjoint K_2 to K_8 in contiguous ID ranges, with
    and without 2e4 unkept vertices, took 44-53 us per run (median 50,
    7e6 multiply-adds), so thousands of tiny runs go to SpGEMM.
    """
    return multiplies + _DENSE_RUN_MULTIPLIES * runs < _SPARSE_MULTIPLY * sparse_multiplies


def _prune_pays(held: int, sampled: int) -> bool:
    """Whether :func:`_run_keys` tries the prune, given that ``held``
    of ``sampled`` rows hold a pair whose bound reaches the floor: at
    most ``_HELD_SHARE`` of them. The survivors' product runs over every
    row that holds one, so its cost follows those rows, not the
    surviving pairs.

    Measured in process on seed 1 (2-vCPU x86 VM), with the prune always
    tried, against the whole product read: on gnp:3000,0.5 at eps 0.16,
    0.17, 0.18 and 0.19 the sample finds survivors on 47 %, 71 %, 89 %
    and 97 % of its rows, and compute_friend_edges took 0.84x, 1.20x,
    1.47x and 1.73x the time (medians of 7 interleaved calls); on
    gnp:2500,0.9 at eps 0.03 and 0.04, 29 % and 80 %, 0.86x and 1.51x.
    The two cross near 58 %, and the cut-off sits below it by about the
    sample's error (``_BOUND_ROWS``).
    """
    return held <= _HELD_SHARE * sampled


def _gram(dense: np.ndarray) -> np.ndarray:
    """Every dot product of two rows of ``dense``, row-major and flat.
    numpy runs ``d @ d.T`` as a symmetric rank-k update, half the work
    of a general product per row block."""
    return (dense @ dense.T).ravel()


def _sparse_common_counts(rows: csr_matrix, pairs: np.ndarray) -> np.ndarray:
    """:func:`common_counts` by scipy SpGEMM, in row blocks of bounded work.

    Each block's product is masked to its wanted pairs by an elementwise
    product, which keeps only nonzero wanted entries without sorting the
    product; those are placed by ``searchsorted`` on the pair keys.
    """
    k = rows.shape[0]
    transposed = rows.T.tocsr()
    multiplies = segment_sum(np.diff(transposed.indptr)[rows.indices], rows.indptr)
    before = np.cumsum(multiplies) - multiplies
    starts = np.flatnonzero(np.diff(before // _SPARSE_BLOCK_MULTIPLIES, prepend=-1))
    out = np.zeros(pairs.size, dtype=np.float32)
    for start, stop in zip(starts, np.append(starts[1:], k)):
        lo, hi = np.searchsorted(pairs, (start * k, stop * k))
        if lo == hi:
            continue
        wanted = pairs[lo:hi]
        mask = csr_matrix(
            (
                np.ones(wanted.size, dtype=np.float32),
                wanted % k,
                np.searchsorted(wanted, np.arange(start, stop + 1) * k),
            ),
            shape=(stop - start, k),
        )
        hit = (rows[start:stop] @ transposed).multiply(mask).tocsr()
        keys = np.repeat(np.arange(start, stop, dtype=np.int64) * k, np.diff(hit.indptr))
        out[lo + np.searchsorted(wanted, keys + hit.indices)] = hit.data
    return out
