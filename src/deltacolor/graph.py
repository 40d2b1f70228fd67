"""Immutable simple undirected graph with integer vertex IDs 0..n-1."""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import ValidationError

# Reserved "blank" color: means "no color chosen / not yet colored".
# Real colors are integers >= 1 and palettes never contain the blank.
BLANK = 0

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

        Every such slot whose row is in ``rows`` (non-blank vertices;
        None means every row) is found. The same-color pairs are looked up
        by :meth:`adjacent` when that is cheaper (:func:`same_color_pairs`),
        which assumes the symmetric CSR that :func:`build_graph`
        guarantees, and may then also return other real same-color edges;
        otherwise ``rows`` are scanned (:meth:`scan`), and only a scan of
        every row tests for blank rows.
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

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v, lexicographically sorted."""
        src = self.slot_owners()
        keep = src < self.indices
        return np.column_stack((src[keep], self.indices[keep]))


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
    pairs = edges if isinstance(edges, np.ndarray) else list(edges)
    try:
        arr = np.asarray(pairs)
    except ValueError as exc:
        raise ValidationError("edges must be (u, v) pairs; got a ragged sequence") from exc
    if arr.size == 0:
        arr = np.zeros((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError(f"edges must be (u, v) pairs, an (m, 2) array; got shape {arr.shape}")
    arr = as_int64(arr, "edge pairs", pairs)

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


def as_int64(values, what: str, source=None) -> np.ndarray:
    """``values`` as an int64 array, tested before the cast: a non-integer
    dtype, or an unsigned value beyond the int64 maximum, raises
    :class:`ValidationError` rather than being truncated or wrapped. An
    empty input of any dtype gives an empty int64 array.

    ``np.asarray`` reads a bool beside integers as 0 or 1, so where
    ``values``, or the ``source`` it was converted from, is not an array,
    the entries that read 0 or 1 are type-tested
    (:func:`first_non_integer`); an array input costs no Python step."""
    arr = np.asarray(values)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValidationError(f"{what} must hold integers, not {arr.dtype}")
    source = values if source is None else source
    if arr.size and not isinstance(source, np.ndarray):
        maybe = np.argwhere((arr == 0) | (arr == 1)).tolist()
        if first_non_integer([reduce(operator.getitem, at, source) for at in maybe]) is not None:
            raise ValidationError(f"{what} must hold integers, not bool")
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


class RepeatedKeys(dict):
    """A JSON object whose keys repeat, as :func:`~deltacolor.io.read_json`
    reads it: a dict of each key's last value, as ``json.load`` keeps it,
    with every (key, value) pair in file order in ``pairs``."""

    def __init__(self, pairs: list[tuple[str, object]]):
        super().__init__(pairs)
        self.pairs = pairs

    def repeated(self) -> list[str]:
        """The keys written more than once, in the order of their first writing."""
        return [key for key, count in Counter(key for key, _ in self.pairs).items() if count > 1]


def vertex_map(data: dict, owner: str) -> dict[int, object]:
    """The values of the JSON object ``data`` by vertex ID, its keys read by
    :func:`vertex_ids`; two keys that name one vertex raise, naming both,
    as does one key written twice (:class:`RepeatedKeys`)."""
    keys, values = zip(*data.pairs) if isinstance(data, RepeatedKeys) else (list(data), data.values())
    vertices = vertex_ids(list(keys), f"{owner} key")
    by_vertex = dict(zip(vertices, values))
    if len(by_vertex) < len(vertices):
        named: dict[int, object] = {}  # the key that named each vertex
        for key, v in zip(keys, vertices):
            if v in named:
                raise ValidationError(f"{owner} names vertex {v} twice, by keys {named[v]!r} and {key!r}")
            named[v] = key
    return by_vertex


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


def _subgraph(indptr: np.ndarray, indices: np.ndarray) -> Graph:
    """A read-only :class:`Graph` on CSR arrays that already meet its invariants."""
    indptr.setflags(write=False)
    indices.setflags(write=False)
    return Graph(indptr.size - 1, indptr, indices, int(np.diff(indptr).max()))
