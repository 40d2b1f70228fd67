"""Shared-neighbour counts |N(u) & N(v)|, for friend edges and weak
diameters. Callers hand over vertex IDs or a keep mask; how the counts
are taken (dense float32 row runs or scipy SpGEMM) and what each costs
is decided here, and no scipy matrix leaves the module."""

from __future__ import annotations

import math
from array import array

import numpy as np
from scipy.sparse import csr_matrix

from . import graph as graph_module
from .errors import ValidationError
from .graph import Graph, _subgraph, segment_sum

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
# product read under a floor (_run_keys). On dense-fallback
# (gnp:3000,0.5 at eps 0.1, floor about 1441, 4.3-4.4e6 pairs), seeds 1
# and 2, 1/8 of the columns left 4.9-5.7e4 pairs whose bound reaches the
# floor, 1/6 left 622-714 (on 95-100 rows) and 1/4 none. Yet 1/6 buys no
# time there: 12 interleaved compute_friend_edges calls per share took
# 303 against 305 ms (seed 1) and 297 against 299 ms (seed 2) in median,
# 1/6 faster in 6 and 7 of 12 pairs (in process, 2-vCPU x86 VM).
_PREFIX_SHARE = 0.25
# Rows sampled before the prune (_run_keys): 64 read the share of
# rows holding a survivor within 0.12 (two binomial deviations at one half).
_BOUND_ROWS = 64
# Largest sampled share of rows holding a survivor at which the prune pays (_prune_pays).
_HELD_SHARE = 0.5


def sharing_subgraph(graph: Graph, floor: float, keep: np.ndarray | None = None) -> Graph:
    """The edges uv of ``graph`` whose ends both lie in ``keep`` (a boolean
    mask over the vertices; all of them when None) and share at least
    ``floor`` neighbours, as a graph on the same vertices.

    The kept rows are cut into runs (:func:`_runs`) by their farthest kept
    neighbours (:func:`_farthest_partners`), without keying the slots, and
    cheap runs are joined (:func:`_join_runs`). Where the dense backend
    pays (:func:`_dense_runs_pay`), one product per run gives its edges
    (:func:`_dense_keys`). Otherwise SpGEMM counts the kept pairs as one
    run of every kept row (:func:`_sparse_keys`). Either way the edges
    leave through :func:`_friend_csr`.
    """
    keep = np.ones(graph.n, dtype=bool) if keep is None else np.asarray(keep, dtype=bool)
    if keep.shape != (graph.n,):
        raise ValidationError(f"keep mask has shape {keep.shape} for {graph.n} vertices")
    kept = np.flatnonzero(keep)
    runs = _runs(_farthest_partners(graph, keep, kept, np.cumsum(keep) - 1))
    if not runs.size:  # no edge has both ends kept
        return _subgraph(np.zeros(graph.n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64))
    degrees = graph.degrees()[kept]
    _check_exact(int(degrees.max()))
    # Bounds and counts are integers below 2**24, exact in float32, and so
    # is the least integer at or above the floor, which they are compared with.
    floor = math.ceil(floor)
    runs = _join_runs(runs, int(degrees.max()))
    if _dense_runs_pay(graph, keep, kept, runs):
        return _friend_csr(graph, kept, runs, _dense_keys(graph, kept, runs, degrees, floor))
    return _friend_csr(graph, kept, np.array([[0, kept.size]]), [_sparse_keys(graph, keep, kept, floor)])


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


def _dense_keys(graph: Graph, kept: np.ndarray, runs: np.ndarray, degrees: np.ndarray, floor: int):
    """Per run of ``runs`` over the kept rows ``kept`` (of ``degrees``),
    the keys :func:`_run_keys` reads off one dense product of its rows. A
    run of every kept row reads all n columns, any other only those its
    rows touch (:func:`_dense_rows`)."""
    whole = np.array_equal(runs, [[0, kept.size]])
    rank = None if whole else np.full(graph.n, -1, dtype=np.int64)  # per vertex: its column in a run
    for a, b in runs.tolist():
        read = _dense_rows(graph, kept[a:b], rank, a * graph.n)
        own = (slice(None) if kept.size == graph.n else kept) if whole else slice(0, b - a)
        yield _run_keys(read, own, degrees[a:b], floor)


def _sparse_keys(graph: Graph, keep: np.ndarray, kept: np.ndarray, floor: int) -> np.ndarray:
    """The keys i * k + j, ascending, of the adjacent pairs among the k
    kept rows ``kept`` (``keep`` as a mask) that share at least ``floor``
    neighbours. One scan of the kept rows (:meth:`Graph.scan`) lists the
    pairs, and SpGEMM counts them (:func:`_sparse_common_counts`)."""
    k = kept.size
    position = np.cumsum(keep) - 1
    pairs = []
    for block, neighbors, degrees in graph.scan(kept):
        keys = np.repeat(np.arange(block.start, block.stop) * k, degrees) + position[neighbors]
        pairs.append(keys[keep[neighbors]])
    pairs = np.concatenate(pairs)
    return pairs[_sparse_common_counts(graph, kept, pairs) >= floor]


def _friend_csr(graph: Graph, kept: np.ndarray, runs: np.ndarray, keys) -> Graph:
    """:func:`sharing_subgraph`'s graph from the keys of each run (a, b) of
    the kept rows ``kept`` in ``runs``, one array per run in ``keys``: the
    key i * (b - a) + j, ascending, is the edge from row a + i to row a + j.
    The keys ascend, so each row's first key places its edges.
    """
    degrees = np.zeros(kept.size, dtype=np.int64)
    partners = []
    for (a, b), run in zip(runs.tolist(), keys):
        size = b - a
        starts = np.searchsorted(run, np.arange(0, size * size + 1, size, dtype=run.dtype))
        degrees[a:b] = np.diff(starts)
        # a division by the scalar size is much cheaper than a remainder,
        # and numpy gathers faster by an int64 index than by an int32 one
        partners.append(kept[a:b][(run - run // size * size).astype(np.int64)])
    indptr = np.zeros(graph.n + 1, dtype=np.int64)
    indptr[kept + 1] = degrees
    np.cumsum(indptr, out=indptr)
    return _subgraph(indptr, partners[0] if len(partners) == 1 else np.concatenate(partners))


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

    M (plus the min) is read about ``graph.SLOT_BLOCK`` entries at a time,
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
    block = graph_module.SLOT_BLOCK
    step = max(block // b, 1)
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
        for lo in range(0, keys.size, block):
            i = keys[lo : lo + block] // b
            j = keys[lo : lo + block] - i * b
            counts[lo : lo + block] += rest[where[i] * held.size + where[j]]
        keys = keys[counts >= floor]
    return keys


def _dense_rows(graph: Graph, rows: np.ndarray, rank: np.ndarray | None = None, base: int = 0):
    """A reader, as :func:`_run_keys` takes it, of the vertices ``rows``
    as dense 0/1 float32 rows, the one way they are made.
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


def edge_common_counts(graph: Graph) -> np.ndarray:
    """|N(u) & N(v)| for every CSR slot (u, v), aligned with ``graph.indices``.

    Every count is exact, so slots (u, v) and (v, u) read the same. The
    slots, keyed u * n + v, are read off one dense product of all rows
    where that pays (:func:`_dense_pays`, one run) and its operand fits in
    memory, and counted by SpGEMM otherwise.
    """
    n, degrees = graph.n, graph.degrees()
    _check_exact(int(degrees.max()))
    vertices = np.arange(n)
    # int32 pair keys when they fit: less memory traffic on dense graphs
    pairs = np.repeat(vertices.astype(np.int32 if n * n < 2**31 else np.int64) * n, degrees)
    pairs += graph.indices
    if n * n <= _DENSE_OPERAND_ELEMENTS and _dense_pays(float(n) ** 3, 1, float(degrees @ degrees)):
        counts = _gram(_dense_rows(graph, vertices)())[pairs]
    else:
        counts = _sparse_common_counts(graph, vertices, pairs)
    return counts.astype(np.int64)


def apart_common_counts(graph: Graph, members: np.ndarray) -> np.ndarray:
    """|N(u) & N(v)|, exact, as float32, for every ordered pair of
    distinct non-adjacent ``members`` (m sorted vertex IDs), row-major.

    One rank-mode read of the members' dense rows (:func:`_dense_rows`),
    own columns first, holds their adjacency in its first m columns and
    their counts in its Gram matrix. Where it, or its m x m product,
    would exceed ``_DENSE_OPERAND_ELEMENTS``, the adjacency is read in
    row blocks within that bound and SpGEMM counts the pairs.
    """
    m = members.size
    _check_exact(int((graph.indptr[members + 1] - graph.indptr[members]).max()))
    rank = np.full(graph.n, -1, dtype=np.int64)
    read = _dense_rows(graph, members, rank)
    width = int(rank.max()) + 1
    whole = m * max(width, m) <= _DENSE_OPERAND_ELEMENTS
    if whole:
        dense = read()
        apart = np.flatnonzero(dense[:, :m] == 0)
    else:
        step = max(_DENSE_OPERAND_ELEMENTS // width, 1)
        blocks = range(0, m, step)
        apart = np.concatenate([np.flatnonzero(read(slice(a, a + step))[:, :m] == 0) + a * m for a in blocks])
    apart = apart[apart % (m + 1) != 0]  # the diagonal is no pair
    return _gram(dense)[apart] if whole else _sparse_common_counts(graph, members, apart)


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


def _sparse_common_counts(graph: Graph, rows: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Shared-neighbour counts, as float32, of ``pairs`` (ascending keys
    i * k + j) among the k vertices ``rows`` (sorted distinct IDs), by
    scipy SpGEMM in row blocks of bounded work. The operand, the rows'
    0/1 adjacency as a float32 CSR matrix, is built here.

    Each block's product is masked to its wanted pairs by an elementwise
    product, which keeps only nonzero wanted entries without sorting the
    product; those are placed by ``searchsorted`` on the pair keys.
    """
    k, degrees = rows.size, graph.degrees()
    chosen = np.zeros(graph.n, dtype=bool)
    chosen[rows] = True
    indices = graph.indices[np.repeat(chosen, degrees)]
    indptr = np.concatenate(([0], np.cumsum(degrees[rows])))
    matrix = csr_matrix((np.ones(indices.size, dtype=np.float32), indices, indptr), shape=(k, graph.n))
    transposed = matrix.T.tocsr()
    multiplies = segment_sum(np.diff(transposed.indptr)[matrix.indices], matrix.indptr)
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
        hit = (matrix[start:stop] @ transposed).multiply(mask).tocsr()
        keys = np.repeat(np.arange(start, stop, dtype=np.int64) * k, np.diff(hit.indptr))
        out[lo + np.searchsorted(wanted, keys + hit.indices)] = hit.data
    return out
