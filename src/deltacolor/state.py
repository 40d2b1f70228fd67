"""Mutable partial-coloring state: residual palettes, degrees, surplus.

The state tracks, per vertex, the residual palette Pal(v), the committed
color chi(v), the residual palette size Q(v) and the residual degree
d(v) (uncolored neighbors). A step's tentative colors A(v) live only
inside that step. The surplus S(v) = Q(v) - d(v) never decreases under
commits: a committed neighbor always costs one degree and at most one
palette entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from .errors import InvariantViolation, ValidationError
from .graph import BLANK, Graph, as_int64, segment_sum
from .palettes import common_range, palette_table

# Most cells of the vertex-by-colour palette matrix: the state holds it
# twice, and a commit builds one more of its size (its colour-major marks),
# so init_state checks the size before allocating. A recount builds one
# for a block of rows, and a pick reads the palette in blocks of
# graph.SLOT_BLOCK cells.
_MAX_PALETTE_CELLS = 2**28


@dataclass(eq=False)
class ColoringState:
    """Single-writer partial-coloring state for one run on one graph.

    Palettes are stored as a boolean matrix over the distinct colors
    appearing in any palette; ``color_values`` (ascending) maps column ->
    color. ``committed`` holds color values, 0 = blank.
    """

    graph: Graph
    color_values: np.ndarray
    original_palette: np.ndarray
    palette: np.ndarray
    committed: np.ndarray
    residual_palette_size: np.ndarray
    residual_degree: np.ndarray
    has_oversized_palettes: bool

    @property
    def num_colors(self) -> int:
        return self.color_values.size

    def uncolored_mask(self) -> np.ndarray:
        return self.committed == BLANK

    def num_uncolored(self) -> int:
        return int(np.count_nonzero(self.committed == BLANK))

    def surplus(self) -> np.ndarray:
        """S(v) = Q(v) - d(v); meaningful for uncolored vertices."""
        return self.residual_palette_size - self.residual_degree

    def color_columns(self, colors: np.ndarray) -> np.ndarray:
        """Palette column of each color; ``num_colors`` for the blank and
        any other value that is in no palette."""
        columns = np.searchsorted(self.color_values, colors)
        found = self.color_values[np.minimum(columns, self.num_colors - 1)] == colors
        columns[~found] = self.num_colors
        return columns

    def in_residual_palette(self, vertices: np.ndarray, colors: np.ndarray) -> np.ndarray:
        """True where ``colors[i]`` is in the residual palette of ``vertices[i]``."""
        return self._holds(self.palette, vertices, colors)

    def outside_palette(self) -> np.ndarray:
        """The colored vertices, ascending, whose committed color is not in
        their original palette."""
        colored = np.flatnonzero(self.committed != BLANK)
        return colored[~self._holds(self.original_palette, colored, self.committed[colored])]

    def _holds(self, palette: np.ndarray, vertices: np.ndarray, colors: np.ndarray) -> np.ndarray:
        columns = self.color_columns(colors)
        found = columns < self.num_colors
        return found & palette[vertices, np.where(found, columns, 0)]


def init_state(graph: Graph, palettes: Sequence[Sequence[int]]) -> ColoringState:
    """Validate palettes and build a fresh state.

    ``palettes`` is a :class:`~deltacolor.palettes.PaletteTable`, or any
    sequence of color collections, which goes through the same builder,
    :func:`~deltacolor.palettes.palette_table`, and so the same integer
    rule. Every palette must have at least max_degree + 1 colors, all >= 1
    (the blank 0 is reserved); a color listed twice counts once.
    Oversized palettes are accepted but flagged, because the good-color
    diagnostic is calibrated for palettes of exactly max_degree + 1
    colors. Canonical palettes, ``range(1, max_degree + 2)`` for every
    vertex, are never expanded.
    """
    if len(palettes) != graph.n:
        raise ValidationError(f"expected {graph.n} palettes, got {len(palettes)}")
    need = graph.max_degree + 1

    if common_range(palettes) == range(1, need + 1):
        values = np.arange(1, need + 1, dtype=np.int64)
        _check_palette_cells(graph.n, values.size)
        pal = np.ones((graph.n, need), dtype=bool)
        oversized = False
    else:
        table = palette_table(palettes)
        flat = table.colors
        owner = np.repeat(np.arange(graph.n), np.diff(table.offsets))
        values, column = _palette_columns(flat)
        _check_palette_cells(graph.n, values.size)
        # the scatter dedupes colors listed twice in one palette
        pal = np.zeros((graph.n, values.size), dtype=bool)
        pal.reshape(-1)[owner * values.size + column] = True
        sizes = np.count_nonzero(pal, axis=1)
        bad = sizes < need
        bad[owner[flat <= BLANK]] = True
        if bad.any():
            v = int(np.argmax(bad))
            reserved = flat[(owner == v) & (flat <= BLANK)]
            if reserved.size:
                raise ValidationError(
                    f"palette of vertex {v} contains reserved/invalid color {int(reserved.min())}"
                )
            raise ValidationError(
                f"palette of vertex {v} has {int(sizes[v])} colors, need at least {need}"
            )
        oversized = bool(np.any(sizes > need))

    original = pal.copy()
    original.setflags(write=False)
    state = ColoringState(
        graph=graph,
        color_values=values,
        original_palette=original,
        palette=pal,
        committed=np.zeros(graph.n, dtype=np.int64),
        residual_palette_size=pal.sum(axis=1).astype(np.int64),
        residual_degree=graph.degrees().astype(np.int64),
        has_oversized_palettes=oversized,
    )
    return state


def _palette_columns(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct colors of ``flat``, ascending, and each entry's column
    among them: what ``np.unique(flat, return_inverse=True)`` returns.

    When the colors span at most as many values as there are entries, a
    table indexed by color minus the smallest color gives each color's
    rank in O(entries), with no sort or hash, and the table is no larger
    than ``flat``. The span is taken in Python ints, so colors near the
    int64 limits cannot overflow it. Wider spans go to ``np.unique``.
    """
    if flat.size == 0:
        return np.unique(flat, return_inverse=True)
    lo, hi = int(flat.min()), int(flat.max())
    if hi - lo + 1 > flat.size:
        return np.unique(flat, return_inverse=True)
    offset = flat - lo
    present = np.zeros(hi - lo + 1, dtype=bool)
    present[offset] = True
    rank = np.cumsum(present) - 1
    return np.flatnonzero(present) + lo, rank[offset]


def _check_palette_cells(n: int, colors: int) -> None:
    if n * colors > _MAX_PALETTE_CELLS:
        raise ValidationError(
            f"palettes need a {n} x {colors} vertex-by-colour matrix, "
            f"over the limit of {_MAX_PALETTE_CELLS} cells"
        )


def commit_colors(state: ColoringState, vertices: ArrayLike, colors: ArrayLike) -> None:
    """Commit a batch: ``vertices[i]`` takes color ``colors[i]``.

    The batch must extend the current partial coloring properly and
    draw only from residual palettes. Violations raise
    :class:`InvariantViolation` naming the first offending entry:
    callers (the coloring steps) are supposed to pre-filter conflicts,
    so a bad batch is a bug, never something to skip silently. Arrays
    that do not hold integers raise :class:`ValidationError`.

    Committed vertices leave the residual graph: uncolored neighbors
    lose one residual degree per committed neighbor and, if present,
    the committed color (once, however many neighbors wear it).
    """
    vertices = as_int64(vertices, "batch vertices")
    colors = as_int64(colors, "batch colors")
    if vertices.ndim != 1 or vertices.shape != colors.shape:
        raise InvariantViolation(
            f"a batch needs 1-D vertex and color arrays of one length, "
            f"got shapes {vertices.shape} and {colors.shape}"
        )
    if vertices.size == 0:
        return
    graph = state.graph
    known = (vertices >= 0) & (vertices < graph.n)
    safe = np.where(known, vertices, 0)
    ok = known & (state.committed[safe] == BLANK) & state.in_residual_palette(safe, colors)
    if not ok.all():
        i = int(np.argmin(ok))
        v, c = int(vertices[i]), int(colors[i])
        if not known[i]:
            raise InvariantViolation(f"assignment to unknown vertex {v}")
        if state.committed[v] != BLANK:
            raise InvariantViolation(f"vertex {v} is already colored")
        raise InvariantViolation(f"color {c} is not in the residual palette of vertex {v}")

    batch = np.zeros(graph.n, dtype=np.int64)
    batch[vertices] = colors
    if np.count_nonzero(batch) != vertices.size:
        _, first = np.unique(vertices, return_index=True)
        repeat = np.ones(vertices.size, dtype=bool)
        repeat[first] = False
        raise InvariantViolation(f"vertex {int(vertices[np.argmax(repeat)])} is assigned twice")

    # One scan of the batch's rows (Graph.scan). It counts each vertex's
    # batch neighbors and scatters one mark per slot into a colour-major
    # matrix, at (color column, neighbor), so each batch vertex's marks
    # land in one row. The state changes only after the whole batch has
    # passed.
    n = graph.n
    lost = np.zeros(n, dtype=np.int64)
    hit = np.zeros(state.num_colors * n, dtype=bool)
    offsets = state.color_columns(colors) * n
    for block, neighbors, degrees in graph.scan(vertices):
        # A conflict with an already-committed neighbor is impossible here:
        # its color was removed from v's residual palette when it committed.
        lost += np.bincount(neighbors, minlength=n)
        cells = np.repeat(offsets[block], degrees)
        cells += neighbors
        hit[cells] = True
    # A clash is two neighbours of one color in the batch: each marks the
    # other's own cell, so the first marked batch entry and its first
    # neighbour of that color in row order name the first clash.
    clashed = hit[offsets + vertices]
    if clashed.any():
        i = int(np.argmax(clashed))
        v, c = int(vertices[i]), int(colors[i])
        nbrs = graph.neighbors(v)
        raise InvariantViolation(
            f"vertices {v} and {int(nbrs[batch[nbrs] == c][0])} are neighbors but both assigned color {c}"
        )

    # Only live neighbors (uncolored, not in the batch) lose anything.
    lost[(state.committed != BLANK) | (batch != BLANK)] = 0
    state.committed[vertices] = colors
    state.residual_degree -= lost
    # Marks of colors a neighbor no longer holds drop out; two batch
    # vertices sharing a neighbor and a color leave one mark. numpy lays
    # the fancy-indexed columns out one touched row after another, so the
    # transpose is C-contiguous and lines up with the palette rows.
    touched = np.flatnonzero(lost)
    marks = hit.reshape(state.num_colors, n)[:, touched].T
    held = state.palette[touched]
    marks &= held
    state.residual_palette_size[touched] -= np.count_nonzero(marks, axis=1)
    held ^= marks
    state.palette[touched] = held


def recompute_residuals(
    state: ColoringState, rows: ArrayLike | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Recompute Q(v) and d(v) from scratch for the vertices ``rows``
    (every vertex when None), in the order given.

    The values ignore each vertex's own commit status: Q counts original
    palette colors not held by any committed neighbor, d counts uncolored
    neighbors. For uncolored vertices these must equal the incrementally
    maintained fields. Only the CSR rows of ``rows`` are read, by one
    :meth:`Graph.scan`. A row outside ``[0, n)`` raises
    :class:`ValidationError`.
    """
    graph = state.graph
    rows = np.arange(graph.n) if rows is None else as_int64(rows, "rows")
    if rows.size and (rows.min() < 0 or rows.max() >= graph.n):
        bad = int(rows[np.argmax((rows < 0) | (rows >= graph.n))])
        raise ValidationError(f"row {bad} lies outside [0, {graph.n})")
    width = state.num_colors + 1
    # Column of each vertex's color, blank in the spare last one. Mapped
    # here rather than by color_columns, which the commit it checks uses.
    # The keys below stay intp: numpy converts any other index type to it
    # before a scatter.
    columns = np.searchsorted(state.color_values, state.committed)
    columns[state.committed == BLANK] = width - 1
    q = np.empty(rows.size, dtype=np.int64)
    d = np.empty(rows.size, dtype=np.int64)
    for block, neighbors, degrees in graph.scan(rows):
        part = rows[block]
        held = columns[neighbors]
        # one (row, neighbor's color column) key per slot of the rows
        keys = np.repeat(np.arange(0, part.size * width, width), degrees)
        keys += held
        taken = np.zeros((part.size, width), dtype=bool)
        taken.reshape(-1)[keys] = True
        q[block] = np.count_nonzero(state.original_palette[part] > taken[:, :-1], axis=1)
        d[block] = segment_sum(held == width - 1, np.concatenate(([0], np.cumsum(degrees))))
    return q, d
