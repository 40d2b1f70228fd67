"""Palettes as one read-only int64 table.

A :class:`PaletteTable` holds every vertex's palette in two arrays:
``colors``, the palettes one after another, and ``offsets`` (n + 1), so
vertex v's colors are ``colors[offsets[v]:offsets[v + 1]]``. One builder,
:func:`palette_table`, makes it from any sequence of color collections and
holds the one integer rule for palette colors: a color is an int or a
numpy integer inside the int64 range, never a bool, a float (integral or
not), a string or None. The conversion and the check are one pass.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import chain, starmap
from operator import countOf, index

import numpy as np

from .errors import ValidationError
from .graph import as_int64, first_non_integer

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_BITS = 2**64 - 1  # an int64 value's bits, read as uint64


@dataclass(frozen=True, eq=False)
class PaletteTable(Sequence):
    """Palettes in CSR form; a sequence of per-vertex read-only int64
    views, so it goes wherever a list of palettes goes.

    Both arrays must be 1-D int64, and ``offsets`` must rise from 0 to
    ``colors.size``; anything else raises :class:`ValidationError`, so a
    table made by hand meets the rule that :func:`palette_table` holds.
    Writable arrays are copied, so a table never changes."""

    offsets: np.ndarray
    colors: np.ndarray

    def __post_init__(self):
        for name in ("offsets", "colors"):
            arr = getattr(self, name)
            if not isinstance(arr, np.ndarray) or arr.dtype != np.int64 or arr.ndim != 1:
                got = f"{arr.ndim}-D {arr.dtype}" if isinstance(arr, np.ndarray) else type(arr).__name__
                raise ValidationError(f"palette table {name} must be a 1-D int64 array, not {got}")
            if arr.flags.writeable:
                arr = arr.copy()
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)
        offsets = self.offsets
        if not offsets.size or offsets[0] != 0 or offsets[-1] != self.colors.size or (np.diff(offsets) < 0).any():
            raise ValidationError(
                f"palette table offsets must rise from 0 to {self.colors.size}, the number of colors"
            )

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, v) -> np.ndarray:
        v = index(v)
        if not -len(self) <= v < len(self):
            raise IndexError(f"vertex {v} out of range for {len(self)} palettes")
        v %= len(self)
        return self.colors[self.offsets[v] : self.offsets[v + 1]]

    def __iter__(self):
        bounds = self.offsets.tolist()
        return map(self.colors.__getitem__, map(slice, bounds[:-1], bounds[1:]))

    def holds(self, colors: np.ndarray) -> np.ndarray:
        """Whether ``colors[v]`` is in vertex v's palette, for every v."""
        lengths = np.diff(self.offsets)
        hit = np.repeat(colors, lengths) == self.colors
        inside = np.zeros(len(self), dtype=bool)
        nonempty = lengths > 0
        inside[nonempty] = np.logical_or.reduceat(hit, self.offsets[:-1][nonempty])
        return inside


def palette_table(palettes) -> PaletteTable:
    """``palettes`` (one collection of colors per vertex) as a
    :class:`PaletteTable`; a table is returned as it is.

    The palettes' entries are flattened and converted by one ``np.array``
    call, with the dtype inferred: a float, a string, None or a value
    outside int64 makes it a non-integer dtype, which
    :func:`~deltacolor.graph.as_int64` refuses. A bool becomes 0 or 1, so
    only the entries that read 0 or 1 are tested by
    :func:`~deltacolor.graph.first_non_integer`. Entries the call refuses
    are tested one by one. The first non-integer color, in vertex order,
    raises :class:`ValidationError` naming its vertex.
    """
    if isinstance(palettes, PaletteTable):
        return palettes
    rows = list(palettes)
    try:
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    except TypeError:
        for v, palette in enumerate(rows):
            try:
                len(palette)  # a 0-d array, say, has a len() that fails
            except TypeError:
                raise ValidationError(f"palette of vertex {v} is not a collection of colors") from None
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    flat = list(chain.from_iterable(rows))
    colors = _converted(flat)
    if colors is None:
        colors = _checked(flat, offsets)
    else:
        # the only entries a bool can have become
        maybe = np.flatnonzero(colors.view(np.uint64) <= 1).tolist()
        bad = first_non_integer([flat[i] for i in maybe])
        if bad is not None:
            raise _not_an_integer(_owner(offsets, maybe[bad]), flat[maybe[bad]])
    offsets.setflags(write=False)
    colors.setflags(write=False)
    return PaletteTable(offsets, colors)


def common_range(palettes) -> range | None:
    """The one ``range`` that every palette is, or None. One pass reads
    the types and one counts the palettes equal to the first, where a
    repeated object compares by identity: no palette is expanded."""
    if isinstance(palettes, PaletteTable) or not len(palettes) or set(map(type, palettes)) != {range}:
        return None
    first = palettes[0]
    return first if countOf(palettes, first) == len(palettes) else None


def membership(palettes) -> Callable[[np.ndarray], np.ndarray]:
    """The test of ``colors`` (one per vertex) against ``palettes``: True
    where ``colors[v]`` is in vertex v's palette.

    ``range`` palettes are tested by arithmetic, never expanded: a color is
    in one when it lies between the range's least and greatest colors and
    its distance from the least is a multiple of the step. A
    :func:`common_range` shares one row of these bounds; ranges that differ
    get one row per vertex. Any other palettes become a
    :class:`PaletteTable` here, so a color that is not an integer, or
    outside int64, raises before any coloring is read."""
    shared = common_range(palettes)
    if shared is not None:
        ranges = [shared]
    elif not isinstance(palettes, PaletteTable) and set(map(type, palettes)) == {range}:
        ranges = palettes
    else:
        return palette_table(palettes).holds
    rows = np.fromiter(starmap(_bounds, enumerate(ranges)), dtype=np.dtype((np.uint64, 3)), count=len(ranges))
    least, greatest, step = rows.T
    low, high = least.view(np.int64), greatest.view(np.int64)
    stepped = bool((step > 1).any())  # a distance is always a multiple of 1

    def holds(colors: np.ndarray) -> np.ndarray:
        inside = (low <= colors) & (colors <= high)
        if stepped:
            # in uint64 the distance from ``least`` is exact: it is taken mod 2**64
            inside &= (colors.astype(np.int64, copy=False).view(np.uint64) - least) % step == 0
        return inside

    return holds


def _bounds(v: int, palette: range) -> tuple[int, int, int]:
    """Vertex v's range palette as its least and greatest color, in the
    bits of int64 values, and its step as a distance: (1, 0, 1) when it is
    empty, step 1 when it holds one color. A color outside int64 raises
    :class:`ValidationError`, naming the first, as :func:`palette_table`
    would."""
    if not palette:
        return 1, 0, 1
    least, greatest = sorted((palette[0], palette[-1]))
    if least < _INT64_MIN or greatest > _INT64_MAX:
        if _INT64_MIN <= palette[0] <= _INT64_MAX:
            # from the first color past the int64 limit the range runs toward
            beyond = _INT64_MAX + 1 if palette.step > 0 else _INT64_MIN - 1
            palette = palette[-((palette[0] - beyond) // palette.step) :]
        raise ValidationError(f"palette of vertex {v} holds {palette[0]}, outside the int64 range")
    return least & _BITS, greatest & _BITS, abs(palette.step) if len(palette) > 1 else 1


def _converted(flat: list) -> np.ndarray | None:
    """The array ``np.array`` infers from the colors ``flat``, as int64,
    or None unless it is one integer inside int64 per entry."""
    try:
        colors = as_int64(np.array(flat), "palette colors")
    except (ValidationError, ValueError, TypeError, OverflowError):
        return None
    return colors if colors.shape == (len(flat),) else None


def _checked(flat: list, offsets: np.ndarray) -> np.ndarray:
    """The colors ``flat`` that the array conversion refused, tested entry
    by entry; the first bad one raises."""
    odd = first_non_integer(flat)
    head = flat if odd is None else flat[:odd]
    outside = next((i for i, x in enumerate(head) if not _INT64_MIN <= x <= _INT64_MAX), None)
    if outside is not None:
        raise ValidationError(
            f"palette of vertex {_owner(offsets, outside)} holds {flat[outside]}, outside the int64 range"
        )
    if odd is not None:
        raise _not_an_integer(_owner(offsets, odd), flat[odd])
    return np.fromiter(flat, dtype=np.int64, count=len(flat))


def _owner(offsets: np.ndarray, i: int) -> int:
    """The vertex whose palette holds flat entry ``i``."""
    return int(np.searchsorted(offsets, i, side="right")) - 1


def _not_an_integer(v: int, value) -> ValidationError:
    return ValidationError(f"palette of vertex {v} holds {value!r}, not an integer color")
