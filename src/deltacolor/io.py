"""File formats: edge-list text files, palette JSON, report JSON helpers.

Edge-list format: one ``u v`` pair per line, 0-based decimal IDs, ``#``
starts a comment, and an optional leading header ``n <count>`` declares
the vertex count (needed for isolated vertices).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, NoReturn, Sequence, TextIO

import numpy as np

from .errors import ValidationError
from .graph import Graph, build_graph, vertex_ids, vertex_map
from .palettes import PaletteTable, palette_table


# Characters of an edge-list file checked and parsed together. The chunk's
# strings are the reader's only memory beyond the parsed IDs: at 2**14 the
# peak RSS of a 2e5-edge read stays within 0.3 MB of a per-line parse
# (+5 MB at 2**18), at no cost in time.
_READ_CHARS = 2**14


@contextmanager
def _text_file(path: str | Path) -> Iterator[TextIO]:
    """``path`` open as UTF-8 text; a byte that is not UTF-8, wherever it
    is read, raises :class:`ValidationError` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def read_json(path: str | Path):
    """The JSON value in the file at ``path``; text that is not UTF-8 JSON
    raises :class:`ValidationError` naming the file."""
    with _text_file(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: {exc}") from exc


def read_edge_list(path: str | Path) -> Graph:
    """The graph of an edge-list file.

    Vertex IDs and the header count are ASCII ``-?[0-9]+``
    (:func:`~deltacolor.graph.vertex_ids`). They and the shape of every
    line are checked about a thousand lines at a time, in one pass over
    each chunk's joined text; only a file that fails is read again, line
    by line, to name its first bad line as ``path:lineno``. A byte that
    is not UTF-8 is named by the file and its position.
    """
    declared_n: int | None = None
    ids: list[int] = []
    started = False  # some line before this chunk holds fields
    try:
        with _text_file(path) as fh:
            for lines in iter(lambda: fh.readlines(_READ_CHARS), []):
                text = "".join(lines)
                if "#" in text:
                    lines = [line.split("#", 1)[0] for line in lines]
                    text = " ".join(lines)
                # every line holds two fields or none: "u v", or the header "n <count>"
                if set(map(len, map(str.split, lines))) - {0, 2}:
                    raise ValidationError("a line holds neither zero nor two fields")
                tokens = text.split()
                if not started and tokens[:1] == ["n"]:
                    declared_n = vertex_ids(tokens[1:2], "vertex count")[0]
                    del tokens[:2]
                    started = True
                started = started or bool(tokens)
                ids += vertex_ids(tokens, "vertex ID")
    except ValidationError:
        _raise_at_first_bad_line(path)
    if not started:
        raise ValidationError(f"{path}: empty edge list without an 'n <count>' header")
    try:
        edges = np.array(ids, dtype=np.int64).reshape(-1, 2)
    except OverflowError as exc:
        raise ValidationError(f"{path}: vertex ID outside the int64 range") from exc
    return build_graph(edges, n=declared_n)


def _raise_at_first_bad_line(path: str | Path) -> NoReturn:
    """Raise :class:`ValidationError` naming the first line of an edge-list
    file that :func:`read_edge_list` refuses."""
    started = False
    with _text_file(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "n":
                if started:
                    raise ValidationError(f"{path}:{lineno}: header must come first")
                if len(parts) != 2:
                    raise ValidationError(f"{path}:{lineno}: malformed header {line!r}")
                if not _vertex_ids_ok(parts[1:]):
                    raise ValidationError(f"{path}:{lineno}: non-integer vertex count in {line!r}")
            elif len(parts) != 2:
                raise ValidationError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            elif not _vertex_ids_ok(parts):
                raise ValidationError(f"{path}:{lineno}: non-integer vertex ID in {line!r}")
            started = True
    raise AssertionError(f"{path}: no bad line in an edge list that failed its check")


def _vertex_ids_ok(parts: list[str]) -> bool:
    try:
        vertex_ids(parts, "vertex ID")
    except ValidationError:
        return False
    return True


def write_edge_list(graph: Graph, path: str | Path) -> None:
    """Write the ``n <count>`` header and one ``u v`` line per edge (u < v)."""
    edges = graph.edge_array()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {graph.n}\n" + "%d %d\n" * len(edges) % tuple(edges.ravel().tolist()))


def canonical_palettes(graph: Graph) -> list[range]:
    """Every vertex gets the palette {1, ..., max_degree + 1}."""
    return [range(1, graph.max_degree + 2)] * graph.n


def read_palettes(path: str | Path, n: int) -> PaletteTable:
    """Read a JSON object mapping vertex ID -> list of colors, as one
    :class:`~deltacolor.palettes.PaletteTable`: its colors are converted
    and checked once, here, and every error names the file."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: palette file must be a JSON object")
    out: list = [None] * n
    for v, colors in vertex_map(data, f"{path}:").items():
        if not 0 <= v < n:
            raise ValidationError(f"{path}: vertex {v} out of range 0..{n - 1}")
        if not isinstance(colors, list):
            raise ValidationError(f"{path}: palette of vertex {v} must be a list")
        out[v] = colors
    missing = [i for i, colors in enumerate(out) if colors is None]
    if missing:
        raise ValidationError(f"{path}: no palette for vertices {missing[:5]}{'...' if len(missing) > 5 else ''}")
    try:
        return palette_table(out)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def load_palettes(spec: str, graph: Graph) -> Sequence[Sequence[int]]:
    """Resolve a palette flag: the literal 'canonical' or a JSON path."""
    if spec == "canonical":
        return canonical_palettes(graph)
    return read_palettes(spec, graph.n)


def dumps_json(obj) -> str:
    """Deterministic, byte-stable JSON text (no trailing newline): the text
    of ``json.dumps(obj, indent=2, sort_keys=True)``. ``obj`` holds plain
    Python values only: numpy values raise ``TypeError``.

    With an indent, ``json.dumps`` runs its pure-Python encoder, one step
    per entry, so string-keyed dicts are laid out here instead and a flat
    map of int values (a report's coloring) is joined in one pass. Every
    other value is ``json.dumps`` text, indented to its depth: JSON
    escapes newlines inside strings, so each newline in it is layout.
    """
    return _dumps(obj, "\n")


def _dumps(obj, newline: str) -> str:
    if isinstance(obj, dict) and obj and set(map(type, obj)) == {str}:
        inner = newline + "  "
        key = json.encoder.encode_basestring_ascii
        if set(map(type, obj.values())) == {int}:
            body = ",".join(f"{inner}{key(k)}: {v}" for k, v in sorted(obj.items()))
        else:
            body = ",".join(f"{inner}{key(k)}: {_dumps(v, inner)}" for k, v in sorted(obj.items()))
        return "{" + body + newline + "}"
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", newline)


def dump_json(obj, path: str | Path) -> None:
    """Write :func:`dumps_json` text plus a newline in one write."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(obj) + "\n")
