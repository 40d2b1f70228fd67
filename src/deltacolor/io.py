"""File formats: edge-list text files, palette JSON, report JSON helpers.

Edge-list format: one ``u v`` pair per line, 0-based decimal IDs, ``#``
starts a comment, and an optional leading header ``n <count>`` declares
the vertex count (needed for isolated vertices).
"""

from __future__ import annotations

import json
import re
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, NoReturn, Sequence, TextIO

import numpy as np

from .errors import ValidationError
from .graph import Graph, build_graph, vertex_ids, vertex_map
from .palettes import _INT64_MAX, _INT64_MIN, PaletteTable, palette_table


# Characters of an edge-list file checked and converted together. A chunk's
# text, its bytes and its per-byte class and token arrays are the reader's only
# memory beyond the IDs' one int64 buffer: at 2**18 they peak 5.6 MiB above it
# on 2e5 edges (0.4 MiB at 2**14, 22.5 at 2**20), less than build_graph then
# adds, so the whole read peaks at 1.07x build_graph given the same edges.
_READ_CHARS = 2**18

# Byte classes of a chunk. Whitespace other than a line end is a separator:
# the ASCII separators np.fromstring refuses (\x1c-\x1f) become spaces first.
_SPACE, _NEWLINE, _DIGIT, _MINUS, _OTHER = range(5)
_CLASSES = np.full(256, _OTHER, dtype=np.uint8)
_CLASSES[list(b" \t\v\f\r")] = _SPACE
_CLASSES[ord("\n")] = _NEWLINE
_CLASSES[list(b"0123456789")] = _DIGIT
_CLASSES[ord("-")] = _MINUS
_TO_SPACES = bytes.maketrans(b"\x1c\x1d\x1e\x1f", b"    ")
_COMMENT = re.compile(r"#[^\n]*")
_BLANK = re.compile(r"[^\S\n]")  # the whitespace str.split splits on, but a line end
# Tokens shorter than this fit in int64 (19 digits at most, "-" included);
# np.fromstring clamps longer ones, so those are tested exactly.
_LONG_TOKEN = 19

# Edges formatted by one % when an edge list is written.
_WRITE_ROWS = 2**14


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
    (:func:`~deltacolor.graph.vertex_ids`), and fields are separated by
    the whitespace ``str.split`` splits on. The file is read about
    ``_READ_CHARS`` characters of whole lines at a time; array passes over
    each chunk's bytes check the shape of every line and every ID, and one
    ``np.fromstring`` call converts the chunk into one int64 buffer. Only
    a file that fails is read again, line by line, to name its first bad
    line as ``path:lineno``. A byte that is not UTF-8 is named by the file
    and its position.
    """
    declared_n: int | None = None
    ids = array("q")
    started = False  # some line before this chunk holds fields
    outside = False  # some ID lies outside int64
    try:
        with _text_file(path) as fh:
            for text in _whole_lines(fh):
                data = _ascii(text)
                if not started and data.strip():
                    started = True
                    line, _, rest = data.lstrip().partition(b"\n")
                    fields = line.split()
                    if fields[0] == b"n":  # the header "n <count>"
                        if len(fields) != 2:
                            raise ValidationError("malformed header")
                        declared_n = vertex_ids([fields[1].decode()], "vertex count")[0]
                        data = rest
                outside |= _append_ids(data, ids)
    except ValidationError:
        _raise_at_first_bad_line(path)
    if not started:
        raise ValidationError(f"{path}: empty edge list without an 'n <count>' header")
    if outside:
        raise ValidationError(f"{path}: vertex ID outside the int64 range")
    return build_graph(np.frombuffer(ids, dtype=np.int64).reshape(-1, 2), n=declared_n)


def _whole_lines(fh: TextIO) -> Iterator[str]:
    """The text of ``fh`` in chunks of whole lines, each ending in a newline;
    a partial last line is carried into the next chunk."""
    carry: list[str] = []  # the reads since the last newline, joined once it comes
    for part in iter(lambda: fh.read(_READ_CHARS), ""):
        cut = part.rfind("\n") + 1
        if cut:
            yield "".join([*carry, part[:cut]])
            carry = []
        carry.append(part[cut:])
    tail = "".join(carry)
    if tail:
        yield tail + "\n"


def _ascii(text: str) -> bytes:
    """Whole lines of an edge list as ASCII bytes, comments dropped and
    every separator but a line end a space, tab, vertical tab or form feed;
    a character left outside ASCII raises :class:`ValidationError`."""
    if "#" in text:
        text = _COMMENT.sub("", text)
    if not text.isascii():
        text = _BLANK.sub(" ", text)
        if not text.isascii():
            raise ValidationError("a character outside ASCII in a field")
    return text.encode("ascii").translate(_TO_SPACES)


def _append_ids(data: bytes, ids: array) -> bool:
    """Append the IDs on ``data``'s lines (from :func:`_ascii`) to ``ids``,
    and return whether one lies outside int64. A line that holds neither
    zero nor two fields, or a field that is not ``-?[0-9]+``, raises
    :class:`ValidationError`."""
    classes = _CLASSES[np.frombuffer(data, dtype=np.uint8)]
    if (classes == _OTHER).any():
        raise ValidationError("a character that is neither a digit, a sign nor whitespace")
    in_token = classes >= _DIGIT
    marks = np.diff(in_token.view(np.int8), prepend=0, append=0)  # +1 at a token, -1 past it
    starts = np.flatnonzero(marks == 1)
    if not starts.size:
        return False
    # every line holds two fields or none, so the fields pair up line by line
    line = np.searchsorted(np.flatnonzero(classes == _NEWLINE), starts)
    if starts.size % 2 or (line[::2] != line[1::2]).any() or (line[2::2] == line[1:-1:2]).any():
        raise ValidationError("a line holds neither zero nor two fields")
    # a sign leads its token and precedes a digit; data ends in a newline, so
    # minus - 1 and minus + 1 stay inside it (-1 reads that last newline)
    minus = np.flatnonzero(classes == _MINUS)
    if minus.size and (in_token[minus - 1].any() or (classes[minus + 1] != _DIGIT).any()):
        raise ValidationError("a sign that does not lead a vertex ID")
    ends = np.flatnonzero(marks == -1)
    long = np.flatnonzero(ends - starts >= _LONG_TOKEN)
    outside = any(not _INT64_MIN <= int(data[starts[i] : ends[i]]) <= _INT64_MAX for i in long)
    values = np.fromstring(data, dtype=np.int64, sep=" ")
    if values.size != starts.size:
        raise ValidationError("np.fromstring read other fields than the check")
    ids.frombytes(values.view(np.uint8))
    return outside


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
    """Write the ``n <count>`` header and one ``u v`` line per edge (u < v),
    formatted ``_WRITE_ROWS`` edges at a time."""
    edges = graph.edge_array()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {graph.n}\n")
        for start in range(0, len(edges), _WRITE_ROWS):
            block = edges[start : start + _WRITE_ROWS]
            fh.write("%d %d\n" * len(block) % tuple(block.ravel().tolist()))


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
