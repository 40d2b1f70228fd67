"""File formats: edge-list text files, palette JSON, report JSON helpers.

Edge-list format: one ``u v`` pair per line, 0-based decimal IDs, ``#``
starts a comment, and an optional leading header ``n <count>`` declares
the vertex count (needed for isolated vertices).
"""

from __future__ import annotations

import json
import re
import warnings
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import IO, AnyStr, Iterator, NoReturn, Sequence, TextIO

import numpy as np

from .errors import ValidationError
from .graph import Graph, RepeatedKeys, build_graph, vertex_ids, vertex_map
from .palettes import _INT64_MAX, _INT64_MIN, PaletteTable, palette_table


# Characters of an edge-list file checked and converted together. A chunk's
# text, its bytes and its per-byte class and token arrays are the reader's only
# memory beyond the IDs' one int64 buffer: at 2**18 they peak 5.6 MiB above it
# on 2e5 edges (0.4 MiB at 2**14, 22.5 at 2**20), less than build_graph then
# adds, so the whole read peaks at 1.07x build_graph given the same edges.
# Palette files are read as many bytes at a time: on the benchmark's mixed-main
# file (3.8 MB, 8e5 colors) the read peaks at 1.3x the table's colors.
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

# Palette files. JSON whitespace: bytes.strip() would also take \v and \f.
_JSON_SPACE = b" \t\n\r"
_TO_SPACE = bytes.maketrans(b"\t\n\r", b"   ")
_FIELD_BYTES = b"0123456789-,"
# An entry up to its list's "[": "{" or ",", then the quoted vertex ID without
# a sign or a leading zero, short enough for int64, and the colon.
_ENTRY_HEAD = re.compile(rb'[ \t\n\r]*([{,])[ \t\n\r]*"(0|[1-9][0-9]{0,17})"[ \t\n\r]*:[ \t\n\r]*\[')
_LEADING_ZERO = re.compile(rb",0[0-9]")

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
    raises :class:`ValidationError` naming the file. An object whose keys
    repeat is a :class:`~deltacolor.graph.RepeatedKeys`, so that
    :func:`~deltacolor.graph.vertex_map` refuses a vertex key written twice."""
    with _text_file(path) as fh:
        try:
            return json.load(fh, object_pairs_hook=_json_object)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: {exc}") from exc


def _json_object(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    return obj if len(obj) == len(pairs) else RepeatedKeys(pairs)


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
    and its position, and a graph that :func:`~deltacolor.graph.build_graph`
    refuses by the file.
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
    try:
        return build_graph(np.frombuffer(ids, dtype=np.int64).reshape(-1, 2), n=declared_n)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _whole_lines(fh: TextIO) -> Iterator[str]:
    """The text of ``fh`` in chunks of whole lines, each ending in a newline;
    a partial last line gets one."""
    for text in _cut_after(fh, "\n"):
        if text:
            yield text if text.endswith("\n") else text + "\n"


def _cut_after(fh: IO, mark: AnyStr) -> Iterator[AnyStr]:
    """What ``fh`` holds, read ``_READ_CHARS`` at a time and yielded in
    chunks that each end in the one-character ``mark``, then whatever
    follows the last mark (maybe empty)."""
    empty = mark[:0]
    carry = []  # the reads since the last mark, joined once it comes
    for part in iter(lambda: fh.read(_READ_CHARS), empty):
        cut = part.rfind(mark) + 1
        if cut:
            yield empty.join([*carry, part[:cut]])
            carry = []
        carry.append(part[cut:])
    yield empty.join(carry)


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
    and checked once, here, and every error names the file.

    A file laid out as ``{"<id>": [<int>, ...], ...}`` is read straight
    into the table (:func:`_direct_table`). Any other file, and any file
    that fails, is read by :func:`read_json`, and that path alone words
    every message."""
    table = _direct_table(path, n)
    return table if table is not None else _json_table(path, n)


def _json_table(path: str | Path, n: int) -> PaletteTable:
    """:func:`read_palettes` through :func:`read_json`, one Python value
    per JSON value."""
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


def _direct_table(path: str | Path, n: int) -> PaletteTable | None:
    """The palette table of a file laid out as ``{"<id>": [<int>, ...], ...}``,
    or None for any other file.

    The layout allows JSON whitespace between any two tokens, the entries
    in any order and empty lists. Each of the n vertex IDs is a key once,
    without a sign or a leading zero; each color is a JSON integer off
    the int64 limits. The file is read about ``_READ_CHARS`` bytes of
    whole entries at a time: their keys are checked one by one, and their
    lists' text is checked by byte passes and converted by one
    ``np.fromstring`` call (:func:`_integers`)."""
    keys: list[bytes] = []  # each entry's vertex ID, in file order
    sizes, colors = array("q"), array("q")
    try:
        with open(path, "rb") as fh:
            for chunk in _cut_after(fh, b"]"):
                *entries, rest = chunk.split(b"]")
                if not _append_entries(entries, keys, sizes, colors):
                    return None
    except OSError:
        return None
    if not keys or len(keys) != n or rest.strip(_JSON_SPACE) != b"}":
        return None
    vertices = np.fromiter(map(int, keys), dtype=np.int64, count=n)
    if vertices.max() >= n or (np.bincount(vertices, minlength=n) != 1).any():
        return None
    lengths = np.frombuffer(sizes, dtype=np.int64)
    flat = np.frombuffer(colors, dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    if (vertices == np.arange(n)).all():
        np.cumsum(lengths, out=offsets[1:])
    else:
        entry = np.empty(n, dtype=np.int64)  # the entry of each vertex
        entry[vertices] = np.arange(n)
        np.cumsum(lengths[entry], out=offsets[1:])
        starts = np.cumsum(lengths) - lengths  # where each entry's colors start in ``flat``
        flat = flat[np.arange(flat.size) + np.repeat(starts[entry] - offsets[:-1], lengths[entry])]
    offsets.setflags(write=False)
    flat.setflags(write=False)  # so the table keeps it, not a copy
    return PaletteTable(offsets, flat)


def _append_entries(entries: list[bytes], keys: list[bytes], sizes: array, colors: array) -> bool:
    """Append the vertex ID, the list's length and the list's colors of
    each of ``entries`` (an entry's text up to its list's closing ``]``)
    to ``keys``, ``sizes`` and ``colors``; return False, and leave them
    unfinished, when an entry is not in :func:`_direct_table`'s layout."""
    lists = []
    count = 0  # the colors in ``lists``
    for entry in entries:
        head = _ENTRY_HEAD.match(entry)
        if head is None or (head[1] == b"{") != (not keys):  # "{" leads the first entry, "," every other
            return False
        keys.append(head[2])
        body = entry[head.end() :]
        commas = body.count(b",")
        size = commas + 1 if commas or body.strip(_JSON_SPACE) else 0
        if size:
            lists.append(body)
            count += size
        sizes.append(size)
    if not lists:
        return True
    values = _integers(b",".join(lists), count)
    if values is None:
        return False
    colors.frombytes(values.view(np.uint8))
    return True


def _integers(text: bytes, count: int) -> np.ndarray | None:
    """The ``count`` comma-separated JSON integers in ``text`` as int64, or
    None unless ``text`` is just those, JSON whitespace around each, and
    none lies at an int64 limit.

    ``np.fromstring`` refuses a sign or a space inside a field, but it
    reads ``+1``, ``01`` and ``- 1`` as numbers, a blank field or a lone
    sign as 0, skips ``\\v`` and ``\\f``, and reads a value past int64 as a
    limit. The byte checks before it and the limit check after it refuse
    these, and ``-0`` too."""
    bare = b"," + text.translate(None, _JSON_SPACE)  # every field after a comma
    if bare.translate(None, _FIELD_BYTES) or b",," in bare or bare.endswith(b",") or _LEADING_ZERO.search(bare):
        return None
    if b"-" in bare and (
        b"-," in bare or bare.endswith(b"-") or b"-0" in bare or b"- " in text.translate(_TO_SPACE)
    ):
        return None
    try:
        with warnings.catch_warnings():
            # numpy 1.26 warns and stops short where numpy 2 raises
            warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(text, dtype=np.int64, sep=",")
    except (ValueError, DeprecationWarning):
        return None
    if values.size != count or values.max() == _INT64_MAX or values.min() == _INT64_MIN:
        return None
    return values


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
