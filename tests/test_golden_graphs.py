"""Golden graph hashes: the CSR that ``build_graph`` and ``read_edge_list``
produce, and the bytes ``write_edge_list`` writes, must stay identical.

Each graph case hashes ``(n, indptr, indices)`` as int64. The hashes of
the pair and file cases in ``golden/graphs.json`` were recorded from the
``build_graph`` that still converted pair lists one pair at a time, and
those of the generated graphs (``gen:`` cases, seed 1) from the
``build_graph`` that sorted all 2m directed slot keys. To record them
again (only after a deliberate change of output), run

    PYTHONPATH=src python tests/test_golden_graphs.py --write
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from deltacolor import build_graph
from deltacolor.generators import GeneratorSpec, generate
from deltacolor.io import read_edge_list, write_edge_list

FIXTURE = Path(__file__).parent / "golden" / "graphs.json"
N = 2000


def _pairs() -> list[tuple[int, int]]:
    """Random pairs on 0..N-1 plus repeats and reversed copies of some,
    self-loops dropped, as a list of Python int tuples."""
    rng = np.random.default_rng(17)
    pairs = rng.integers(0, N, size=(6000, 2))
    pairs = np.vstack((pairs, pairs[:500], pairs[500:1000, ::-1]))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    return [(int(u), int(v)) for u, v in pairs]


def _edge_list_text() -> str:
    """The pairs as an edge-list file with comments, blank lines, tabs and a
    header that declares 50 isolated vertices past the largest ID."""
    lines = ["# golden edge list", f"n {N + 50}  # header"]
    for i, (u, v) in enumerate(_pairs()):
        sep = "\t" if i % 13 == 0 else " "
        lines.append(f"{u}{sep}{v}" + ("  # note" if i % 7 == 0 else ""))
        if i % 11 == 0:
            lines.append("")
    return "\n".join(lines) + "\n"


def _read_edge_list_text():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "golden.edges"
        path.write_text(_edge_list_text(), encoding="utf-8")
        return read_edge_list(path)


def _written_bytes(graph) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.edges"
        write_edge_list(graph, path)
        return path.read_bytes()


def _csr_sha(graph) -> str:
    csr = b"".join(
        np.ascontiguousarray(arr, dtype=np.int64).tobytes()
        for arr in (np.array([graph.n]), graph.indptr, graph.indices)
    )
    return hashlib.sha256(csr).hexdigest()


CASES = {
    "pairs-list-2000": lambda: _csr_sha(build_graph(_pairs(), n=N)),
    "pairs-array-2000": lambda: _csr_sha(build_graph(np.array(_pairs()), n=N)),
    "edge-list-file-2050": lambda: _csr_sha(_read_edge_list_text()),
    "pairs-list-2000-written": lambda: hashlib.sha256(
        _written_bytes(build_graph(_pairs(), n=N))
    ).hexdigest(),
}
GENERATED = [
    "gnp:400,0.5",
    "locally_sparse:2000,0.01,0.5",
    "complete:60",
    "clique_chain:40x6",
    "bipartite_random:400,0.95",
]
for _spec in GENERATED:
    CASES[f"gen:{_spec}"] = lambda spec=_spec: _csr_sha(generate(GeneratorSpec.parse(spec, seed=1)))


@pytest.mark.parametrize("name", sorted(CASES))
def test_graph_matches_golden_hash(name):
    golden = json.loads(FIXTURE.read_text())
    assert CASES[name]() == golden[name]


def test_golden_inputs_hold_repeats_reversals_and_isolated_vertices():
    pairs = _pairs()
    graph = build_graph(pairs, n=N)
    seen = set(pairs)
    assert len(seen) < len(pairs)
    assert any((v, u) in seen for u, v in pairs)
    assert graph.num_edges < len(pairs)
    assert np.count_nonzero(_read_edge_list_text().degrees() == 0) >= 50


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_graphs.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    table = {name: build() for name, build in sorted(CASES.items())}
    FIXTURE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
