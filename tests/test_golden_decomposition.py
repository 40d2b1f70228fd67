"""Golden decomposition hashes: the decomposition must stay byte-identical.

Each case hashes the friend-graph CSR arrays, the almost-clique member
lists and the JSON export of the decomposition with its structural
metrics. The hashes in ``golden/decomposition.json`` were recorded from
the per-edge and dense-matrix implementation that preceded the shared
common-neighbour kernel. To record them again (only after a deliberate
change of output), run

    PYTHONPATH=src python tests/test_golden_decomposition.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from deltacolor import GeneratorSpec, build_graph, decompose, generate, structural_metrics
from deltacolor import sharing as sharing_module
from deltacolor.decomposition import decomposition_to_dict

FIXTURE = Path(__file__).parent / "golden" / "decomposition.json"


def _clique_edges(sizes, start=0):
    blocks = []
    for size in sizes:
        iu, ju = np.triu_indices(size, k=1)
        blocks.append(np.column_stack((iu, ju)) + start)
        start += size
    return blocks, start


def _random_with_cliques():
    """n = 5000 > 4096: sparse random pairs plus two planted 80-cliques."""
    n = 5000
    rng = np.random.default_rng(7)
    pairs = rng.integers(0, n, size=(10_000, 2))
    blocks, _ = _clique_edges((80, 80))
    blocks[1] = blocks[1] + 1000
    edges = np.vstack([pairs[pairs[:, 0] != pairs[:, 1]], *blocks])
    return build_graph(edges, n=n)


def _cliques_with_periphery():
    """Planted cliques of mixed sizes plus a G(300, 0.08) periphery, so
    degrees vary and low-degree rows fall below the friend threshold."""
    rng = np.random.default_rng(11)
    blocks, base = _clique_edges((40, 40, 36, 30))
    periphery = 300
    pi, pj = np.triu_indices(periphery, k=1)
    keep = rng.random(pi.size) < 0.08
    blocks.append(np.column_stack((pi[keep], pj[keep])) + base)
    linked = np.flatnonzero(rng.random(base) < 0.5)
    blocks.append(np.column_stack((linked, rng.integers(0, periphery, linked.size) + base)))
    return build_graph(np.vstack(blocks), n=base + periphery)


CASES = {
    "random-n5000-eps0.19": (_random_with_cliques, 0.19),
    "gnp-300-0.9-eps0.19": (lambda: generate(GeneratorSpec.parse("gnp:300,0.9", seed=5)), 0.19),
    "clique_chain-21x8-eps0.1": (lambda: generate(GeneratorSpec.parse("clique_chain:21x8")), 0.1),
    "cliques-periphery-eps0.15": (_cliques_with_periphery, 0.15),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def case_hashes(name: str) -> dict[str, str]:
    build, eps = CASES[name]
    graph = build()
    decomp = decompose(graph, eps)
    friends = decomp.friend_graph
    csr = b"".join(
        np.ascontiguousarray(arr, dtype=np.int64).tobytes()
        for arr in (np.array([friends.n]), friends.indptr, friends.indices)
    )
    members = json.dumps([[int(v) for v in c.members] for c in decomp.cliques])
    report = json.dumps(decomposition_to_dict(decomp, structural_metrics(graph, decomp)))
    return {
        "friend_csr": _sha(csr),
        "clique_members": _sha(members.encode()),
        "decomposition_json": _sha(report.encode()),
    }


@pytest.mark.parametrize("backend", ["auto", "dense", "sparse"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_decomposition_matches_golden_hashes(monkeypatch, name, backend):
    # "dense" and "sparse" force the switch's answer, so it picks that
    # backend wherever its memory bound allows
    if backend != "auto":
        monkeypatch.setattr(sharing_module, "_dense_pays", lambda *priced: backend == "dense")
    golden = json.loads(FIXTURE.read_text())
    assert case_hashes(name) == golden[name]


def test_golden_cases_exercise_cliques():
    # A fixture of all-sparse graphs would pin nothing about friend edges.
    for name, (build, eps) in CASES.items():
        assert decompose(build(), eps).cliques, name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_decomposition.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    table = {name: case_hashes(name) for name in sorted(CASES)}
    FIXTURE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
