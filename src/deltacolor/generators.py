"""Seeded graph generators, deterministic for a fixed spec and seed."""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .decomposition import THRESHOLD_TOL
from .errors import GenerationError, ValidationError
from .graph import _MAX_VERTICES, Graph, _csr_from_keys, build_graph, segment_sum
from .sharing import edge_common_counts

_LOCALLY_SPARSE_ATTEMPTS = 50
# Most vertex pairs a generator may enumerate or draw at once: the kinds
# that list or draw every pair of a set (complete, clique_chain,
# bipartite_random) check this before allocating, as int64 pairs take
# 16 bytes each before the graph is even built. The G(n, p) kinds bound
# their expected edge count by it, as the palette cap would about as tightly.
_MAX_PAIRS = 2**27

# Each kind's parameters and their types, in the order ``parse`` reads them.
PARAMETERS = {
    "complete": {"n": int},
    "gnp": {"n": int, "p": float},
    "clique_chain": {"size": int, "count": int},
    "bipartite_random": {"n": int, "p": float},
    "locally_sparse": {"n": int, "p": float, "delta": float},
}
GENERATOR_KINDS = tuple(PARAMETERS)
# Values a parameter of each type accepts, bools excepted
_ACCEPTS = {int: Integral, float: Real}


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        """Exactly the kind's parameters, each an integer (not a bool) or,
        for a float parameter, any real number; a nonnegative integer seed."""
        if not isinstance(self.kind, str) or self.kind not in PARAMETERS:
            raise ValidationError(f"unknown generator kind {self.kind!r}")
        types = PARAMETERS[self.kind]
        unknown = [key for key in self.params if key not in types]
        if unknown:
            raise ValidationError(f"generator kind {self.kind!r} takes no parameter {unknown[0]!r}")
        missing = [key for key in types if key not in self.params]
        if missing:
            raise ValidationError(f"generator spec missing field: {missing[0]!r}")
        for key, want in {**types, "seed": int}.items():
            value = self.seed if key == "seed" else self.params[key]
            if isinstance(value, bool) or not isinstance(value, _ACCEPTS[want]):
                raise ValidationError(f"generator parameter {key!r} must be {want.__name__}, got {value!r}")
        if self.seed < 0:
            raise ValidationError(f"generator seed must be nonnegative, got {self.seed}")

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "GeneratorSpec":
        """Parse compact CLI syntax, e.g. 'complete:21', 'gnp:100,0.5',
        'clique_chain:21x8', 'bipartite_random:100,0.3',
        'locally_sparse:200,0.5,0.3'."""
        kind, _, rest = text.partition(":")
        kind = kind.strip()
        types = PARAMETERS.get(kind, {})
        fields = rest.strip().split("x" if kind == "clique_chain" else ",")
        if len(fields) == len(types):  # never for an unknown kind: split gives one field
            try:
                params = {key: want(field) for (key, want), field in zip(types.items(), fields)}
            except ValueError:
                pass
            else:
                return cls(kind=kind, params=params, seed=seed)
        raise ValidationError(f"malformed generator spec {text!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "GeneratorSpec":
        """A spec from a JSON object: ``kind``, an optional ``seed`` and the
        kind's parameters, checked as in the constructor."""
        if "kind" not in data:
            raise ValidationError("generator spec missing field: 'kind'")
        params = {key: value for key, value in data.items() if key not in ("kind", "seed")}
        return cls(kind=data["kind"], params=params, seed=data.get("seed", 0))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "seed": self.seed, **self.params}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _require_pairs(kind: str, pairs: int) -> None:
    _require(pairs <= _MAX_PAIRS, f"{kind} would allocate {pairs} vertex pairs, over the limit {_MAX_PAIRS}")


def _require_gnp(kind: str, n: int, p: float) -> None:
    """Refuse, before the first draw, an n or expected edge count too large."""
    _require(n <= _MAX_VERTICES, f"{kind} needs n <= {_MAX_VERTICES}, got {n}")
    edges = p * (n * (n - 1) // 2)
    _require(edges <= _MAX_PAIRS, f"{kind} would draw about {edges:.0f} edges, over the limit {_MAX_PAIRS}")


def _gnp_edges(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Each pair u < v kept with probability p, as the strictly ascending
    keys ``u * n + v``. One draw per row consumes the generator exactly as
    one draw over all ``np.triu_indices(n, k=1)`` pairs would, without
    their O(n^2) arrays."""
    rows = [np.flatnonzero(rng.random(n - 1 - u) < p) + (u * n + u + 1) for u in range(n)]
    return np.concatenate(rows)


def generate(spec: GeneratorSpec) -> Graph:
    """Materialize a graph from a spec; deterministic per (spec, seed)."""
    kind = spec.kind
    params = spec.params
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))

    if kind == "complete":
        n = int(params["n"])
        _require(n >= 1, "complete graph needs n >= 1")
        _require_pairs(kind, n * (n - 1) // 2)
        # the flat places u * n + v above the diagonal, ascending
        return _csr_from_keys(np.flatnonzero(~np.tri(n, dtype=bool)), n)

    if kind == "gnp":
        n, p = int(params["n"]), float(params["p"])
        _require(n >= 1, "gnp needs n >= 1")
        _require(0.0 < p < 1.0, "gnp needs 0 < p < 1")
        _require_gnp(kind, n, p)
        return _csr_from_keys(_gnp_edges(n, p, rng), n)

    if kind == "clique_chain":
        size, count = int(params["size"]), int(params["count"])
        _require(size >= 2 and count >= 1, "clique_chain needs size >= 2 and count >= 1")
        _require_pairs(kind, count * (size * (size - 1) // 2))
        rows, cols = np.triu_indices(size, k=1)
        blocks = [np.column_stack((rows, cols)) + j * size for j in range(count)]
        # One bridge per consecutive pair: last member of clique j to the
        # first member of clique j+1, so no vertex carries two bridges.
        firsts = np.arange(1, count) * size
        blocks.append(np.column_stack((firsts - 1, firsts)))
        return build_graph(np.vstack(blocks), n=size * count)

    if kind == "bipartite_random":
        n, p = int(params["n"]), float(params["p"])
        _require(n >= 2, "bipartite_random needs n >= 2")
        _require(0.0 < p < 1.0, "bipartite_random needs 0 < p < 1")
        left = n // 2
        right = n - left
        _require_pairs(kind, left * right)
        mask = rng.random((left, right)) < p
        li, ri = np.nonzero(mask)
        return _csr_from_keys(li * n + (ri + left), n)

    # locally_sparse, the one kind left: GeneratorSpec admits no other
    n, p, delta = int(params["n"]), float(params["p"]), float(params["delta"])
    _require(n >= 1, "locally_sparse needs n >= 1")
    _require(0.0 < p < 1.0, "locally_sparse needs 0 < p < 1")
    _require(0.0 < delta < 1.0, "locally_sparse needs 0 < delta < 1")
    _require_gnp(kind, n, p)
    for _ in range(_LOCALLY_SPARSE_ATTEMPTS):
        g = _csr_from_keys(_gnp_edges(n, p, rng), n)
        if is_locally_sparse(g, delta):
            return g
    raise GenerationError(
        f"could not sample a (1-{delta})-locally-sparse graph with n={n}, p={p} "
        f"in {_LOCALLY_SPARSE_ATTEMPTS} attempts; lower p or delta"
    )


def neighborhood_edge_counts(graph: Graph) -> np.ndarray:
    """Number of edges inside G[N(v)] for every vertex v."""
    return segment_sum(edge_common_counts(graph), graph.indptr) // 2


def is_locally_sparse(graph: Graph, delta: float) -> bool:
    """True when every neighborhood spans at most (1-delta) * C(max_degree, 2) edges."""
    dmax = graph.max_degree
    bound = (1.0 - delta) * dmax * (dmax - 1) / 2.0
    return bool(np.all(neighborhood_edge_counts(graph) <= bound + THRESHOLD_TOL))
