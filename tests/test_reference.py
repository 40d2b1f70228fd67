"""The whole run against its plain-Python statement in ``reference.py``.

Each case compares the bytes ``dumps_json`` writes for
``run(...).to_dict()`` with ``json.dumps(..., indent=2, sort_keys=True)``
of the reference's report dict, the text ``dumps_json`` promises. So
every kernel of the pipeline, and the RNG stream each phase consumes,
is checked against one independent statement of the algorithm.
"""

import dataclasses
import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltacolor import build_graph, canonical_palettes, run
from deltacolor import engine
from deltacolor.io import dumps_json
from deltacolor.schedule import build_schedule

import reference
from reference import reference_report
from test_golden_reports import CASES, FIXTURE, _inputs


def _reference_text(graph, palettes, **options) -> str:
    return json.dumps(reference_report(graph, palettes, **options), indent=2, sort_keys=True)


def _raised_floor(build):
    """``build_schedule`` with every row's D a hundred times larger: a
    palette floor that no prefix vertex meets, which a run at this scale
    never plants by itself (the floor holds by the analysis)."""

    def tight(*args, **kwargs):
        sched = build(*args, **kwargs)
        rows = [dataclasses.replace(r, d=100 * r.d, delta=100 * r.d / r.z) for r in sched.rounds]
        return dataclasses.replace(sched, rounds=tuple(rows))

    return tight


@st.composite
def graphs(draw):
    """Up to 36 vertices: a clique on the first ``size`` of them (dense at
    an epsilon up to 1/24, where the first gamma is positive, once it has 25
    or more) and up to 40 random edges."""
    n = draw(st.integers(1, 36))
    size = draw(st.integers(0, n) | st.just(n))
    pairs = [(u, v) for u in range(size) for v in range(u + 1, size)]
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs += [(u, v) for u, v in draw(st.lists(extra, max_size=40)) if u != v]
    return build_graph(pairs, n=n)


@st.composite
def palettes_for(draw, graph):
    """Canonical palettes, or seeded lists of max degree + 1 to max degree
    + 3 colours from a wider range; with ``repeats`` every odd vertex lists
    its first colour twice."""
    kind = draw(st.sampled_from(["canonical", "lists", "repeats"]))
    if kind == "canonical":
        return canonical_palettes(graph)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    need = graph.max_degree + 1
    out = []
    for v in range(graph.n):
        colors = rng.choice(np.arange(1, 2 * need + 3), size=need + int(rng.integers(3)), replace=False).tolist()
        out.append(colors + colors[:1] if kind == "repeats" and v % 2 else colors)
    return out


def _clique(size, n=None):
    return build_graph([(u, v) for u in range(size) for v in range(u + 1, size)], n=n or size)


def _twin_cliques(size):
    """Two ``size``-cliques joined by a perfect matching."""
    pairs = [(u, v) for j in (0, size) for u in range(j, j + size) for v in range(u + 1, j + size)]
    return build_graph(pairs + [(u, u + size) for u in range(size)], n=2 * size)


@settings(max_examples=100, deadline=None)
@given(
    graph=graphs(),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    epsilon=st.none() | st.floats(0.01, 0.19) | st.floats(0.03, 1 / 24),
    k=st.sampled_from([0.1, 1.0, 16.0]),
    force_main_path=st.booleans(),
    max_fallback_iters=st.sampled_from([500, 0, 1, 2, 500, 500]),
    raise_floor=st.booleans(),
)
# one dense step with a prefix of one vertex; then the same with a floor it misses
@example(graph=_clique(30), data=None, seed=3, epsilon=0.04, k=0.1, force_main_path=True,
         max_fallback_iters=500, raise_floor=False)
@example(graph=_clique(30), data=None, seed=3, epsilon=0.04, k=0.1, force_main_path=True,
         max_fallback_iters=500, raise_floor=True)
# a dense step where a matched pair draws one colour: the clique of the larger leader loses it
@example(graph=_twin_cliques(100), data=None, seed=44, epsilon=0.02, k=0.1, force_main_path=True,
         max_fallback_iters=500, raise_floor=False)
# the fallback gives up: the sparse pass at once, after one round on the main path and off it
@example(graph=_clique(12, n=20), data=None, seed=1, epsilon=0.1, k=1.0, force_main_path=True,
         max_fallback_iters=0, raise_floor=False)
@example(graph=_clique(12, n=20), data=None, seed=1, epsilon=0.1, k=1.0, force_main_path=True,
         max_fallback_iters=1, raise_floor=False)
@example(graph=_clique(12, n=20), data=None, seed=1, epsilon=None, k=16.0, force_main_path=False,
         max_fallback_iters=1, raise_floor=False)
# max degree 0: the main path is skipped even when forced
@example(graph=build_graph([], n=5), data=None, seed=0, epsilon=0.1, k=1.0, force_main_path=True,
         max_fallback_iters=500, raise_floor=False)
def test_run_matches_the_reference_byte_for_byte(
    graph, data, seed, epsilon, k, force_main_path, max_fallback_iters, raise_floor
):
    palettes = canonical_palettes(graph) if data is None else data.draw(palettes_for(graph))
    options = dict(k=k, seed=seed, epsilon=epsilon, force_main_path=force_main_path,
                   max_fallback_iters=max_fallback_iters)
    schedule = _raised_floor(build_schedule) if raise_floor else build_schedule
    with mock.patch.object(engine, "build_schedule", schedule), \
            mock.patch.object(reference, "build_schedule", schedule):
        expected = dumps_json(run(graph, palettes, **options).to_dict())
        got = _reference_text(graph, palettes, **options)
    assert got == expected


def test_the_pinned_cases_reach_what_they_claim():
    # the dense steps, the floor message, the exhaustion messages and max degree 0
    report = run(_clique(30), canonical_palettes(_clique(30)), k=0.1, seed=3, epsilon=0.04,
                 force_main_path=True)
    assert [s.kind for s in report.steps].count("dense") == 1 and report.steps[2].colored == 1
    with mock.patch.object(reference, "build_schedule", _raised_floor(build_schedule)):
        failures = reference_report(_clique(30), canonical_palettes(_clique(30)), k=0.1, seed=3,
                                    epsilon=0.04, force_main_path=True)["invariant_failures"]
    assert failures[0].startswith("dense step 1: palette floor violated at vertex")
    g = _clique(12, n=20)
    main = run(g, canonical_palettes(g), k=1.0, seed=1, epsilon=0.1, force_main_path=True,
               max_fallback_iters=1)
    assert main.invariant_failures[0].startswith("fallback (residual phase) exhausted after 1 rounds")
    at_once = run(g, canonical_palettes(g), k=1.0, seed=1, epsilon=0.1, force_main_path=True,
                  max_fallback_iters=0)
    assert at_once.invariant_failures[:2] == [
        "fallback (sparse phase) exhausted after 0 rounds with 20 vertices uncolored",
        "fallback (residual phase) exhausted after 0 rounds with 20 vertices uncolored",
    ]
    off = run(g, canonical_palettes(g), seed=1, max_fallback_iters=1)
    assert off.invariant_failures[0].startswith("fallback exhausted after 1 rounds")
    g = _twin_cliques(100)
    report = run(g, canonical_palettes(g), k=0.1, seed=44, epsilon=0.02, force_main_path=True)
    assert report.steps[2].kind == "dense" and report.steps[2].de_colored == 1
    empty = run(build_graph([], n=5), canonical_palettes(build_graph([], n=5)), k=1.0, epsilon=0.1,
                force_main_path=True)
    assert [s.kind for s in empty.steps] == ["fallback"] and empty.forced_main_path


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_reports_match_the_reference(name):
    graph, palettes, options = _inputs(name)
    text = _reference_text(graph, palettes, **options) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == json.loads(FIXTURE.read_text())[name]
