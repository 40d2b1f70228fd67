"""Spans and counters recorded from outside the deltacolor package.

A :class:`Probe` names one function as its *caller* sees it: the module
whose global namespace the call resolves in, and the attribute there.
``deltacolor.engine`` binds ``commit_colors`` through ``from .state
import ...``, so the probe for the commit inside a run is
``("deltacolor.engine", "commit_colors")``; patching
``deltacolor.state.commit_colors`` would time nothing. The benchmark
itself calls the package through module attributes (``io.read_edge_list``
rather than a name imported at the top), so a probe on the defining
module also covers the benchmark's own calls.

Spans are kept in memory and written out by the caller at the end. A
span's self time is its duration minus the time its child spans cover;
the process is single threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

OnResult = Callable[["Tracer", tuple, object], None]


@dataclass(frozen=True)
class Probe:
    """One wrapped name; ``spanned=False`` only counts calls."""

    module: str
    attr: str
    label: str
    spanned: bool = True
    on_result: OnResult | None = None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    group: str


class Tracer:
    """In-memory span and counter store for one benchmark process.

    ``group`` tags every span and counter with the sample it belongs to
    (one setup repetition or one iteration), so per-sample sums can be
    formed afterwards.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.absent: list[str] = []
        self.group = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.group))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[self.group][name] += value

    def set(self, name: str, value: float) -> None:
        self.counts[self.group][name] = value

    def _wrap(self, fn: Callable, probe: Probe) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not probe.spanned:
                self.count(f"{probe.label}.calls")
                return fn(*args, **kwargs)
            with self.span(probe.label):
                result = fn(*args, **kwargs)
            if probe.on_result is not None:
                probe.on_result(self, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, probes: tuple[Probe, ...]) -> Iterator[None]:
        """Patch every probe for the duration of the block, then restore.

        A probe whose module or attribute no longer exists is recorded in
        ``absent`` instead of failing, so the benchmark survives a
        refactor that merges or renames a layer function.
        """
        patched: list[tuple[object, str, Callable]] = []
        try:
            for probe in probes:
                try:
                    module = importlib.import_module(probe.module)
                    original = getattr(module, probe.attr)
                except (ImportError, AttributeError):
                    name = f"{probe.module}.{probe.attr}"
                    if name not in self.absent:
                        self.absent.append(name)
                    continue
                setattr(module, probe.attr, self._wrap(original, probe))
                patched.append((module, probe.attr, original))
            yield
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Self time of every span, aligned with ``spans``."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def per_group(self, inclusive: bool = False) -> dict[str, dict[str, float]]:
        """Seconds per span name within each group (self time by default)."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        values = [s.end - s.start for s in self.spans] if inclusive else self.self_times()
        for s, value in zip(self.spans, values):
            out[s.group][s.name] += value
        return out
