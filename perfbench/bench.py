"""Measurement loop, result line and details file of the benchmark.

``run.py`` is the entry point; it caps BLAS threads and puts the
checkout's package on the path before this module imports numpy.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

import numpy as np
from deltacolor import io

import layers
import workloads
from tracer import Tracer

SETUP_REPEATS = 3
# Set-ups repeat for at least this share of --seconds, so a cheap set-up
# gets enough samples for a steady median.
SETUP_SHARE = 0.2
MIN_ITERATIONS = 3
MIN_TRACED_PAIRS = 2

# Times of the three operations are in reference seconds (unit "ref_s").
# On a shared 2-vCPU VM, the speed of the same code drifts by up to 1.7x
# over tens of seconds, which swamps any median of raw seconds. So a fixed
# calibration kernel is timed right before and right after every operation,
# and each sample is scaled by REFERENCE_SECONDS over the mean of those two
# kernel times. REFERENCE_SECONDS is about the kernel's median on that VM
# (x86_64, 2.1 GHz), so reference and raw seconds are close there. Set-up
# times stay in wall seconds (unit "s"). Per-layer times of an iteration
# are scaled by the run's median kernel time. Raw seconds of everything,
# and the kernel times, stay in the details file.
REFERENCE_SECONDS = 0.015
# Each kernel time is the median of this many back-to-back kernel calls.
KERNEL_CALLS = 3
REF_S = layers.REF_S

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", REF_S),
    ("decompose_s", REF_S),
    ("verify_s", REF_S),
    ("peak_rss_mb", "MiB"),
)
# Per-layer metrics the traced run adds to those in layers.LAYER_METRICS.
# calibration.kernel_s is the run's median kernel time in wall seconds, so
# a change that slows the kernel too (and so hides in ref_s) still shows.
TRACE_METRICS = (
    ("trace.run_s", REF_S),
    ("trace.overhead_s", REF_S),
    ("calibration.kernel_s", "s"),
)
_CALIBRATION_INPUT = np.arange(300_000)


def calibration_seconds() -> float:
    """Time of a fixed mix of interpreter loops, dict inserts and numpy
    passes over memory, the kinds of work the timed operations do."""
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    table = {str(i): i for i in range(20_000)}
    ordered = np.sort(_CALIBRATION_INPUT[::-1])
    picked = (ordered * 3)[ordered % 7 == 0].sum()
    del total, table, picked
    return time.perf_counter() - start


class Measurement:
    """Checked operations on one workload and seed, with their timings.

    An operation fails when it raises, reports invariant failures,
    leaves vertices uncolored, fails the benchmark's own output check,
    or returns output that differs from the first iteration of the same
    seed. Failures are counted and described, never raised.
    """

    def __init__(self, wl: workloads.Workload, seed: int, workdir: Path):
        self.wl = wl
        self.seed = seed
        self.prepared = wl.prepare(seed, workdir)
        self.report_path = workdir / "report.json"
        self.attempted = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {name: [] for name, _ in END_TO_END}
        # kernel seconds around each sample, aligned with samples
        self.kernels: dict[str, list[float]] = {name: [] for name, _ in END_TO_END}
        self.run_seconds: dict[str, float] = {}  # raw run time per group
        self.calibration: list[float] = []
        self.inputs: workloads.Inputs | None = None
        self.table = None
        self.input_digests: dict[str, str] | None = None
        self.report: bytes | None = None  # reference report bytes of this seed
        self.coloring: dict | None = None  # coloring map parsed from those bytes
        self.decomposition_sha256: str | None = None
        self.group = ""
        self._tracer: Tracer | None = None

    def _span(self, name: str):
        return self._tracer.span(name) if self._tracer else nullcontext()

    def _fail(self, op: str, problems: list[str]) -> None:
        if problems:
            self.problems.append(f"{op}: {'; '.join(problems[:3])}")

    def _enter(self, group: str, tracer: Tracer | None) -> None:
        self.group = group
        self._tracer = tracer
        if tracer:
            tracer.group = group

    def _kernel(self) -> float:
        kernel = statistics.median(calibration_seconds() for _ in range(KERNEL_CALLS))
        self.calibration.append(kernel)
        return kernel

    def _prepare(self) -> float:
        """Collect the previous operation's garbage, so each operation
        starts from the same heap, then time the calibration kernel."""
        gc.collect()
        return self._kernel()

    def speed_factor(self) -> float:
        """Reference seconds per measured second in this run."""
        return REFERENCE_SECONDS / statistics.median(self.calibration)

    def scaled(self, seconds: float, unit: str) -> float:
        return seconds * self.speed_factor() if unit == REF_S else seconds

    def median(self, name: str, unit: str) -> float:
        """Median of an end-to-end metric's samples, each ``ref_s`` sample
        scaled by the kernel time around it."""
        if unit != REF_S:
            return statistics.median(self.samples[name])
        pairs = zip(self.samples[name], self.kernels[name])
        return statistics.median(REFERENCE_SECONDS * t / k for t, k in pairs)

    def setup(self, group: str, tracer: Tracer | None = None) -> None:
        self._enter(group, tracer)
        self.attempted += 1
        self._prepare()
        start = time.perf_counter()
        with self._span("bench.setup"):
            inputs = self.wl.setup(self.prepared)
        self.samples["setup_s"].append(time.perf_counter() - start)
        digest = workloads.input_digests(inputs)
        if self.inputs is None:
            self.inputs = inputs
            self.table = workloads.palette_table(inputs.palettes)
            self.input_digests = digest
        elif digest != self.input_digests:
            self._fail("setup", ["inputs differ between set-ups of one seed"])

    def iteration(self, group: str, timed: bool, tracer: Tracer | None = None) -> None:
        """Run, decompose and verify once."""
        self._enter(group, tracer)
        times = {
            "run_s": self._run_op(),
            "decompose_s": self._decompose_op(),
            "verify_s": self._verify_op(),
        }
        if timed:
            for name, value in times.items():
                if value is not None:
                    self.samples[name].append(value[0])
                    self.kernels[name].append(value[1])

    def _timed(self, op: str, span: str, fn):
        """(result, (seconds, kernel seconds around them)) of one operation,
        or None when it raised."""
        self.attempted += 1
        before = self._prepare()
        start = time.perf_counter()
        try:
            with self._span(span):
                result = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self._fail(op, [f"{type(exc).__name__}: {exc}"])
            return None
        elapsed = time.perf_counter() - start
        return result, (elapsed, (before + self._kernel()) / 2)

    def _run_and_write(self):
        report = workloads.run_full(self.wl, self.inputs, self.seed)
        with self._span("io.report_json"):
            # what `run --mode full --out` does with the report
            io.dump_json(report.to_dict(), self.report_path)
        return report

    def _run_op(self) -> tuple[float, float] | None:
        done = self._timed("run", "bench.run", self._run_and_write)
        if done is None:
            return None
        report, timing = done
        self.run_seconds[self.group] = timing[0]
        data = self.report_path.read_bytes()
        if self._tracer:
            self._tracer.count("engine.rounds_used", report.rounds_used)
        g = self.inputs.graph
        problems = list(report.invariant_failures)
        problems += workloads.coloring_problems(g, self.table, report.coloring)
        if self.report is None:
            coloring = json.loads(data)["coloring"]
            written = [coloring.get(str(v), 0) for v in range(g.n)]
            problems += workloads.coloring_problems(g, self.table, written)
            self.report, self.coloring = data, coloring
        elif data != self.report:
            problems.append("report bytes differ from the first iteration of this seed")
        self._fail("run", problems)
        return timing

    def _decompose_op(self) -> tuple[float, float] | None:
        done = self._timed(
            "decompose", "bench.decompose", lambda: workloads.decompose_only(self.wl, self.inputs)
        )
        if done is None:
            return None
        (decomp, failures), timing = done
        problems = failures + workloads.decomposition_problems(decomp, self.inputs)
        digest = workloads.decomposition_digest(decomp)
        if self.decomposition_sha256 is None:
            self.decomposition_sha256 = digest
        elif digest != self.decomposition_sha256:
            problems.append("decomposition differs from the first iteration of this seed")
        self._fail("decompose", problems)
        return timing

    def _verify_op(self) -> tuple[float, float] | None:
        if self.coloring is None:
            self.attempted += 1
            self._fail("verify", ["no coloring to verify: the first run failed"])
            return None
        done = self._timed(
            "verify", "bench.verify", lambda: workloads.verify(self.inputs, self.coloring)
        )
        if done is None:
            return None
        problems, timing = done
        self._fail("verify", problems)
        return timing


def _repeat(minimum: int, seconds: float, step) -> None:
    """Call ``step(i)`` at least ``minimum`` times and until ``seconds`` have passed."""
    start = time.perf_counter()
    i = 0
    while i < minimum or time.perf_counter() - start < seconds:
        step(i)
        i += 1


def measure(wl: workloads.Workload, seed: int, seconds: float, workdir: Path):
    """Untraced run; returns (measurement, end-to-end metrics)."""
    m = Measurement(wl, seed, workdir)
    _repeat(SETUP_REPEATS, SETUP_SHARE * seconds, lambda i: m.setup(f"setup/{i}"))
    m.iteration("warmup", timed=False)
    _repeat(MIN_ITERATIONS, seconds, lambda i: m.iteration(f"iter/{i}", timed=True))
    m.samples["peak_rss_mb"].append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    metrics = {
        name: {"value": m.median(name, unit), "unit": unit}
        for name, unit in END_TO_END
        if m.samples[name]
    }
    return m, metrics


def measure_traced(
    wl: workloads.Workload, seed: int, seconds: float, workdir: Path, tracer: Tracer
):
    """Traced run; returns (measurement, per-layer metrics).

    Untraced and traced iterations alternate, so the difference between
    their median run times is the tracing overhead.
    """
    m = Measurement(wl, seed, workdir)
    groups = {layers.SETUP: [], layers.ITERATION: []}

    def traced_setup(i: int) -> None:
        groups[layers.SETUP].append(f"setup/{i}")
        with tracer.installed(layers.PROBES):
            m.setup(f"setup/{i}", tracer)

    def pair(i: int) -> None:
        m.iteration(f"plain/{i}", timed=True)
        groups[layers.ITERATION].append(f"iter/{i}")
        with tracer.installed(layers.PROBES):
            m.iteration(f"iter/{i}", timed=False, tracer=tracer)

    _repeat(SETUP_REPEATS, 0, traced_setup)
    m.iteration("warmup", timed=False)
    _repeat(MIN_TRACED_PAIRS, seconds, pair)
    values = layers.layer_values(tracer, groups)
    traced_run_s = [m.run_seconds[g] for g in groups[layers.ITERATION] if g in m.run_seconds]
    if traced_run_s and m.samples["run_s"]:
        values["trace.run_s"] = statistics.median(traced_run_s)
        values["trace.overhead_s"] = values["trace.run_s"] - statistics.median(m.samples["run_s"])
    values["calibration.kernel_s"] = statistics.median(m.calibration)
    units = {name: unit for name, unit in TRACE_METRICS}
    units.update((lm.name, lm.unit) for lm in layers.LAYER_METRICS)
    metrics = {
        name: {"value": m.scaled(v, units[name]), "unit": units[name]}
        for name, v in values.items()
    }
    return m, metrics


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> int:
    wl = workloads.WORKLOADS.get(workload)
    if wl is None:
        known = ", ".join(sorted(workloads.WORKLOADS))
        print(f"error: unknown workload {workload!r}; choose from {known}", file=sys.stderr)
        return 2
    out_dir.mkdir(exist_ok=True)
    tracer = Tracer() if trace else None
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        if tracer:
            m, metrics = measure_traced(wl, seed, seconds, Path(tmp), tracer)
        else:
            m, metrics = measure(wl, seed, seconds, Path(tmp))

    details = {
        "workload": wl.name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_info(),
        **(m.input_digests or {}),
        "report_sha256": hashlib.sha256(m.report).hexdigest() if m.report else None,
        "decomposition_sha256": m.decomposition_sha256,
        "reference_seconds": REFERENCE_SECONDS,
        "speed_factor": m.speed_factor(),
        "samples": m.samples,
        "sample_kernels_s": m.kernels,
        "calibration_s": m.calibration,
        "problems": m.problems,
        "metrics": metrics,
    }
    if tracer:
        details["absent"] = tracer.absent
        details["counts"] = {group: dict(c) for group, c in tracer.counts.items()}
        details["spans"] = [asdict(s) for s in tracer.spans]
        details["run_seconds"] = m.run_seconds
    out = out_dir / f"{wl.name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(details, indent=1) + "\n")

    print(f"workload {wl.name} seed {seed}: {wl.why}")
    print(f"machine {json.dumps(details['machine'], sort_keys=True)}")
    for key in ("edges_sha256", "palettes_sha256", "report_sha256", "decomposition_sha256"):
        print(f"{key} {details.get(key)}")
    print(f"speed factor {m.speed_factor():.4f} (reference over measured seconds)")
    for name, entry in metrics.items():
        note = ""
        if name in m.samples and entry["unit"] in ("s", REF_S):
            note = f"median of {len(m.samples[name])}"
            if entry["unit"] == REF_S:
                note += f", raw {statistics.median(m.samples[name]):.6g} s"
        print(f"  {name:46s} {entry['value']:>12.6g} {entry['unit']:5s} {note}")
    if tracer and tracer.absent:
        print(f"absent, read as 0: {', '.join(tracer.absent)}")
    for problem in m.problems:
        print(f"FAILED {problem}")
    print(f"details in {out}")
    result = {
        "correct": not m.problems,
        "attempted": m.attempted,
        "failed": len(m.problems),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0
