"""Command-line front end.

Subcommands:

* ``run`` loads or generates a graph, runs the phases ``--mode``
  selects (all of them, or one through the same phase driver with the
  same per-step checks), writes a JSON (or per-step CSV) report and
  exits 0 only when the run produced no invariant failures.
* ``generate`` writes a generated graph as an edge-list file.

Exit codes: 0 success, 1 invariant failure / incomplete coloring /
failed verification, 2 usage or IO error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from .checks import decomposition_bound_failures, decomposition_failures, verify_coloring
from .decomposition import Decomposition, decompose, decomposition_to_dict, structural_metrics
from .engine import (
    DEFAULT_MAX_FALLBACK_ITERS,
    PhaseDriver,
    RunReport,
    StepStats,
    schedule_plan,
)
from .errors import DeltaColorError, InvariantViolation, ValidationError
from .generators import GeneratorSpec, generate
from .graph import Graph, RepeatedKeys
from .io import dumps_json, load_palettes, read_edge_list, read_json, write_edge_list
from .schedule import DEFAULT_K, build_schedule

MODES = ("full", "decompose-only", "initial-only", "dense-steps", "fallback-only", "verify")
# Most repetitions (each a full seeded run; the summary lists every seed)
# and most dense steps (one gamma each, listed before the first runs).
MAX_COUNT = 10**6


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line (``-h`` prints the usage)."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    parser = _Parser(
        prog="deltacolor",
        description="Randomized (max degree + 1) list-coloring simulator and verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the algorithm or one of its phases")
    run_p.add_argument("--input", default=None,
                       help="edge-list file ('u v' per line, optional 'n <count>' header)")
    run_p.add_argument("--gen", default=None,
                       help="generator spec, e.g. complete:21, gnp:1000,0.5, clique_chain:50x20")
    run_p.add_argument("--palettes", default="canonical",
                       help="'canonical' for {1..max_degree+1} everywhere, or a JSON map path")
    run_p.add_argument("--K", type=float, default=DEFAULT_K, dest="k",
                       help=f"trade-off constant (default {DEFAULT_K:g})")
    run_p.add_argument("--epsilon", type=float, default=None,
                       help="override the density parameter (the formula yields tiny values "
                            "at small max degree, which leaves every vertex sparse)")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--mode", choices=MODES, default="full")
    run_p.add_argument("--out", default=None, help="report path (stdout when omitted)")
    run_p.add_argument("--format", choices=("json", "csv"), default="json")
    run_p.add_argument("--repetitions", type=int, default=1,
                       help="number of seeded runs to aggregate (seed, seed+1, ...); "
                            "the graph is decomposed at most once")
    run_p.add_argument("--force-main-path", action="store_true",
                       help="run decomposition + dense steps even when the activation gate fails")
    run_p.add_argument("--max-fallback-iters", type=int, default=DEFAULT_MAX_FALLBACK_ITERS)
    run_p.add_argument("--steps", type=int, default=None,
                       help="dense-steps mode: number of dense steps (default: schedule)")
    run_p.add_argument("--step-delta", type=float, default=None,
                       help="dense-steps mode: drive every step with gamma = 1 - 2*sqrt(delta)")
    run_p.add_argument("--coloring", default=None,
                       help="verify mode: JSON coloring map, or a report containing one")
    run_p.add_argument("--config", default=None,
                       help="JSON file of defaults for any of the above (flags win)")

    gen_p = sub.add_parser("generate", help="write a generated graph as an edge list")
    gen_p.add_argument("--gen", required=True)
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--out", required=True)
    return parser, run_p


def _parse_args(
    parser: argparse.ArgumentParser, run_p: argparse.ArgumentParser, argv: list[str]
) -> argparse.Namespace:
    """Parse ``argv``; a ``--config`` file supplies defaults that flags override."""
    args = parser.parse_args(argv)
    if args.command != "run" or args.config is None:
        return args
    cfg = read_json(args.config)
    if not isinstance(cfg, dict):
        raise ValidationError(f"{args.config}: config must be a JSON object")
    if isinstance(cfg, RepeatedKeys):
        raise ValidationError(f"{args.config}: config key {cfg.repeated()[0]!r} written twice")
    actions = {a.dest: a for a in run_p._actions if a.dest not in ("help", "config")}
    defaults = {}
    for key, value in cfg.items():
        action = actions.get(key.replace("-", "_").lower())
        if action is None:
            raise ValidationError(f"{args.config}: unknown config key {key!r}")
        defaults[action.dest] = _config_value(action, value, f"{args.config}: config key {key!r}")
    # defaults must land on the subparser: it re-applies its own
    # defaults over anything set on the parent
    run_p.set_defaults(**defaults)
    return parser.parse_args(argv)


def _config_value(action: argparse.Action, value, where: str):
    """A config value checked as its flag's argument would be.

    Store-true flags take JSON booleans. Strings go through the flag's
    type, as on the command line; an int flag takes JSON integers and a
    float flag JSON numbers. Choices apply either way. ``gen`` may also
    be a generator spec object.
    """
    if action.dest == "gen" and isinstance(value, dict):
        if isinstance(value, RepeatedKeys):
            raise ValidationError(f"{where}: key {value.repeated()[0]!r} written twice")
        return value
    convert = action.type or str
    numbers = {int: (int,), float: (int, float)}.get(convert, ())
    try:
        if action.nargs == 0 and type(value) is bool:
            return value
        if action.nargs != 0 and (isinstance(value, str) or type(value) in numbers):
            value = convert(value)
            if action.choices is None or value in action.choices:
                return value
    except ValueError:
        pass
    raise ValidationError(f"{where}: {value!r} is not a valid {action.option_strings[0]} value")


def _load_graph(args) -> Graph:
    if args.input:
        return read_edge_list(args.input)
    if isinstance(args.gen, dict):
        # config files may carry the generator spec as a JSON object
        return generate(GeneratorSpec.from_dict({"seed": args.seed, **args.gen}))
    return generate(GeneratorSpec.parse(args.gen, seed=args.seed))


def _emit(report: dict, steps: list[StepStats] | None, args) -> None:
    # main() admits csv only for the single runs that give ``steps``
    if args.format == "csv":
        lines = [",".join(f.name for f in dataclasses.fields(StepStats))]
        for s in steps:
            lines.append(",".join("" if x is None else str(x) for x in s.to_dict().values()))
        text = "\n".join(lines) + "\n"
    else:
        text = dumps_json(report) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")


def _single_run(
    graph: Graph, palettes, args, seed: int, decomp: Decomposition | None = None
) -> tuple[RunReport, dict, Decomposition | None]:
    """One seeded run of the phases ``--mode`` selects, on ``decomp`` when
    given; returns the report, the extra report keys of a step mode and
    the decomposition the run used, if any."""
    driver = PhaseDriver(graph, palettes, args.k, seed, args.epsilon, decomp,
                         force_main_path=args.force_main_path,
                         max_fallback_iters=args.max_fallback_iters)
    if args.mode == "full":
        driver.full()
        return driver.report(), {}, driver.decomp
    extras: dict = {"mode": args.mode}
    if args.mode == "initial-only":
        driver.initial()
        good = driver.good
        extras["good_colors"] = {
            "max": int(good.good_counts.max()),
            "total": int(good.good_counts.sum()),
            "min_slack": int((good.s0 - good.good_counts).min()),
            "oversized_palettes": good.oversized_palettes,
        }
    elif args.mode == "dense-steps":
        driver.decompose()
        if args.step_delta is None:
            gammas, bounds = schedule_plan(driver.schedule, args.steps)
        else:
            count = 1 if args.steps is None else args.steps
            gammas, bounds = [1.0 - 2.0 * math.sqrt(args.step_delta)] * count, None
        driver.dense(gammas, bounds)
        extras.update(gammas=gammas, num_cliques=len(driver.decomp.cliques))
    else:
        driver.fallback()
    return driver.report(), extras, driver.decomp


def _aggregate(reports: list[RunReport], seeds: list[int]) -> dict:
    dense_stats: dict[int, dict[str, int]] = {}
    kind_totals: dict[str, dict[str, float]] = {}
    for rep in reports:
        dense_index = 0
        for s in rep.steps:
            bucket = kind_totals.setdefault(s.kind, {"steps": 0, "colored": 0, "de_colored": 0})
            bucket["steps"] += 1
            bucket["colored"] += s.colored
            bucket["de_colored"] += s.de_colored
            if s.kind == "dense":
                dense_index += 1
                d = dense_stats.setdefault(dense_index, {"tried": 0, "de_colored": 0, "runs": 0})
                d["runs"] += 1
                d["tried"] += s.colored + s.de_colored
                d["de_colored"] += s.de_colored
    return {
        "repetitions": len(reports),
        "seeds": seeds,
        "runs_with_failures": sum(1 for r in reports if r.invariant_failures),
        "mean_rounds_used": float(np.mean([r.rounds_used for r in reports])),
        "per_kind": kind_totals,
        "dense_de_coloring_frequency": {
            str(i): (d["de_colored"] / d["tried"] if d["tried"] else 0.0)
            for i, d in sorted(dense_stats.items())
        },
    }


def _mode_run(graph: Graph, palettes, args) -> int:
    if args.repetitions > 1:
        seeds = list(range(args.seed, args.seed + args.repetitions))
        reports, decomp = [], None
        for s in seeds:
            # the decomposition draws no randomness: the first run's serves every seed
            report, _, decomp = _single_run(graph, palettes, args, s, decomp)
            reports.append(report)
        aggregate = _aggregate(reports, seeds)
        _emit(aggregate, None, args)
        return 1 if aggregate["runs_with_failures"] else 0
    report, extras, _ = _single_run(graph, palettes, args, args.seed)
    _emit({**report.to_dict(), **extras}, report.steps, args)
    for msg in report.invariant_failures:
        print(f"invariant failure: {msg}", file=sys.stderr)
    return 1 if report.invariant_failures else 0


def _mode_decompose(graph: Graph, args) -> int:
    sched = build_schedule(max(graph.max_degree, 1), graph.n, args.k, epsilon=args.epsilon)
    decomp = decompose(graph, sched.epsilon)
    metrics = structural_metrics(graph, decomp)
    failures = decomposition_failures(graph, decomp)
    failures += decomposition_bound_failures(graph, decomp, metrics)
    report = decomposition_to_dict(decomp, metrics)
    report["invariant_failures"] = failures
    report["num_sparse"] = int(decomp.sparse.size)
    report["num_cliques"] = len(decomp.cliques)
    _emit(report, None, args)
    for msg in failures:
        print(f"invariant failure: {msg}", file=sys.stderr)
    return 1 if failures else 0


def _mode_verify(graph: Graph, palettes, args) -> int:
    data = read_json(args.coloring)
    if isinstance(data, RepeatedKeys) and "coloring" in data.repeated():
        raise ValidationError(f"{args.coloring}: key 'coloring' written twice")
    coloring = data.get("coloring", data) if isinstance(data, dict) else data
    if not isinstance(coloring, dict):
        raise ValidationError(f"{args.coloring}: expected a JSON object mapping vertex -> color")
    problems = verify_coloring(graph, palettes, coloring)
    report = {"mode": "verify", "valid": not problems, "problems": problems}
    _emit(report, None, args)
    for msg in problems:
        print(f"verify: {msg}", file=sys.stderr)
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, run_p = _build_parser()
    try:
        args = _parse_args(parser, run_p, argv)
        if args.seed < 0:
            raise ValidationError("--seed must be nonnegative")
        if args.command == "generate":
            graph = generate(GeneratorSpec.parse(args.gen, seed=args.seed))
            write_edge_list(graph, args.out)
            print(f"wrote {graph.n} vertices / {graph.num_edges} edges to {args.out}")
            return 0

        if bool(args.input) == bool(args.gen):
            raise ValidationError("exactly one of --input / --gen is required")
        if args.repetitions < 1:
            raise ValidationError("--repetitions must be at least 1")
        if args.repetitions > MAX_COUNT:
            raise ValidationError(f"--repetitions must be at most {MAX_COUNT}")
        if args.repetitions > 1 and args.mode in ("decompose-only", "verify"):
            raise ValidationError(f"--repetitions does not apply to --mode {args.mode}")
        for flag, value, mode in (("--steps", args.steps, "dense-steps"),
                                  ("--step-delta", args.step_delta, "dense-steps"),
                                  ("--coloring", args.coloring, "verify")):
            if value is not None and args.mode != mode:
                raise ValidationError(f"{flag} does not apply to --mode {args.mode}")
        if args.steps is not None and not 1 <= args.steps <= MAX_COUNT:
            raise ValidationError(f"--steps must be at least 1 and at most {MAX_COUNT}")
        if args.step_delta is not None and not 0.0 < args.step_delta <= 0.25:
            raise ValidationError("--step-delta must lie in (0, 0.25] so gamma stays in [0, 1]")
        step_report = args.repetitions == 1 and args.mode not in ("decompose-only", "verify")
        if args.format == "csv" and not step_report:
            raise ValidationError("csv format is only available for step-producing modes")
        if args.mode == "verify" and not args.coloring:
            raise ValidationError("verify mode needs --coloring")

        graph = _load_graph(args)
        if args.mode == "decompose-only":
            return _mode_decompose(graph, args)
        palettes = load_palettes(args.palettes, graph)
        if args.mode == "verify":
            return _mode_verify(graph, palettes, args)
        return _mode_run(graph, palettes, args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except (OSError, DeltaColorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
