"""deltacolor's benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sparse-fallback --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: the package is imported from
that checkout's ``src/`` and nowhere else. The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``, holding the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. Samples, hashes, machine info and spans go to
``.perfbench-out/`` in the checkout. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="deltacolor benchmark, one workload and seed")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    # BLAS reads its thread count when numpy loads, so cap it first.
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)

    src = ROOT / "src"
    if not (src / "deltacolor" / "__init__.py").is_file():
        print(f"error: no deltacolor package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench

    out_dir = ROOT / ".perfbench-out"
    return bench.main(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)


if __name__ == "__main__":
    sys.exit(main())
