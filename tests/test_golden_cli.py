"""Golden CLI output hashes: every run mode must stay byte-identical.

Each case runs ``deltacolor run`` with the arguments below and pins the
exit code and the SHA-256 of what it writes to stdout and to stderr.
``test_golden_reports.py`` pins single ``full`` reports; these cases
cover the step modes, fallback exhaustion and ``--repetitions``
aggregates. The hashes in ``golden/cli.json`` were recorded from the
CLI that ran each repetition through a fresh driver with its own
decomposition. To record them again (only after a deliberate change of
output), run

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from deltacolor.cli import main

FIXTURE = Path(__file__).parent / "golden" / "cli.json"

MAIN_PATH = ["--gen", "clique_chain:200x5", "--epsilon", "0.035", "--K", "0.5", "--seed", "3"]
SPARSE_MAIN = [
    "--gen", "gnp:80,0.4", "--seed", "5", "--epsilon", "0.1", "--K", "0.5", "--force-main-path",
]
STEP_DELTA = ["--gen", "clique_chain:50x4", "--epsilon", "0.1", "--seed", "3", "--step-delta", "0.04"]

CASES = {
    "initial-only-gnp-200-0.4-seed2": [
        "--gen", "gnp:200,0.4", "--seed", "2", "--mode", "initial-only",
        "--max-fallback-iters", "0",
    ],
    "dense-steps-plan-clique_chain-200x5-seed3": [
        *MAIN_PATH, "--mode", "dense-steps", "--max-fallback-iters", "0",
    ],
    "dense-steps-step-delta-clique_chain-50x4-seed3": [
        *STEP_DELTA, "--steps", "2", "--mode", "dense-steps", "--max-fallback-iters", "0",
    ],
    "fallback-only-complete-30-seed1-iters0": [
        "--gen", "complete:30", "--seed", "1", "--mode", "fallback-only",
        "--max-fallback-iters", "0",
    ],
    "fallback-only-complete-30-seed1-iters1": [
        "--gen", "complete:30", "--seed", "1", "--mode", "fallback-only",
        "--max-fallback-iters", "1",
    ],
    "fallback-only-gnp-80-0.4-seed5": ["--gen", "gnp:80,0.4", "--seed", "5", "--mode", "fallback-only"],
    "full-main-clique_chain-200x5-seed3-iters1": [
        *MAIN_PATH, "--force-main-path", "--mode", "full", "--max-fallback-iters", "1",
    ],
    "full-main-gnp-80-0.4-seed5-iters0": [*SPARSE_MAIN, "--max-fallback-iters", "0"],
    "full-main-gnp-80-0.4-seed5-iters1": [*SPARSE_MAIN, "--max-fallback-iters", "1"],
    "full-main-repetitions3": [
        *MAIN_PATH, "--force-main-path", "--mode", "full", "--repetitions", "3",
    ],
    "full-fallback-repetitions3": ["--gen", "gnp:80,0.4", "--seed", "5", "--repetitions", "3"],
    "initial-only-repetitions3": [
        "--gen", "gnp:200,0.4", "--seed", "2", "--mode", "initial-only", "--repetitions", "3",
    ],
    "fallback-only-repetitions3": [
        "--gen", "gnp:80,0.4", "--seed", "5", "--mode", "fallback-only", "--repetitions", "3",
    ],
    "dense-steps-plan-repetitions3": [*MAIN_PATH, "--mode", "dense-steps", "--repetitions", "3"],
    "dense-steps-step-delta-repetitions3": [
        *STEP_DELTA, "--mode", "dense-steps", "--repetitions", "3",
    ],
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_digest(name: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", *CASES[name]])
    return {"exit": code, "stdout": _sha(out.getvalue()), "stderr": _sha(err.getvalue())}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_hashes(name):
    assert cli_digest(name) == json.loads(FIXTURE.read_text())[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_cli.py --write")
    table = {name: cli_digest(name) for name in sorted(CASES)}
    FIXTURE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
