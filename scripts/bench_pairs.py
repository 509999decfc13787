#!/usr/bin/env python3
"""Run interleaved parent/change perfbench pairs in two checkouts.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N \\
        --seed0 S --seconds T

PARENT and CHANGE are the roots of two checkouts (the parent commit and
the change) on the same host.  Pair k runs

    python3 perfbench/run.py --workload W --seed S+k --seconds T --trace 0

in both checkouts, one after the other: the parent first in even pairs
and the change first in odd ones, so neither side always runs on a host
warmed by the other.  Each run's result line (the last line of its
stdout) is printed after its side and seed.  Under the result line of a
run that is not correct or reports failed cells come its stderr lines
that start with `error:` or `check failed:` (a failed cell's error names
the `sparsetls solve` flags that reproduce it), or, when it printed no
result line, the last STDERR_TAIL lines of its stderr.  The exit status
is 1 if any run is not correct or gives no result line.

Nothing is written here: each run leaves its record in its checkout's
`.perfbench/results/`, and scripts/bench_record.py folds the two
directories into a BENCH_<pr>.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Callable, Optional

STDERR_TAIL = 20


def plan(pairs: int, seed0: int) -> list[tuple[str, int]]:
    """(side, seed) of each run, in run order."""
    runs = []
    for k in range(pairs):
        sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        runs += [(side, seed0 + k) for side in sides]
    return runs


def run_one(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[Optional[str], str]:
    """The result line of one timed perfbench run in checkout (None when it
    printed none) and the run's stderr."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return (lines[-1] if lines else None), proc.stderr


def outcome(line: Optional[str], stderr: str) -> tuple[bool, list[str]]:
    """Whether a run is correct, and what to print under its result line:
    nothing for a correct run with no failed cells; else its `error:` and
    `check failed:` stderr lines, or its stderr tail when it gave no
    result line."""
    try:
        result = json.loads(line)
        correct, failed = result["correct"] is True, result["failed"]
    except (TypeError, ValueError, KeyError):
        correct, failed = False, None
    if correct and not failed:
        return True, []
    lines = stderr.splitlines()
    if line is None:
        return correct, lines[-STDERR_TAIL:]
    return correct, [text for text in lines if text.startswith(("error:", "check failed:"))]


def main(argv: Optional[list[str]] = None,
         runner: Callable[[Path, str, int, float], tuple[Optional[str], str]] = run_one) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed0", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seed0 < 0 or args.seconds <= 0:
        ap.error("--pairs must be >= 1, --seed0 >= 0 and --seconds > 0")
    checkouts = {"parent": args.parent, "change": args.change}
    ok = True
    for side, seed in plan(args.pairs, args.seed0):
        line, stderr = runner(checkouts[side], args.workload, seed, args.seconds)
        print(f"{side} seed={seed} {line}", flush=True)
        correct, shown = outcome(line, stderr)
        for text in shown:
            print(f"    {text}", flush=True)
        ok = ok and correct
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
