#!/usr/bin/env python3
"""Run interleaved parent/change perfbench pairs in two checkouts.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N \\
        --seed0 S --seconds T
    python3 scripts/bench_pairs.py PARENT CHANGE --command "ARGS" --pairs N

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

After the last run comes one line per end-to-end metric of BENCHMARK.json
that runs correct on both sides of a pair report: scripts/bench_record.py's
compare over those pairs, as BENCH_<pr>.json stores it: each side's median
[Q1, Q3], change/parent, the pairs the change won in the metric's better
direction, and whether a claimed gain would hold (9 in 10 pairs won, the
medians apart by more than the parent's Q3 - Q1).

Nothing is written here: each run leaves its record in its checkout's
`.perfbench/results/`, and scripts/bench_record.py folds the two
directories into a BENCH_<pr>.json.

With --command, each run is instead one `sparsetls ARGS` command (say
"sweep-lambda --scenario s2 --trials 1 --algo pg"), in the same
alternating plan, seeds counting pairs.  A fresh child process per run
pins itself to one CPU, imports the package from the checkout's src/ and
that checkout's own perfbench/hostspeed.py (read only, no bytecode is
written), and calls cli_main(ARGS) through hostspeed's Speed.timed, in an
empty temporary directory that takes the command's output.  Its result
line holds the exit status, the wall seconds less the probes, the
slowdown, the scaled seconds (wall / slowdown) and the child's peak RSS
(ru_maxrss) in MB.  After the last run come, by the same compare, each
side's median scaled seconds and peak RSS, and the pairs in which the
change is the lower.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_record import compare  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
STDERR_TAIL = 20
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# run in the checkout's child process: argv[1] is the checkout, argv[2:]
# the command
TIMED_COMMAND = """
import contextlib, io, json, resource, sys
root = sys.argv[1]
sys.path[:0] = [root + "/src", root + "/perfbench"]
import hostspeed
from sparsetls import cli_main
hostspeed.pin_to_one_cpu()
with contextlib.redirect_stdout(io.StringIO()):
    code, wall, slowdown = hostspeed.Speed().timed(lambda: cli_main(sys.argv[2:]))
print(json.dumps({"correct": code == 0, "failed": int(code != 0), "exit": code, "wall_s": wall,
                  "slowdown": slowdown, "scaled_s": wall / slowdown,
                  "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


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


def run_command(checkout: Path, command: list[str]) -> tuple[Optional[str], str]:
    """The result line of one host-scaled sparsetls command run in a
    fresh process on checkout's own code (None when it printed none), and
    the run's stderr."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **{var: "1" for var in THREAD_VARS})
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run([sys.executable, "-c", TIMED_COMMAND, str(Path(checkout).resolve()),
                               *command], cwd=out, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return (lines[-1] if lines else None), proc.stderr


def correct_values(lines: dict[tuple[str, int], Optional[str]],
                   value: Callable[[dict], Optional[float]]) -> list[dict[int, float]]:
    """[parent, change]: the value each correct run's parsed result line
    gives, by seed, leaving out a run whose value is None."""
    sides = {"parent": {}, "change": {}}
    for (side, seed), line in lines.items():
        if outcome(line, "")[0] and (v := value(json.loads(line))) is not None:
            sides[side][seed] = v
    return [sides["parent"], sides["change"]]


def command_summary(lines: dict[tuple[str, int], Optional[str]]) -> list[str]:
    """Per key, compare's medians, change/parent and the pairs in which the
    change is the lower."""
    out = []
    for key in ("scaled_s", "maxrss_mb"):
        if stats := compare(*correct_values(lines, lambda r: r[key]), "lower"):
            par, chg = stats["parent"]["median"], stats["change"]["median"]
            out.append(f"{key}: parent {par:.4g} change {chg:.4g} "
                       f"change/parent {stats['change_over_parent']:.4f} "
                       f"change lower in {stats['pairs_won']}/{stats['pairs']}")
    return out


def workload_summary(lines: dict[tuple[str, int], Optional[str]], end_to_end: list[dict]) -> list[str]:
    """Per end-to-end metric that pairs of correct runs report, compare's
    medians [Q1, Q3], change/parent, pairs won and claim."""
    out = []
    for metric in end_to_end:
        key = metric["name"]
        values = correct_values(lines, lambda r: r["metrics"].get(key, {}).get("value"))
        if stats := compare(*values, metric["better"]):
            par, chg = stats["parent"], stats["change"]
            out.append(f"{key}: parent {par['median']:.6g} [{par['q1']:.6g}, {par['q3']:.6g}] "
                       f"change {chg['median']:.6g} [{chg['q1']:.6g}, {chg['q3']:.6g}] "
                       f"change/parent {stats['change_over_parent']:.4f} "
                       f"change better ({metric['better']}) in {stats['pairs_won']}/{stats['pairs']}, "
                       f"claim {'holds' if stats['claim'] else 'fails'}")
    return out


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
         runner: Callable[[Path, str, int, float], tuple[Optional[str], str]] = run_one,
         command_runner: Callable[[Path, list[str]], tuple[Optional[str], str]] = run_command) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload")
    what.add_argument("--command", type=shlex.split, help="sparsetls arguments, as one string")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed0", type=int)
    ap.add_argument("--seconds", type=float, default=45.0)
    args = ap.parse_args(argv)
    if args.workload and args.seed0 is None:
        ap.error("--workload needs --seed0")
    if args.command is not None and not args.command:
        ap.error("--command needs arguments")
    seed0 = args.seed0 or 0
    if args.pairs < 1 or seed0 < 0 or args.seconds <= 0:
        ap.error("--pairs must be >= 1, --seed0 >= 0 and --seconds > 0")
    checkouts = {"parent": args.parent, "change": args.change}
    ok, lines = True, {}
    for side, seed in plan(args.pairs, seed0):
        if args.command:
            line, stderr = command_runner(checkouts[side], args.command)
        else:
            line, stderr = runner(checkouts[side], args.workload, seed, args.seconds)
        lines[side, seed] = line
        print(f"{side} seed={seed} {line}", flush=True)
        correct, shown = outcome(line, stderr)
        for text in shown:
            print(f"    {text}", flush=True)
        ok = ok and correct
    if args.command:
        summed = command_summary(lines)
    else:
        summed = workload_summary(lines, json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"])
    for text in summed:
        print(text, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
