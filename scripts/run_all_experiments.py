#!/usr/bin/env python3
"""Reproduce the full benchmark suite as CSV artifacts.

Runs, for both named scenarios:
  * trace.csv         per-iteration error/cost at lambda = 0.02, xi = 0.01
  * lambda_sweep.csv  converged error and support misses over the lambda grid
  * xi_sweep.csv      converged error over the xi grid at lambda = 0.02
  * bench.csv         per-iteration wall time and flop comparison

With --trials 2 --bench-trials 2 the whole suite took 36 s on one CPU
of a 2-vCPU x86-64 host (numpy 2.4 with OpenBLAS, one BLAS thread); the
sweeps' time grows with --trials and bench's with --bench-trials, whose
defaults are 100 and 10.  Use --trials to scale down for a smoke run
(results stay deterministic for any fixed trial count and seed).

A job that fails is named on stderr and the others still run; the script
then exits 1.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sparsetls import cli_main  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results", help="output root directory")
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--bench-trials", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    jobs: list[list[str]] = []
    for scen in ("s1", "s2"):
        out = str(Path(args.out) / scen)
        common = ["--scenario", scen, "--seed", str(args.seed), "--out", out]
        trials = ["--trials", str(args.trials)]
        jobs.append(["trace", "--lambda", "0.02", "--xi", "0.01", *common, *trials])
        jobs.append(["sweep-lambda", "--xi", "0.01", *common, *trials])
        jobs.append(["sweep-xi", "--lambda", "0.02", *common, *trials])
    jobs.append([
        "bench", "--scenario", "both", "--seed", str(args.seed),
        "--trials", str(args.bench_trials), "--out", str(Path(args.out) / "bench"),
    ])

    failed = 0
    for job in jobs:
        t0 = time.perf_counter()
        print(f"+ sparsetls {' '.join(job)}", flush=True)
        rc = cli_main(job)
        if rc != 0:
            print(f"failed with exit code {rc}: sparsetls {' '.join(job)}", file=sys.stderr)
            failed += 1
            continue
        print(f"  done in {time.perf_counter() - t0:.1f}s", flush=True)
    if failed:
        print(f"{failed} of {len(jobs)} jobs failed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
