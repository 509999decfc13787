#!/usr/bin/env python3
"""Reproduce the full benchmark suite as CSV artifacts.

Writes, for both named scenarios (in OUT/s1 and OUT/s2):
  * trace.csv         per-iteration error/cost at lambda = 0.02, xi = 0.01
  * lambda_sweep.csv  converged error and support misses over the lambda grid
  * xi_sweep.csv      converged error over the xi grid at lambda = 0.02
and one OUT/bench/bench.csv, per-iteration wall time and flop comparison.

Each scenario takes two passes over its cells (experiments.run_pass), so
no cell is solved twice:
  * sweep-lambda + bench: bench draws the sweep's instances at xi = 0.01
    over the same lambda grid, so its cells are the sweep's first
    --bench-trials trials;
  * sweep-xi + trace: trace's cells are the sweep's xi = 0.01 column.
    This pass keeps the ground truth, since trace reads sq_error.
Each CSV has the bytes the matching `sparsetls` command writes alone
(bench.csv but for its wall-clock columns): the suite's lambda 0.02 and
xi 0.01 are experiments.DEFAULT_LAMBDA and DEFAULT_XI, the commands'
--lambda and --xi defaults.

With --trials 2 --bench-trials 2 the whole suite took 17-20 s (35-41 s
for the seven separate commands it replaces) on one CPU of a 2-vCPU
x86-64 host (numpy 2.4 with OpenBLAS, one BLAS thread); its time grows
with the larger of --trials and --bench-trials, whose defaults are 100
and 10.  Use --trials to scale down for a smoke run (results stay
deterministic for any fixed trial count and seed).

A bad --trials, --bench-trials or --seed exits 2 naming its flag, before
any config is built.  A pass that fails is named on stderr and the
others still run; the script then exits 1.  bench.csv is written only
when both sweep-lambda + bench passes succeed.
"""

import argparse
import functools
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sparsetls import ExperimentConfig, default_lambda_grid, default_xi_grid  # noqa: E402
from sparsetls.cli import _typed  # noqa: E402
from sparsetls.experiments import (  # noqa: E402
    DEFAULT_LAMBDA,
    DEFAULT_XI,
    bench_sums,
    lambda_sweep_sums,
    run_pass,
    trace_sums,
    write_rows,
    xi_sweep_sums,
)
from sparsetls.kernel import require_count  # noqa: E402
from sparsetls.rng import require_u64  # noqa: E402

SCENARIOS = ("s1", "s2")


def plan(args) -> list[tuple[str, list]]:
    """(name, jobs) of each pass, in run order; building the configs
    checks them."""
    passes = []
    for kind in SCENARIOS:
        sweep = ExperimentConfig(kind=kind, lambda_grid=default_lambda_grid(), xi_grid=[DEFAULT_XI],
                                 trials=args.trials, master_seed=args.seed)
        passes.append((f"{kind}: sweep-lambda + bench", [
            (lambda_sweep_sums, sweep), (bench_sums, replace(sweep, trials=args.bench_trials))]))
        passes.append((f"{kind}: sweep-xi + trace", [
            (xi_sweep_sums, replace(sweep, lambda_grid=[DEFAULT_LAMBDA], xi_grid=default_xi_grid())),
            (trace_sums, replace(sweep, lambda_grid=[DEFAULT_LAMBDA]))]))
    return passes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", default="results", help="output root directory")
    trials = functools.partial(require_count, name="trials")
    ap.add_argument("--trials", type=_typed("--trials", trials, int), default=100)
    ap.add_argument("--bench-trials", type=_typed("--bench-trials", trials, int), default=10)
    ap.add_argument("--seed", type=_typed("--seed", functools.partial(require_u64, name="seed"), int), default=0)
    args = ap.parse_args()
    passes = plan(args)

    failed, bench = [], []
    for name, jobs in passes:
        t0 = time.perf_counter()
        print(f"+ {name}", flush=True)
        try:
            for (reduction, cfg), rows in zip(jobs, run_pass(*jobs)):
                if reduction is bench_sums:
                    bench.append(rows)
                else:
                    print(write_rows(reduction, Path(args.out) / cfg.kind, rows), flush=True)
        except Exception as exc:
            print(f"failed: {name}: {exc}", file=sys.stderr)
            failed.append(name)
            continue
        print(f"  done in {time.perf_counter() - t0:.1f}s", flush=True)
    if len(bench) == len(SCENARIOS):
        print(write_rows(bench_sums, Path(args.out) / "bench", [row for rows in bench for row in rows]))
    else:
        print("bench.csv not written: a sweep-lambda + bench pass failed", file=sys.stderr)
    if failed:
        print(f"{len(failed)} of {len(passes)} passes failed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
