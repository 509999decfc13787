"""Experiment suite: paired solver runs aggregated into CSV artifacts.

Every experiment draws per-trial instances through derive_stream, runs
both solvers on the *same* instance (paired design), and averages over
trials.  All CSV content except wall-clock columns is reproducible byte
for byte from (config, master seed) on a given platform.

CSV schemas (headers are part of the interface):

    trace.csv         scenario,algorithm,iteration,mean_sq_error,mean_cost
    lambda_sweep.csv  scenario,algorithm,lambda,iterations,mean_sq_error,
                      mean_fn,mean_fp,mean_fn_rate,mean_fp_rate
    xi_sweep.csv      scenario,algorithm,xi,mean_sq_error
    bench.csv         scenario,lambda,algo,mean_iter_ns,mean_iter_flops,
                      ratio_vs_pg
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .adcd import adcd_solve
from .metrics import squared_error, support_errors
from .problems import SCENARIO_TAGS, ProblemInstance, ScenarioConfig, generate_instance
from .prox_solver import SolveResult, pg_solve
from .rng import derive_stream

ALGORITHMS = ("pg", "adcd")

# (iterations at lambda = LAMBDA_MIN, iterations at lambda = LAMBDA_MAX)
_SCHEDULE_ENDPOINTS = {"s1": (2800, 40), "s2": (3500, 50)}
LAMBDA_MIN = 5e-4
LAMBDA_MAX = 1.0

TRACE_HEADER = ["scenario", "algorithm", "iteration", "mean_sq_error", "mean_cost"]
LAMBDA_SWEEP_HEADER = [
    "scenario", "algorithm", "lambda", "iterations",
    "mean_sq_error", "mean_fn", "mean_fp", "mean_fn_rate", "mean_fp_rate",
]
XI_SWEEP_HEADER = ["scenario", "algorithm", "xi", "mean_sq_error"]
BENCH_HEADER = ["scenario", "lambda", "algo", "mean_iter_ns", "mean_iter_flops", "ratio_vs_pg"]


def default_lambda_grid() -> list[float]:
    """25 log-spaced regularization values spanning [5e-4, 1]."""
    return np.geomspace(LAMBDA_MIN, LAMBDA_MAX, 25).tolist()


def default_xi_grid() -> list[float]:
    """13 log-spaced perturbation-variance values spanning [1e-4, 1e-1]."""
    return np.geomspace(1e-4, 1e-1, 13).tolist()


def iteration_schedule(lam: float, scenario: str) -> int:
    """Iteration budget for a regularization value, log-linear in lambda.

    Endpoints are (5e-4 -> 2800, 1 -> 40) for scenario s1 and
    (5e-4 -> 3500, 1 -> 50) for s2; out-of-range values clamp to the
    nearest endpoint.
    """
    if scenario not in _SCHEDULE_ENDPOINTS:
        raise ValueError(f"unknown scenario {scenario!r} (expected 's1' or 's2')")
    at_min, at_max = _SCHEDULE_ENDPOINTS[scenario]
    if lam <= LAMBDA_MIN:
        return at_min
    if lam >= LAMBDA_MAX:
        return at_max
    t = (math.log(lam) - math.log(LAMBDA_MIN)) / (math.log(LAMBDA_MAX) - math.log(LAMBDA_MIN))
    return int(round(math.exp(math.log(at_min) + t * (math.log(at_max) - math.log(at_min)))))


@dataclass
class ExperimentConfig:
    """Everything a sweep needs: scenario, grids, trial count, seed, output."""

    scenario: ScenarioConfig
    kind: str                       # "s1" | "s2" | "custom"
    lambda_grid: list[float]
    xi_grid: list[float]
    trials: int
    master_seed: int
    out_dir: Path
    iters: Optional[int] = None     # overrides the schedule when set
    algos: tuple[str, ...] = ALGORITHMS

    def __post_init__(self) -> None:
        self.out_dir = Path(self.out_dir)
        if self.kind not in SCENARIO_TAGS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for name, grid in (("lambda_grid", self.lambda_grid), ("xi_grid", self.xi_grid)):
            if not grid:
                raise ValueError(f"{name} must be non-empty")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError(f"{name} must be strictly ascending")
        bad = set(self.algos) - set(ALGORITHMS)
        if bad:
            raise ValueError(f"unknown algorithms {sorted(bad)}")


def _schedule_for(cfg: ExperimentConfig, lam: float) -> int:
    if cfg.iters is not None:
        return cfg.iters
    # custom scenarios borrow the s1 schedule
    return iteration_schedule(lam, cfg.kind if cfg.kind in _SCHEDULE_ENDPOINTS else "s1")


def _instance(cfg: ExperimentConfig, trial: int, xi: float) -> ProblemInstance:
    scen = replace(cfg.scenario, xi=xi)
    rng = derive_stream(cfg.master_seed, SCENARIO_TAGS[cfg.kind], trial)
    return generate_instance(scen, rng)


def solve_instance(
    algo: str,
    inst: ProblemInstance,
    lam: float,
    iterations: int,
    with_truth: bool = True,
) -> SolveResult:
    """Run one solver on one instance by algorithm name ("pg" or "adcd")."""
    truth = inst.x_true if with_truth else None
    if algo == "pg":
        return pg_solve(inst.a, inst.b, lam, iterations, ground_truth=truth)
    if algo == "adcd":
        return adcd_solve(inst.a, inst.b, lam, iterations, ground_truth=truth)
    raise ValueError(f"unknown algorithm {algo!r}")


def trace_rows(cfg: ExperimentConfig, lam: float, xi: float) -> list[list]:
    """Per-iteration squared error and cost, averaged over paired trials."""
    iters = _schedule_for(cfg, lam)
    err_sum = {algo: np.zeros(iters) for algo in cfg.algos}
    cost_sum = {algo: np.zeros(iters) for algo in cfg.algos}
    for trial in range(cfg.trials):
        inst = _instance(cfg, trial, xi)
        for algo in cfg.algos:
            res = solve_instance(algo, inst, lam, iters)
            err_sum[algo] += res.sq_error
            cost_sum[algo] += res.cost
    rows = []
    for algo in cfg.algos:
        for it in range(iters):
            rows.append([
                cfg.kind, algo, it + 1,
                err_sum[algo][it] / cfg.trials,
                cost_sum[algo][it] / cfg.trials,
            ])
    return rows


def lambda_sweep_rows(cfg: ExperimentConfig) -> list[list]:
    """Converged error and support-miss means per lambda, at the scenario xi.

    Instances do not depend on lambda, so the same paired set is reused
    across the whole grid.  The solvers record no per-iteration error;
    the squared error is taken once per solve, from the final iterate.
    """
    instances = [_instance(cfg, t, cfg.scenario.xi) for t in range(cfg.trials)]
    k = cfg.scenario.k
    n = cfg.scenario.n
    rows = []
    for lam in cfg.lambda_grid:
        iters = _schedule_for(cfg, lam)
        for algo in cfg.algos:
            err = fn = fp = 0.0
            for inst in instances:
                res = solve_instance(algo, inst, lam, iters, with_truth=False)
                err += squared_error(res.x, inst.x_true)
                sup = support_errors(res.x, inst.x_true)
                fn += sup.false_negatives
                fp += sup.false_positives
            t = cfg.trials
            rows.append([
                cfg.kind, algo, lam, iters,
                err / t, fn / t, fp / t, fn / t / k, fp / t / (n - k),
            ])
    return rows


def xi_sweep_rows(cfg: ExperimentConfig, lam: float = 0.02) -> list[list]:
    """Converged error means per perturbation level, at fixed lambda.

    As in lambda_sweep_rows, the error is taken from the final iterate.
    """
    iters = _schedule_for(cfg, lam)
    rows = []
    for xi in cfg.xi_grid:
        err = {algo: 0.0 for algo in cfg.algos}
        for trial in range(cfg.trials):
            inst = _instance(cfg, trial, xi)
            for algo in cfg.algos:
                res = solve_instance(algo, inst, lam, iters, with_truth=False)
                err[algo] += squared_error(res.x, inst.x_true)
        for algo in cfg.algos:
            rows.append([cfg.kind, algo, xi, err[algo] / cfg.trials])
    return rows


def bench_rows(cfg: ExperimentConfig, lambda_grid: Optional[Sequence[float]] = None) -> list[list]:
    """Mean per-iteration wall time and multiply-add count per algorithm.

    Timing covers whole solves divided by the iteration budget, so each
    solver's one-time precomputation is amortized over its schedule;
    instance generation and CSV output are excluded.  Both algorithms are
    always measured (pg is the ratio denominator).
    """
    grid = list(lambda_grid) if lambda_grid is not None else cfg.lambda_grid
    rows = []
    for lam in grid:
        iters = _schedule_for(cfg, lam)
        ns = {algo: 0.0 for algo in ALGORITHMS}
        fl = {algo: 0.0 for algo in ALGORITHMS}
        for trial in range(cfg.trials):
            inst = _instance(cfg, trial, cfg.scenario.xi)
            for algo in ALGORITHMS:
                t0 = time.perf_counter_ns()
                res = solve_instance(algo, inst, lam, iters, with_truth=False)
                t1 = time.perf_counter_ns()
                ns[algo] += (t1 - t0) / iters
                fl[algo] += res.flops[-1] / iters
        for algo in ALGORITHMS:
            rows.append([
                cfg.kind, lam, algo,
                ns[algo] / cfg.trials,
                fl[algo] / cfg.trials,
                ns[algo] / ns["pg"],
            ])
    return rows


def _write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def run_trace(cfg: ExperimentConfig, lam: float = 0.02, xi: float = 0.01) -> Path:
    return _write_csv(cfg.out_dir / "trace.csv", TRACE_HEADER, trace_rows(cfg, lam, xi))


def run_lambda_sweep(cfg: ExperimentConfig) -> Path:
    return _write_csv(cfg.out_dir / "lambda_sweep.csv", LAMBDA_SWEEP_HEADER, lambda_sweep_rows(cfg))


def run_xi_sweep(cfg: ExperimentConfig, lam: float = 0.02) -> Path:
    return _write_csv(cfg.out_dir / "xi_sweep.csv", XI_SWEEP_HEADER, xi_sweep_rows(cfg, lam))


def run_bench(cfg: ExperimentConfig, lambda_grid: Optional[Sequence[float]] = None) -> Path:
    return _write_csv(cfg.out_dir / "bench.csv", BENCH_HEADER, bench_rows(cfg, lambda_grid))
