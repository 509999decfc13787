"""Experiment suite: paired solver runs aggregated into CSV artifacts.

One cell runner, `cells`, does every solve.  Each (xi, trial) instance
is drawn once, from the trial's derive_stream, and shared by every lambda
and algorithm (the paired design), and so is the kernel.Matrix of its a,
which makes what the solvers read of a alone once per instance.  Each
solve yields one Cell: trial, lambda, xi, algorithm, iteration budget,
instance, SolveResult and wall ns.

The four CSVs are reductions over the cells, each a mean over trials:

    trace_sums         one lambda, one xi; the sq_error and cost columns
    lambda_sweep_sums  one xi; squared error and support misses of the
                       final iterate against the instance's x_true
    xi_sweep_sums      one lambda; squared error of the final iterate
    bench_sums         one xi; wall ns and final multiply-adds, both per
                       iteration, always for both algorithms

A reduction consumes the cells of its config one at a time and sums them
under a key, (lambda, algo), (xi, algo) or algo, one cell per trial.  So
its rows depend only on the order of the trials under each key, never on
how the keys interleave.  That is the one order `cells` promises: under
each (xi, lambda, algorithm) the trials ascend.  In which order the keys
come is its own choice, free to follow how the solves are grouped.

One driver, `run_pass`, feeds a single cells stream to several
reductions, each given only the cells of its own config; each CLI command
(run_trace and its siblings, which write their CSV in the directory they
are given) is a pass with one reduction.

All CSV content except wall-clock columns is reproducible byte for byte
from (config, master seed) on a given platform.

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
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .adcd import adcd_solve
from .kernel import Matrix, require_count, require_lambda
from .metrics import squared_error, support_errors
from .problems import (SCENARIO_TAGS, ProblemInstance, ScenarioConfig, generate_instance, require_xi,
                       scenario_config)
from .prox_solver import BacktrackingError, SolveResult, pg_solve
from .rng import derive_stream, require_u64

ALGORITHMS = ("pg", "adcd")

# (iterations at lambda = LAMBDA_MIN, iterations at lambda = LAMBDA_MAX)
_SCHEDULE_ENDPOINTS = {"s1": (2800, 40), "s2": (3500, 50)}
LAMBDA_MIN = 5e-4
LAMBDA_MAX = 1.0
# the one-value lambda of trace and sweep-xi, and the one-value xi of the
# other sweeps: the sparsetls defaults and scripts/run_all_experiments.py's
DEFAULT_LAMBDA, DEFAULT_XI = 0.02, 0.01


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
    nearest endpoint.  lam must be positive and finite (require_lambda).
    """
    require_lambda(lam)
    if scenario not in _SCHEDULE_ENDPOINTS:
        raise ValueError(f"unknown scenario {scenario!r} (expected 's1' or 's2')")
    at_min, at_max = _SCHEDULE_ENDPOINTS[scenario]
    if lam <= LAMBDA_MIN:
        return at_min
    if lam >= LAMBDA_MAX:
        return at_max
    t = (math.log(lam) - math.log(LAMBDA_MIN)) / (math.log(LAMBDA_MAX) - math.log(LAMBDA_MIN))
    return int(round(math.exp(math.log(at_min) + t * (math.log(at_max) - math.log(at_min)))))


def iteration_budget(kind: str, lam: float, iters: Optional[int] = None) -> int:
    """`iters` when set, else the schedule of scenario `kind`; a custom
    scenario borrows the s1 schedule."""
    if iters is not None:
        return iters
    return iteration_schedule(lam, kind if kind in _SCHEDULE_ENDPOINTS else "s1")


def require_grid(name: str, grid: Sequence[float], check: Callable[[float], None]) -> None:
    """Raise ValueError unless `grid` is non-empty, every value passes
    `check` (require_lambda or require_xi) and the values strictly ascend."""
    if not grid:
        raise ValueError(f"{name} must be non-empty")
    for value in grid:
        check(value)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{name} must be strictly ascending")


@dataclass
class ExperimentConfig:
    """What a pass reads: scenario kind, grids, trial count, master seed,
    iteration override, algorithms and, for the custom kind alone, its
    shape.

    The shape of s1 and s2 is scenario_config(kind), worked out when read
    (`scenario`).  Instances are drawn at each xi of xi_grid; the custom
    shape's own xi is not read.  The writers (run_trace and its siblings)
    take the output directory.
    """

    kind: str                       # "s1" | "s2" | "custom"
    lambda_grid: list[float]
    xi_grid: list[float]
    trials: int
    master_seed: int
    iters: Optional[int] = None     # overrides the schedule when set
    algos: tuple[str, ...] = ALGORITHMS
    custom: Optional[ScenarioConfig] = None   # the shape of the custom kind

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_TAGS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if (self.kind == "custom") != (self.custom is not None):
            raise ValueError("the custom kind needs a shape (custom), and s1 and s2 take none")
        require_count(self.trials, "trials")
        require_u64(self.master_seed, "master_seed")
        if self.iters is not None:
            require_count(self.iters, "iterations")
        require_grid("lambda_grid", self.lambda_grid, require_lambda)
        require_grid("xi_grid", self.xi_grid, require_xi)
        # one or more algorithms, each known and named once
        if not 0 < len(self.algos) == len(set(self.algos) & set(ALGORITHMS)):
            raise ValueError(f"algos must name distinct algorithms of {ALGORITHMS}, got {self.algos}")

    @property
    def scenario(self) -> ScenarioConfig:
        """The shape the instances are drawn with, at each xi of xi_grid."""
        return self.custom or scenario_config(self.kind)


def solve_instance(
    algo: str,
    inst: ProblemInstance,
    lam: float,
    iterations: int,
    with_truth: bool = True,
    mat: Optional[Matrix] = None,
) -> SolveResult:
    """Run one solver on one instance by algorithm name ("pg" or "adcd");
    mat, when given, is the kernel.Matrix of inst.a."""
    truth = inst.x_true if with_truth else None
    if algo == "pg":
        return pg_solve(inst.a, inst.b, lam, iterations, ground_truth=truth, mat=mat)
    if algo == "adcd":
        return adcd_solve(inst.a, inst.b, lam, iterations, ground_truth=truth, mat=mat)
    raise ValueError(f"unknown algorithm {algo!r}")


class Cell(NamedTuple):
    """One solve: an algorithm on one trial's instance at one (lambda, xi)."""

    trial: int
    lam: float
    xi: float
    algo: str
    iters: int
    inst: ProblemInstance
    res: SolveResult
    wall_ns: int


def cells(cfg: ExperimentConfig, with_truth: bool) -> Iterator[Cell]:
    """Every solve of the config: each (xi, trial) instance is drawn once
    and solved by every algorithm in turn through _solve_group, which times
    each solve and names a failed one's `sparsetls solve` flags.  The order
    of the cells is this function's own; what it promises is that under
    one (xi, lambda, algorithm) the trials ascend."""
    tag = SCENARIO_TAGS[cfg.kind]
    for xi in cfg.xi_grid:
        scen = replace(cfg.scenario, xi=xi)
        for trial in range(cfg.trials):
            inst = generate_instance(scen, derive_stream(cfg.master_seed, tag, trial))
            block = [(trial, inst, Matrix(inst.a))]
            for algo in cfg.algos:
                yield from _solve_group(cfg, scen, algo, block, with_truth)


def _solve_group(cfg: ExperimentConfig, scen: ScenarioConfig, algo: str,
                 block: list[tuple[int, ProblemInstance, Matrix]], with_truth: bool) -> Iterator[Cell]:
    """The cells of one algorithm on a block of (trial, instance, Matrix)
    drawn at scen.xi, each yielded as its solve finishes: lambdas
    descending and, within one lambda, the trials ascending.  The wall
    time covers the solve alone.

    A BacktrackingError or ValueError of a solve is raised again as the
    same type, its message led by `cell solve FLAGS:`, the flags with
    which `sparsetls solve` derives the cell's stream, instance and
    iteration budget again (a custom scenario's --n, --m, --k and
    --ensemble among them)."""
    for lam in reversed(cfg.lambda_grid):
        iters = iteration_budget(cfg.kind, lam, cfg.iters)
        for trial, inst, mat in block:
            t0 = time.perf_counter_ns()
            try:
                res = solve_instance(algo, inst, lam, iters, with_truth, mat)
            except (BacktrackingError, ValueError) as exc:
                more = "" if cfg.iters is None else f" --iters {cfg.iters}"
                if cfg.kind == "custom":
                    more += f" --n {scen.n} --m {scen.m} --k {scen.k} --ensemble {scen.ensemble.value}"
                raise type(exc)(
                    f"cell solve --algo {algo} --scenario {cfg.kind} --seed {cfg.master_seed} "
                    f"--trial {trial} --lambda {lam} --xi {scen.xi}{more}: {exc}"
                ) from exc
            yield Cell(trial, lam, scen.xi, algo, iters, inst, res, time.perf_counter_ns() - t0)


def run_pass(*jobs: tuple[Callable, ExperimentConfig]) -> list[list[list]]:
    """One stream of cells feeds every (reduction, config) job; the rows
    of each job, in order.

    A reduction (trace_sums, lambda_sweep_sums, xi_sweep_sums, bench_sums)
    takes its config and returns (add, rows): add takes one Cell, and
    rows() gives the CSV rows of the cells added.  The configs must agree
    on kind, custom shape (but for its xi, which is not read), master seed
    and iters: every field a pass reads but the grids, trials and algos.
    The stream covers the union of their grids and algorithms, up to their
    largest trial count, and each reduction gets only the cells of its own
    config.  Under each of its keys those come with the trials ascending,
    as in a pass of its own, so it adds each sum in that pass's order and
    its rows have that pass's bytes.  The solves take the ground truth
    only when trace_sums, the one reduction that reads sq_error, is a job.
    A pass with no job raises ValueError.
    """
    if not jobs:
        raise ValueError("a pass needs at least one (reduction, config) job")
    consumers = [(reduction(c), c) for reduction, c in jobs]
    first = jobs[0][1]
    if any((c.kind, replace(c.scenario, xi=first.scenario.xi), c.master_seed, c.iters)
           != (first.kind, first.scenario, first.master_seed, first.iters) for _, c in jobs):
        raise ValueError("the configs of one pass must agree on kind, scenario, seed and iters")
    run = replace(first, lambda_grid=sorted({lam for _, c in jobs for lam in c.lambda_grid}),
                  xi_grid=sorted({xi for _, c in jobs for xi in c.xi_grid}),
                  trials=max(c.trials for _, c in jobs),
                  algos=tuple(dict.fromkeys(algo for _, c in jobs for algo in c.algos)))
    for cell in cells(run, with_truth=any(reduction is trace_sums for reduction, _ in jobs)):
        for (add, _), c in consumers:
            if (cell.trial < c.trials and cell.lam in c.lambda_grid and cell.xi in c.xi_grid
                    and cell.algo in c.algos):
                add(cell)
    return [rows() for (_, rows), _ in consumers]


def _single(cfg: ExperimentConfig, *grids: str) -> None:
    """Raise ValueError unless each named grid of cfg has exactly one value
    (a reduction whose rows have no column for it)."""
    for name in grids:
        if len(getattr(cfg, name)) != 1:
            raise ValueError(f"this experiment takes a one-value {name}")


def trace_sums(cfg: ExperimentConfig):
    """Per-iteration squared error and cost, averaged over paired trials."""
    _single(cfg, "lambda_grid", "xi_grid")
    iters = iteration_budget(cfg.kind, cfg.lambda_grid[0], cfg.iters)
    err_sum = {algo: np.zeros(iters) for algo in cfg.algos}
    cost_sum = {algo: np.zeros(iters) for algo in cfg.algos}

    def add(cell: Cell) -> None:
        err_sum[cell.algo] += cell.res.sq_error
        cost_sum[cell.algo] += cell.res.cost

    def rows() -> list[list]:
        out = []
        for algo in cfg.algos:
            # one division per column; Python floats print as numpy's would
            errs = (err_sum[algo] / cfg.trials).tolist()
            costs = (cost_sum[algo] / cfg.trials).tolist()
            out += [[cfg.kind, algo, it, e, c] for it, (e, c) in enumerate(zip(errs, costs), 1)]
        return out
    return add, rows


def lambda_sweep_sums(cfg: ExperimentConfig):
    """Converged error and support-miss means per lambda, at the one xi.

    The solvers record no per-iteration error; the squared error is taken
    once per solve, from the final iterate.
    """
    _single(cfg, "xi_grid")
    sums = {(lam, algo): [0.0, 0.0, 0.0] for lam in cfg.lambda_grid for algo in cfg.algos}

    def add(cell: Cell) -> None:
        acc = sums[cell.lam, cell.algo]
        sup = support_errors(cell.res.x, cell.inst.x_true)
        acc[0] += squared_error(cell.res.x, cell.inst.x_true)
        acc[1] += sup.false_negatives
        acc[2] += sup.false_positives

    def rows() -> list[list]:
        t, k, n = cfg.trials, cfg.scenario.k, cfg.scenario.n
        return [
            [cfg.kind, algo, lam, iteration_budget(cfg.kind, lam, cfg.iters),
             err / t, fn / t, fp / t, fn / t / k, fp / t / (n - k)]
            for (lam, algo), (err, fn, fp) in sums.items()
        ]
    return add, rows


def xi_sweep_sums(cfg: ExperimentConfig):
    """Converged error means per perturbation level, at the one lambda.

    As in lambda_sweep_sums, the error is taken from the final iterate.
    """
    _single(cfg, "lambda_grid")
    err = {(xi, algo): 0.0 for xi in cfg.xi_grid for algo in cfg.algos}

    def add(cell: Cell) -> None:
        err[cell.xi, cell.algo] += squared_error(cell.res.x, cell.inst.x_true)

    return add, lambda: [[cfg.kind, algo, xi, e / cfg.trials] for (xi, algo), e in err.items()]


def bench_sums(cfg: ExperimentConfig):
    """Mean per-iteration wall time and multiply-add count per algorithm.

    Timing covers whole solves divided by the iteration budget, so each
    solver's one-time precomputation is amortized over its schedule;
    instance generation and CSV output are excluded.  The config names
    both algorithms (pg is the ratio denominator).
    """
    _single(cfg, "xi_grid")
    if cfg.algos != ALGORITHMS:
        raise ValueError(f"bench measures the algorithms {ALGORITHMS}")
    ns = {(lam, algo): 0.0 for lam in cfg.lambda_grid for algo in ALGORITHMS}
    fl = dict(ns)

    def add(cell: Cell) -> None:
        ns[cell.lam, cell.algo] += cell.wall_ns / cell.iters
        fl[cell.lam, cell.algo] += cell.res.flops[-1] / cell.iters

    t = cfg.trials
    return add, lambda: [
        [cfg.kind, lam, algo, ns[lam, algo] / t, fl[lam, algo] / t, ns[lam, algo] / ns[lam, "pg"]]
        for lam, algo in ns
    ]


# the file and header of each reduction's CSV
OUTPUTS = {
    trace_sums: ("trace.csv", ["scenario", "algorithm", "iteration", "mean_sq_error", "mean_cost"]),
    lambda_sweep_sums: ("lambda_sweep.csv", [
        "scenario", "algorithm", "lambda", "iterations",
        "mean_sq_error", "mean_fn", "mean_fp", "mean_fn_rate", "mean_fp_rate",
    ]),
    xi_sweep_sums: ("xi_sweep.csv", ["scenario", "algorithm", "xi", "mean_sq_error"]),
    bench_sums: ("bench.csv", ["scenario", "lambda", "algo", "mean_iter_ns", "mean_iter_flops", "ratio_vs_pg"]),
}


def _write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_rows(reduction: Callable, out_dir: Path, rows: list[list]) -> Path:
    """The reduction's CSV in out_dir, with its header and the rows."""
    name, header = OUTPUTS[reduction]
    return _write_csv(Path(out_dir) / name, header, rows)


def run_trace(cfg: ExperimentConfig, out_dir: Path) -> Path:
    """trace.csv in out_dir, from a pass of its own; returns the path."""
    return write_rows(trace_sums, out_dir, run_pass((trace_sums, cfg))[0])


def run_lambda_sweep(cfg: ExperimentConfig, out_dir: Path) -> Path:
    """lambda_sweep.csv in out_dir, from a pass of its own; returns the path."""
    return write_rows(lambda_sweep_sums, out_dir, run_pass((lambda_sweep_sums, cfg))[0])


def run_xi_sweep(cfg: ExperimentConfig, out_dir: Path) -> Path:
    """xi_sweep.csv in out_dir, from a pass of its own; returns the path."""
    return write_rows(xi_sweep_sums, out_dir, run_pass((xi_sweep_sums, cfg))[0])


def run_bench(cfgs: Sequence[ExperimentConfig], out_dir: Path) -> Path:
    """One bench.csv in out_dir, with the rows of each config in turn (one
    per scenario), each from a pass of its own."""
    rows = [row for c in cfgs for row in run_pass((bench_sums, c))[0]]
    return write_rows(bench_sums, out_dir, rows)
