"""Correctness checks that do not rely on the solvers' own bookkeeping.

Every check returns a list of problems (empty when it passes).  Values
are compared against closed forms recomputed here with plain numpy, or
against properties the methods must have; never against stored output.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from workloads import DIMENSIONS, Workload, schedule

TRACE_HEADER = ["scenario", "algorithm", "iteration", "mean_sq_error", "mean_cost"]
SWEEP_HEADER = ["scenario", "algorithm", "lambda", "iterations", "mean_sq_error",
                "mean_fn", "mean_fp", "mean_fn_rate", "mean_fp_rate"]
PG_START_STEP = 0.2      # x_1 = shrink(0.2 * 2 a^T b, 0.2 lam), per the solver docs
REL_TOL = 1e-9


def cost(a: np.ndarray, b: np.ndarray, x: np.ndarray, lam: float) -> float:
    """c(x) = ||a x - b||^2 / (||x||^2 + 1) + lam ||x||_1."""
    r = a @ x - b
    return float(r @ r) / (float(x @ x) + 1.0) + lam * float(np.abs(x).sum())


def _soft(z, t):
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


def pg_first_iterate(a: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    """x_1 from x_0 = 0: the gradient there is -2 a^T b."""
    return _soft(PG_START_STEP * 2.0 * (a.T @ b), PG_START_STEP * lam)


def adcd_first_iterate(a: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    """One Gauss-Seidel soft-threshold sweep from x = 0 with e = 0."""
    x = np.zeros(a.shape[1])
    for i in range(a.shape[1]):
        col = a[:, i]
        norm2 = float(col @ col)
        resid = b - a @ x + col * x[i]
        x[i] = 0.0 if norm2 == 0.0 else float(_soft(col @ resid, lam / 2.0)) / norm2
    return x


def _close(got: float, want: float, tol: float = REL_TOL) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def instance_problems(inst, k: int) -> list[str]:
    """Generator identities: a_true x_true = b_true, unit norm, k nonzeros."""
    out = []
    bt = np.einsum("ij,j->i", inst.a_true, inst.x_true)
    if not np.allclose(bt, inst.b_true, rtol=0, atol=1e-12):
        out.append("a_true @ x_true != b_true")
    if not _close(math.sqrt(float(np.sum(inst.x_true ** 2))), 1.0, 1e-12):
        out.append("||x_true|| != 1")
    if int(np.count_nonzero(inst.x_true)) != k:
        out.append(f"x_true has {np.count_nonzero(inst.x_true)} nonzeros, want {k}")
    if not np.array_equal(inst.a, inst.a_true - inst.a_pert):
        out.append("a != a_true - a_pert")
    if not np.array_equal(inst.b, inst.b_true - inst.b_pert):
        out.append("b != b_true - b_pert")
    return out


def rises(costs: np.ndarray) -> bool:
    """True when a cost sequence increases anywhere beyond rounding."""
    return bool((np.diff(costs) > 1e-12 * np.abs(costs[:-1])).any())


def solve_problems(res, a: np.ndarray, b: np.ndarray, lam: float, iterations: int) -> list[str]:
    """One finite solve against c(x) recomputed here, and monotone descent."""
    out = []
    if len(res.trace) != iterations:
        out.append(f"{len(res.trace)} records for {iterations} iterations")
    final = cost(a, b, res.x, lam)
    if not _close(res.trace[-1].cost, final):
        out.append(f"final cost {res.trace[-1].cost!r} != c(x) {final!r}")
    if rises(np.array([rec.cost for rec in res.trace])):
        out.append("cost increases within the solve")
    return out


def sweep_row_problems(path: Path, algo: str, lam: float, instances: list, xs: list) -> list[str]:
    """The CSV row at `lam` against means recomputed here from the final
    iterates `xs` of every trial: squared error and exact-zero support misses."""
    rows, probs = read_csv(path, SWEEP_HEADER)
    rows = [r for r in rows if _close(float(r[2]), lam, 1e-12)]
    if probs or len(rows) != 1:
        return probs or [f"{path.name}: {len(rows)} rows at lambda={lam:g}, want 1"]
    err = sum(float(np.sum((x - i.x_true) ** 2)) for i, x in zip(instances, xs)) / len(xs)
    fn = sum(int(np.sum((i.x_true != 0) & (x == 0))) for i, x in zip(instances, xs)) / len(xs)
    fp = sum(int(np.sum((i.x_true == 0) & (x != 0))) for i, x in zip(instances, xs)) / len(xs)
    got_err, got_fn, got_fp = (float(v) for v in rows[0][4:7])
    if not (_close(got_err, err, 1e-12) and got_fn == fn and got_fp == fp):
        return [f"{path.name} {algo} lambda={lam:g}: row (err, fn, fp) = "
                f"({got_err!r}, {got_fn}, {got_fp}) != recomputed ({err!r}, {fn}, {fp})"]
    return []


def read_csv(path: Path, header: list[str]) -> tuple[list[list[str]], list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        return [], [f"{path.name}: header {rows[0] if rows else None} != {header}"]
    return rows[1:], []


def sweep_problems(path: Path, wl: Workload, algo: str) -> tuple[list[str], int]:
    """Check one half's lambda_sweep.csv; returns (problems, failed cells).

    A row holding a non-finite value is a failed cell set (its trials),
    not a correctness problem.
    """
    rows, probs = read_csv(path, SWEEP_HEADER)
    if probs:
        return probs, 0
    n, _, k = DIMENSIONS[wl.scenario]
    if len(rows) != len(wl.grid):
        return [f"{path.name}: {len(rows)} rows, want {len(wl.grid)}"], 0
    failed, trials = 0, wl.trials(algo)
    for row, lam in zip(rows, wl.grid):
        vals = [float(v) for v in row[2:]]
        if not all(math.isfinite(v) for v in vals):
            failed += trials
            continue
        got_lam, iters, err, fn, fp, fn_rate, fp_rate = vals
        where = f"{path.name} {algo} lambda={got_lam:g}"
        if row[0] != wl.scenario or row[1] != algo or not _close(got_lam, lam, 1e-12):
            probs.append(f"{where}: row key {row[:3]} unexpected")
        if iters != schedule(lam, wl.scenario):
            probs.append(f"{where}: iterations {iters} != schedule {schedule(lam, wl.scenario)}")
        if err < 0:
            probs.append(f"{where}: negative mean_sq_error")
        if not (0 <= fn <= k and 0 <= fp <= n - k):
            probs.append(f"{where}: fn={fn} fp={fp} outside [0,{k}] x [0,{n - k}]")
        for mean in (fn, fp):
            if abs(mean * trials - round(mean * trials)) > 1e-9:
                probs.append(f"{where}: mean count {mean} is not a multiple of 1/{trials}")
        if not (_close(fn_rate, fn / k, 1e-12) and _close(fp_rate, fp / (n - k), 1e-12)):
            probs.append(f"{where}: rate columns disagree with the counts")
    return probs, failed


def trace_problems(path: Path, wl: Workload, algo: str, instances: list) -> tuple[list[str], int]:
    """Check one half's trace.csv against monotone descent and an own
    computation of the first iterate's mean cost and error."""
    rows, probs = read_csv(path, TRACE_HEADER)
    if probs:
        return probs, 0
    lam = wl.grid[0]
    iters = schedule(lam, wl.scenario)
    if len(rows) != iters:
        return [f"{path.name}: {len(rows)} rows, want {iters}"], 0
    vals = np.array([[float(v) for v in row[2:]] for row in rows])
    if not np.isfinite(vals).all():
        return [], wl.trials(algo)
    if any(row[0] != wl.scenario or row[1] != algo for row in rows):
        probs.append(f"{path.name}: unexpected scenario/algorithm keys")
    if not np.array_equal(vals[:, 0], np.arange(1, iters + 1)):
        probs.append(f"{path.name}: iteration column is not 1..{iters}")
    err, costs = vals[:, 1], vals[:, 2]
    if (err < 0).any() or (costs <= 0).any():
        probs.append(f"{path.name}: negative error or non-positive cost")
    if rises(costs):
        probs.append(f"{path.name} {algo}: mean_cost increases")
    first = pg_first_iterate if algo == "pg" else adcd_first_iterate
    instances = instances[:wl.trials(algo)]
    xs = [first(inst.a, inst.b, lam) for inst in instances]
    want_cost = sum(cost(i.a, i.b, x, lam) for i, x in zip(instances, xs)) / len(xs)
    want_err = sum(float(np.sum((x - i.x_true) ** 2)) for i, x in zip(instances, xs)) / len(xs)
    if not (_close(costs[0], want_cost) and _close(err[0], want_err)):
        probs.append(f"{path.name} {algo}: first iterate cost/error {costs[0]:.12g}/{err[0]:.12g} "
                     f"!= recomputed {want_cost:.12g}/{want_err:.12g}")
    return probs, 0
