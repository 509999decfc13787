"""Acceptance suite: one test per release criterion.

Run with `pytest -v -s tests/test_acceptance.py` to get one line per
criterion; each test enforces its tolerance and its runtime budget.
Heavy paired-trial statistics are cached at module scope so related
criteria share work instead of re-solving.
"""

import math
import time

import numpy as np
import pytest

from sparsetls import (
    BacktrackingError,
    adcd_coordinate_update,
    adcd_solve,
    cli_main,
    derive_stream,
    generate_instance,
    iteration_schedule,
    pg_solve,
    scenario_config,
    shrink,
    support_errors,
)
from sparsetls.adcd import adcd_init, adcd_step
from sparsetls.experiments import ExperimentConfig, bench_sums, run_pass
from sparsetls.kernel import eval_cost, gradient
from sparsetls.rng import RngStream

TRIALS = 100


def _finish(num: int, desc: str, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {num}: runtime {elapsed:.1f}s exceeds {budget}s budget"
    print(f"ACCEPTANCE {num:02d} PASS ({elapsed:.1f}s) {desc}")


def _s1_instance(trial: int, xi: float = 0.01):
    return generate_instance(scenario_config("s1", xi=xi), derive_stream(0, 1, trial))


# shared paired-run statistics: lam -> algo -> (mean_err, mean_fn, mean_fp)
_PARITY_CACHE: dict = {}


def _paired_stats(lam: float):
    if lam in _PARITY_CACHE:
        return _PARITY_CACHE[lam]
    iters = iteration_schedule(lam, "s1")
    acc = {algo: [0.0, 0.0, 0.0] for algo in ("pg", "adcd")}
    for trial in range(TRIALS):
        inst = _s1_instance(trial)
        for algo, solver in (("pg", pg_solve), ("adcd", adcd_solve)):
            res = solver(inst.a, inst.b, lam, iters, ground_truth=inst.x_true)
            sup = support_errors(res.x, inst.x_true)
            acc[algo][0] += res.trace[-1].sq_error
            acc[algo][1] += sup.false_negatives
            acc[algo][2] += sup.false_positives
    stats = {algo: tuple(v / TRIALS for v in vals) for algo, vals in acc.items()}
    _PARITY_CACHE[lam] = stats
    return stats


def test_criterion_01_prox_oracle():
    t0 = time.perf_counter()
    rng = RngStream(101)
    violations = 0
    for case in range(10_000):
        z = rng.normal_block(8) * 3.0
        t = float(rng.uniform_block(1)[0]) * 2.0
        if case % 10 == 0:
            z[0] = t            # exercise the exact boundary
            z[1] = -t
        out = shrink(z, t)
        # zero exactly when |z| <= t
        if not np.array_equal(out == 0.0, np.abs(z) <= t):
            violations += 1
            continue
        # nonzero outputs must equal the one-sided shift exactly
        reference = np.where(z > t, z - t, np.where(z < -t, z + t, 0.0))
        if not np.array_equal(out, reference):
            violations += 1
            continue
        # shrinkage never overshoots past zero or moves by more than t (up
        # to the rounding of z - t itself)
        if np.any(np.abs(out) > np.abs(z)) or np.any(np.abs(z - out) > t + 1e-15 * np.abs(z)):
            violations += 1
    assert violations == 0
    _finish(1, "prox operator satisfies subgradient optimality on 10^4 random pairs", t0, 1.0)


def test_criterion_02_gradient_oracle():
    t0 = time.perf_counter()
    rng = RngStream(202)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        a = rng.normal_block(20 * 40).reshape(20, 40) / math.sqrt(20)
        b = rng.normal_block(20)
        x = rng.normal_block(40) * 0.3
        c = eval_cost(a, b, x, lam=1.0)
        g = gradient(a.T @ a, a.T @ b, x, c.y, c.f)

        def f_of(v):
            r = a @ v - b
            return float(r @ r) / (float(v @ v) + 1.0)

        fd = np.zeros(40)
        for i in range(40):
            e = np.zeros(40)
            e[i] = h
            fd[i] = (f_of(x + e) - f_of(x - e)) / (2 * h)
        rel = float(np.max(np.abs(fd - g))) / max(1.0, float(np.max(np.abs(g))))
        worst = max(worst, rel)
    assert worst < 1e-6
    _finish(2, f"analytic gradient matches finite differences (max rel {worst:.2e})", t0, 5.0)


def test_criterion_03_monotone_descent():
    t0 = time.perf_counter()
    lam = 0.02
    iters = iteration_schedule(lam, "s1")
    for trial in range(TRIALS):
        inst = _s1_instance(trial)
        try:
            res = pg_solve(inst.a, inst.b, lam, iters)
        except BacktrackingError as exc:  # pragma: no cover - must not happen
            pytest.fail(f"backtracking cap abort on seed {trial}: {exc}")
        costs = [rec.cost for rec in res.trace]
        for n, (prev, cur) in enumerate(zip(costs, costs[1:]), start=2):
            assert cur <= prev + 1e-12 * max(1.0, prev), f"cost rose at trial {trial} iter {n}"
    _finish(3, f"composite cost non-increasing over {TRIALS} seeds x {iters} iterations", t0, 60.0)


def test_criterion_04_adcd_coordinate_and_perturbation_oracles():
    t0 = time.perf_counter()
    rng = RngStream(404)
    m, n = 20, 40
    lam = 0.05
    grid = np.arange(-4.0, 4.0 + 1e-5, 1e-5)
    for _ in range(1000):
        x = np.zeros(n)
        support = rng.u64_block(n) % np.uint64(4) == 0
        x[support] = rng.normal_block(int(support.sum())) * 0.4
        e_mat = rng.normal_block(m * n).reshape(m, n) * 0.02
        a = rng.normal_block(m * n).reshape(m, n) / math.sqrt(m)
        b = rng.normal_block(m) * 0.5
        i = int(rng.below(n))
        # e reaches the update through the matrix, with zero factors:
        # (a + e_mat) + 0.0 has the column bits of a + e_mat
        state = adcd_init(a + e_mat, b, lam)
        state.x = x.copy()

        others = np.flatnonzero(x)
        others = others[others != i]
        cols = a[:, others] + e_mat[:, others]
        resid = b - cols @ x[others]
        col = a[:, i] + e_mat[:, i]
        new = adcd_coordinate_update(state, i)

        phi = (
            float(resid @ resid)
            - 2.0 * grid * float(col @ resid)
            + grid * grid * float(col @ col)
            + lam * np.abs(grid)
        )
        best = float(grid[int(np.argmin(phi))])
        assert abs(best) < 3.9, "grid domain too small for this draw"
        assert abs(new - best) <= 1.0001e-5

    # rank-one perturbation update beats random perturbations
    inst = _s1_instance(0)
    state = adcd_init(inst.a, inst.b, lam)
    nprng = np.random.default_rng(4040)
    for _ in range(20):
        adcd_step(state)
        e = state.e_mat
        x = state.x
        r = (inst.a + e) @ x - inst.b
        base = float(r @ r) + float((e * e).sum())
        for _ in range(200):
            delta = nprng.normal(size=e.shape) * nprng.choice([1e-3, 1e-2, 0.1])
            ep = e + delta
            rp = (inst.a + ep) @ x - inst.b
            assert float(rp @ rp) + float((ep * ep).sum()) > base
    _finish(4, "coordinate updates match 1e-5 grid search; perturbation update is optimal", t0, 30.0)


def test_criterion_05_accuracy_parity_across_lambda():
    t0 = time.perf_counter()
    ratios = {}
    for lam in (0.01, 0.02, 0.05, 0.1):
        stats = _paired_stats(lam)
        r = stats["pg"][0] / stats["adcd"][0]
        ratios[lam] = r
        assert max(r, 1.0 / r) <= 1.5, f"parity broken at lambda={lam}: ratio {r:.3f}"
    pretty = ", ".join(f"{lam}:{r:.3f}" for lam, r in ratios.items())
    _finish(5, f"mean converged error within factor 1.5 over {TRIALS} paired trials ({pretty})", t0, 300.0)


def test_criterion_06_support_parity():
    t0 = time.perf_counter()
    at_05 = _paired_stats(0.05)
    fn_gap = abs(at_05["pg"][1] - at_05["adcd"][1])
    assert fn_gap < 0.5, f"mean false-negative gap {fn_gap:.3f} at lambda=0.05"
    fp_gaps = []
    for lam in (0.05, 0.1):
        stats = _paired_stats(lam)
        gap = abs(stats["pg"][2] - stats["adcd"][2])
        fp_gaps.append(gap)
        assert gap < 1.0, f"mean false-positive gap {gap:.3f} at lambda={lam}"
    _finish(
        6,
        f"support detection agrees (FN gap {fn_gap:.3f}, FP gaps "
        + ", ".join(f"{g:.3f}" for g in fp_gaps) + ")",
        t0,
        300.0,
    )


def test_criterion_07_complexity_ordering():
    t0 = time.perf_counter()
    lam = 0.02
    ratios = {}
    for kind, trials in (("s1", 5), ("s2", 3)):
        cfg = ExperimentConfig(
            scenario=scenario_config(kind),
            kind=kind,
            lambda_grid=[lam],
            xi_grid=[0.01],
            trials=trials,
            master_seed=0,
            out_dir="unused",
        )
        rows = run_pass((bench_sums, cfg))[0]
        by_algo = {r[2]: r for r in rows}
        flop_ratio = by_algo["adcd"][4] / by_algo["pg"][4]
        wall_ratio = by_algo["adcd"][3] / by_algo["pg"][3]
        ratios[kind] = (flop_ratio, wall_ratio)
        assert wall_ratio > 1.0, f"{kind}: wall-clock ratio {wall_ratio:.2f} not > 1"
    assert ratios["s1"][0] > 5.0, f"s1 flop ratio {ratios['s1'][0]:.1f} not > 5"
    assert ratios["s2"][0] > 20.0, f"s2 flop ratio {ratios['s2'][0]:.1f} not > 20"
    assert ratios["s2"][0] > ratios["s1"][0]
    _finish(
        7,
        f"per-iteration flop ratios s1={ratios['s1'][0]:.1f}, s2={ratios['s2'][0]:.1f}; "
        f"wall ratios {ratios['s1'][1]:.1f}, {ratios['s2'][1]:.1f}",
        t0,
        120.0,
    )


def test_criterion_08_schedule_fidelity():
    t0 = time.perf_counter()
    assert iteration_schedule(5e-4, "s1") == 2800
    assert iteration_schedule(1.0, "s1") == 40
    assert iteration_schedule(5e-4, "s2") == 3500
    assert iteration_schedule(1.0, "s2") == 50
    for lam in np.geomspace(8e-4, 0.9, 10):
        for kind, (hi, lo) in (("s1", (2800, 40)), ("s2", (3500, 50))):
            t = (math.log(lam) - math.log(5e-4)) / (math.log(1.0) - math.log(5e-4))
            want = int(round(math.exp(math.log(hi) + t * (math.log(lo) - math.log(hi)))))
            assert iteration_schedule(float(lam), kind) == want
    _finish(8, "iteration schedule matches the log-linear form at endpoints and interior", t0, 1.0)


def test_criterion_09_csv_determinism(tmp_path):
    t0 = time.perf_counter()
    args = ["sweep-lambda", "--trials", "5", "--seed", "42"]
    assert cli_main(args + ["--out", str(tmp_path / "run1")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "run2")]) == 0
    b1 = (tmp_path / "run1" / "lambda_sweep.csv").read_bytes()
    b2 = (tmp_path / "run2" / "lambda_sweep.csv").read_bytes()
    assert b1 == b2
    _finish(9, f"repeated sweep-lambda runs are byte-identical ({len(b1)} bytes)", t0, 120.0)


def test_criterion_10_perturbation_monotonicity():
    t0 = time.perf_counter()
    lam = 0.02
    iters = iteration_schedule(lam, "s1")
    xis = (0.0, 1e-3, 1e-2, 1e-1)
    means = {algo: [] for algo in ("pg", "adcd")}
    for xi in xis:
        err = {"pg": 0.0, "adcd": 0.0}
        for trial in range(TRIALS):
            inst = _s1_instance(trial, xi=xi)
            for algo, solver in (("pg", pg_solve), ("adcd", adcd_solve)):
                res = solver(inst.a, inst.b, lam, iters, ground_truth=inst.x_true)
                err[algo] += res.trace[-1].sq_error
        for algo in err:
            means[algo].append(err[algo] / TRIALS)
    for algo, vals in means.items():
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo, f"{algo}: error decreased when xi grew ({vals})"
    pretty = "; ".join(
        algo + ": " + ", ".join(f"{v:.4f}" for v in vals) for algo, vals in means.items()
    )
    _finish(10, f"mean error non-decreasing in xi ({pretty})", t0, 300.0)
