import csv
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sparsetls import (
    ExperimentConfig,
    default_lambda_grid,
    default_xi_grid,
    derive_stream,
    generate_instance,
    instance_digest,
    iteration_schedule,
    scenario_config,
)
from sparsetls import experiments
from sparsetls.experiments import (
    ALGORITHMS,
    bench_sums,
    cells,
    lambda_sweep_sums,
    run_bench,
    run_lambda_sweep,
    run_pass,
    run_trace,
    run_xi_sweep,
    solve_instance,
    trace_sums,
    write_rows,
    xi_sweep_sums,
)
from sparsetls.kernel import Matrix
from sparsetls.metrics import squared_error, support_errors
from sparsetls.problems import SCENARIO_TAGS


def alone(reduction, cfg):
    """The reduction's rows from a pass of its own, as its CLI command
    runs it."""
    return run_pass((reduction, cfg))[0]


def make_cfg(tmp_path, **kw):
    base = dict(
        scenario=scenario_config("s1"),
        kind="s1",
        lambda_grid=[0.02],
        xi_grid=[0.01],
        trials=2,
        master_seed=0,
        out_dir=Path(tmp_path),
        iters=15,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestSchedule:
    @pytest.mark.parametrize(
        "lam,scenario,expected",
        [
            (5e-4, "s1", 2800),
            (1.0, "s1", 40),
            (5e-4, "s2", 3500),
            (1.0, "s2", 50),
            (1e-5, "s1", 2800),   # clamped below
            (10.0, "s2", 50),     # clamped above
        ],
    )
    def test_endpoints_and_clamping(self, lam, scenario, expected):
        assert iteration_schedule(lam, scenario) == expected

    def test_geometric_midpoint(self):
        mid = math.sqrt(5e-4 * 1.0)
        assert iteration_schedule(mid, "s1") == round(math.sqrt(2800 * 40))

    def test_log_linear_form(self):
        for lam in np.geomspace(5e-4, 1.0, 10):
            t = (math.log(lam) - math.log(5e-4)) / (math.log(1.0) - math.log(5e-4))
            want = int(round(math.exp(math.log(2800) + t * (math.log(40) - math.log(2800)))))
            assert iteration_schedule(float(lam), "s1") == want

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            iteration_schedule(0.1, "s9")


class TestConfig:
    def test_validates_grids(self, tmp_path):
        with pytest.raises(ValueError):
            make_cfg(tmp_path, lambda_grid=[])
        with pytest.raises(ValueError):
            make_cfg(tmp_path, lambda_grid=[0.2, 0.1])
        with pytest.raises(ValueError):
            make_cfg(tmp_path, trials=0)
        with pytest.raises(ValueError):
            make_cfg(tmp_path, kind="nope")
        with pytest.raises(ValueError):
            make_cfg(tmp_path, algos=("pg", "magic"))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_master_seed_outside_64_bits(self, tmp_path, seed):
        with pytest.raises(ValueError, match=rf"^master_seed {seed} is outside \[0, 2\*\*64\)"):
            make_cfg(tmp_path, master_seed=seed)
        assert make_cfg(tmp_path, master_seed=2**64 - 1).master_seed == 2**64 - 1

    @pytest.mark.parametrize("iters", [0, -3])
    def test_rejects_iters_below_one(self, tmp_path, iters):
        with pytest.raises(ValueError, match="^iterations must be >= 1"):
            make_cfg(tmp_path, iters=iters)

    @pytest.mark.parametrize("grids", [
        dict(lambda_grid=[0.02, math.nan]),
        dict(lambda_grid=[math.nan]),
        dict(lambda_grid=[0.02, math.inf]),
        dict(lambda_grid=[0.0, 0.02]),
        dict(xi_grid=[0.01, math.nan]),
        dict(xi_grid=[-0.01, 0.01]),
        dict(xi_grid=[0.01, math.inf]),
    ])
    def test_rejects_bad_grid_values(self, tmp_path, grids):
        # a NaN passes the ascending check (b <= a is False for it), so
        # without the per-value check a sweep would solve every earlier
        # cell before failing
        with pytest.raises(ValueError, match="finite"):
            make_cfg(tmp_path, **grids)

    @pytest.mark.parametrize("reduction,grids", [
        (trace_sums, dict(lambda_grid=[0.02, 0.1])),
        (trace_sums, dict(xi_grid=[0.0, 0.01])),
        (lambda_sweep_sums, dict(xi_grid=[0.0, 0.01])),
        (xi_sweep_sums, dict(lambda_grid=[0.02, 0.1])),
        (bench_sums, dict(xi_grid=[0.0, 0.01])),
    ])
    def test_reduction_needs_one_value_where_its_rows_have_no_column(
            self, tmp_path, monkeypatch, reduction, grids):
        monkeypatch.setattr(experiments, "solve_instance", None)  # nothing may be solved
        with pytest.raises(ValueError, match="one-value"):
            alone(reduction, make_cfg(tmp_path, **grids))

    def test_default_grids(self):
        lg = default_lambda_grid()
        assert len(lg) == 25
        assert lg[0] == pytest.approx(5e-4, rel=1e-12)
        assert lg[-1] == pytest.approx(1.0, rel=1e-12)
        xg = default_xi_grid()
        assert len(xg) == 13
        assert xg[0] == pytest.approx(1e-4, rel=1e-12)
        assert xg[-1] == pytest.approx(1e-1, rel=1e-12)


class TestPairedDesign:
    def test_both_algorithms_consume_identical_instances(self, tmp_path, monkeypatch):
        # cells() draws each (xi, trial) instance once, from the trial's
        # stream, and hands that one object to every lambda and algorithm
        drawn = []

        def counting(scen, rng):
            inst = generate_instance(scen, rng)
            drawn.append(inst)
            return inst

        monkeypatch.setattr(experiments, "generate_instance", counting)
        cfg = make_cfg(tmp_path, lambda_grid=[0.1, 0.5], xi_grid=[0.0, 0.01], trials=3,
                       master_seed=42, iters=3)
        got = list(cells(cfg, with_truth=False))
        assert len(drawn) == cfg.trials * len(cfg.xi_grid)
        assert [(c.xi, c.trial, c.lam, c.algo) for c in got] == [
            (xi, trial, lam, algo)
            for xi in cfg.xi_grid for trial in range(cfg.trials)
            for lam in cfg.lambda_grid for algo in ALGORITHMS
        ]
        by_key = {}
        for c in got:
            by_key.setdefault((c.xi, c.trial), []).append(c.inst)
        assert len(by_key) == len(drawn)
        assert all(insts[0] is inst for insts, inst in zip(by_key.values(), drawn))
        for (xi, trial), insts in by_key.items():
            assert len(insts) == len(cfg.lambda_grid) * len(ALGORITHMS)
            assert all(inst is insts[0] for inst in insts)
            fresh = generate_instance(replace(cfg.scenario, xi=xi),
                                      derive_stream(42, SCENARIO_TAGS["s1"], trial))
            assert instance_digest(insts[0]) == instance_digest(fresh)


    @pytest.mark.parametrize("algos", [ALGORITHMS, ("pg",), ("adcd",)], ids=["both", "pg", "adcd"])
    def test_one_matrix_per_instance(self, tmp_path, monkeypatch, algos):
        # cells() makes one kernel.Matrix per (xi, trial), from that
        # instance's a, and passes it to every lambda and algorithm; what
        # only the other solver reads (PG a^T a, AD-CD the row norms) is
        # never made
        made, passed = [], []

        class Counting(Matrix):
            def __init__(self, a):
                super().__init__(a)
                made.append(self)

        def recording(algo, inst, lam, iters, with_truth=True, mat=None):
            passed.append((inst, mat))
            return solve_instance(algo, inst, lam, iters, with_truth, mat)

        monkeypatch.setattr(experiments, "Matrix", Counting)
        monkeypatch.setattr(experiments, "solve_instance", recording)
        cfg = make_cfg(tmp_path, lambda_grid=[0.02, 0.1, 0.5], xi_grid=[0.0, 0.01], trials=2,
                       iters=3, algos=algos)
        got = list(cells(cfg, with_truth=False))
        assert len(made) == cfg.trials * len(cfg.xi_grid) == 4
        per = len(cfg.lambda_grid) * len(algos)
        assert len(passed) == len(got) == per * len(made)
        for k, mat in enumerate(made):
            group = passed[k * per:(k + 1) * per]
            assert all(m is mat and inst is group[0][0] and inst.a is mat.a for inst, m in group)
        filled = {"pg": "ata", "adcd": "sq_norms"}
        assert all({name for name in filled.values() if name in vars(mat)}
                   == {filled[algo] for algo in algos} for mat in made)


class TestTrace:
    def test_row_count_and_layout(self, tmp_path):
        cfg = make_cfg(tmp_path, trials=1, iters=2)
        rows = alone(trace_sums, cfg)
        assert len(rows) == 4  # 2 iterations x 2 algorithms
        pg = [r for r in rows if r[1] == "pg"]
        assert [r[2] for r in pg] == [1, 2]
        assert all(r[0] == "s1" for r in rows)

    def test_written_file_and_determinism(self, tmp_path):
        cfg_a = make_cfg(tmp_path / "a", trials=2, iters=10)
        cfg_b = make_cfg(tmp_path / "b", trials=2, iters=10)
        pa = run_trace(cfg_a)
        pb = run_trace(cfg_b)
        assert pa.name == "trace.csv"
        assert pa.read_bytes() == pb.read_bytes()
        header = pa.read_text().splitlines()[0]
        assert header == "scenario,algorithm,iteration,mean_sq_error,mean_cost"

    def test_error_decreases_from_start(self, tmp_path):
        cfg = make_cfg(tmp_path, trials=3, iters=120)
        rows = alone(trace_sums, cfg)
        pg = [r for r in rows if r[1] == "pg"]
        assert pg[-1][3] < pg[0][3]


class TestLambdaSweep:
    def test_single_point_grid(self, tmp_path):
        cfg = make_cfg(tmp_path, lambda_grid=[1.0], trials=1, iters=5)
        rows = alone(lambda_sweep_sums, cfg)
        assert len(rows) == 2
        scenario, algo, lam, iters, err, fn, fp, fnr, fpr = rows[0]
        assert (scenario, algo, lam, iters) == ("s1", "pg", 1.0, 5)
        assert fnr == fn / 5 and fpr == fp / 35

    def test_schedule_applies_when_no_override(self, tmp_path):
        cfg = make_cfg(tmp_path, lambda_grid=[1.0], trials=1, iters=None)
        rows = alone(lambda_sweep_sums, cfg)
        assert rows[0][3] == 40

    def test_heavy_regularization_misses_more_support(self, tmp_path):
        cfg = make_cfg(
            tmp_path, lambda_grid=[5e-4, 1.0], trials=5, iters=800,
        )
        rows = alone(lambda_sweep_sums, cfg)
        fn = {(r[1], r[2]): r[5] for r in rows}
        assert fn[("pg", 1.0)] >= fn[("pg", 5e-4)]
        assert fn[("adcd", 1.0)] >= fn[("adcd", 5e-4)]

    def test_csv_output(self, tmp_path):
        cfg = make_cfg(tmp_path, lambda_grid=[0.05], trials=1, iters=10)
        path = run_lambda_sweep(cfg)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "scenario,algorithm,lambda,iterations,mean_sq_error,"
            "mean_fn,mean_fp,mean_fn_rate,mean_fp_rate"
        )
        assert len(lines) == 3


class TestXiSweep:
    def test_zero_perturbation_is_easiest(self, tmp_path):
        cfg = make_cfg(tmp_path, xi_grid=[0.0, 0.01], trials=15, iters=150)
        rows = alone(xi_sweep_sums, cfg)
        err = {(r[1], r[2]): r[3] for r in rows}
        assert err[("pg", 0.0)] <= err[("pg", 0.01)]
        assert err[("adcd", 0.0)] <= err[("adcd", 0.01)]

    def test_csv_output_deterministic(self, tmp_path):
        ca = make_cfg(tmp_path / "a", xi_grid=[0.0, 0.01], trials=2, iters=10)
        cb = make_cfg(tmp_path / "b", xi_grid=[0.0, 0.01], trials=2, iters=10)
        pa, pb = run_xi_sweep(ca), run_xi_sweep(cb)
        assert pa.read_bytes() == pb.read_bytes()
        assert pa.read_text().splitlines()[0] == "scenario,algorithm,xi,mean_sq_error"


class TestBench:
    def test_row_layout_single_lambda(self, tmp_path):
        cfg = make_cfg(tmp_path, trials=1, iters=25)
        rows = alone(bench_sums, cfg)
        assert len(rows) == 2
        pg_row = next(r for r in rows if r[2] == "pg")
        ad_row = next(r for r in rows if r[2] == "adcd")
        assert pg_row[5] == 1.0
        assert ad_row[5] == pytest.approx(ad_row[3] / pg_row[3])

    def test_flop_ratio_favors_prox_gradient(self, tmp_path):
        cfg = make_cfg(tmp_path, trials=2, iters=None)
        rows = alone(bench_sums, cfg)
        fl = {r[2]: r[4] for r in rows}
        assert fl["adcd"] / fl["pg"] > 1.0

    def test_flop_ratio_exceeds_one_across_grid_and_scenarios(self, tmp_path):
        # holds under the real schedules, which amortize the one-time
        # a^T a / a^T b precomputation; a short --iters override can tip
        # the high-lambda end the other way by design
        grid = [0.005, 0.1, 1.0]
        for kind in ("s1", "s2"):
            cfg = make_cfg(tmp_path, scenario=scenario_config(kind), kind=kind,
                           lambda_grid=grid, trials=1, iters=None)
            rows = alone(bench_sums, cfg)
            assert [r[1] for r in rows] == [lam for lam in grid for _ in ALGORITHMS]
            for lam in grid:
                fl = {r[2]: r[4] for r in rows if r[1] == lam}
                assert fl["adcd"] / fl["pg"] >= 1.0, (kind, lam)

    @pytest.mark.parametrize("algos", [("pg",), ("adcd",), ("adcd", "pg")])
    def test_needs_both_algorithms_in_order(self, tmp_path, monkeypatch, algos):
        monkeypatch.setattr(experiments, "solve_instance", None)  # nothing may be solved
        with pytest.raises(ValueError, match="bench measures the algorithms"):
            alone(bench_sums, make_cfg(tmp_path, algos=algos))

    def test_run_bench_writes_one_file_for_several_configs(self, tmp_path):
        s1 = make_cfg(tmp_path, trials=1, iters=3)
        s2 = make_cfg(tmp_path, scenario=scenario_config("s2"), kind="s2", trials=1, iters=3)
        path = run_bench(s1, s2)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert path == tmp_path / "bench.csv"
        assert [(r[0], r[2]) for r in rows[1:]] == [("s1", "pg"), ("s1", "adcd"),
                                                    ("s2", "pg"), ("s2", "adcd")]


# The four drivers as each ran its own trials x algorithms loop before the
# cell runner, kept verbatim (with their two helpers) as the reference the
# reductions over cells() must reproduce.

def _schedule_for(cfg, lam):
    if cfg.iters is not None:
        return cfg.iters
    # custom scenarios borrow the s1 schedule
    return iteration_schedule(lam, cfg.kind if cfg.kind in ("s1", "s2") else "s1")


def _instance(cfg, trial, xi):
    scen = replace(cfg.scenario, xi=xi)
    rng = derive_stream(cfg.master_seed, SCENARIO_TAGS[cfg.kind], trial)
    return generate_instance(scen, rng)


def reference_trace_rows(cfg, lam, xi):
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


def reference_lambda_sweep_rows(cfg):
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


def reference_xi_sweep_rows(cfg, lam=0.02):
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


def reference_bench_rows(cfg, lambda_grid=None):
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


class TestParityWithPerDriverLoops:
    @pytest.mark.parametrize("kind,iters,lambdas", [
        ("s1", None, [0.1, 0.5]),   # the schedule's budgets
        ("s2", 12, [0.02, 0.5]),
    ])
    def test_every_non_timing_column_is_unchanged(self, tmp_path, kind, iters, lambdas):
        base = make_cfg(tmp_path, scenario=scenario_config(kind), kind=kind, iters=iters,
                        lambda_grid=lambdas, master_seed=3)
        xis = [0.0, base.scenario.xi]
        assert alone(trace_sums, replace(base, lambda_grid=lambdas[:1])) == \
            reference_trace_rows(base, lambdas[0], base.scenario.xi)
        assert alone(lambda_sweep_sums, base) == reference_lambda_sweep_rows(base)
        xi_cfg = replace(base, lambda_grid=lambdas[:1], xi_grid=xis)
        assert alone(xi_sweep_sums, xi_cfg) == reference_xi_sweep_rows(xi_cfg, lambdas[0])
        assert untimed(alone(bench_sums, base)) == untimed(reference_bench_rows(base))


def untimed(bench):
    """bench rows without their wall-clock columns: scenario, lambda, algo,
    mean_iter_flops."""
    return [[r[0], r[1], r[2], r[4]] for r in bench]


def recording(solved):
    """solve_instance, appending (lambda, algorithm, with_truth) of each
    solve to `solved`."""
    def solve(algo, inst, lam, iters, with_truth=True, mat=None):
        solved.append((lam, algo, with_truth))
        return solve_instance(algo, inst, lam, iters, with_truth, mat)
    return solve


class TestOnePass:
    """run_pass feeds one cells stream to several reductions; each gets the
    rows of a pass of its own, and every cell is solved once."""

    @pytest.mark.parametrize("bench_trials", [1, 3])
    def test_lambda_sweep_with_bench(self, tmp_path, monkeypatch, bench_trials):
        solved = []
        monkeypatch.setattr(experiments, "solve_instance", recording(solved))
        sweep = make_cfg(tmp_path, lambda_grid=[0.1, 0.5], iters=None, master_seed=3)
        bench = replace(sweep, trials=bench_trials)
        sweep_rows, bench_cells = run_pass((lambda_sweep_sums, sweep), (bench_sums, bench))
        assert len(solved) == max(sweep.trials, bench_trials) * 2 * len(ALGORITHMS)
        assert {truth for *_, truth in solved} == {False}
        monkeypatch.undo()
        assert sweep_rows == reference_lambda_sweep_rows(sweep)
        assert untimed(bench_cells) == untimed(reference_bench_rows(bench))

    @pytest.mark.parametrize("sweep_algos,trace_algos", [(ALGORITHMS, ALGORITHMS), (("adcd",), ("pg",))])
    def test_xi_sweep_with_trace(self, tmp_path, monkeypatch, sweep_algos, trace_algos):
        solved = []
        monkeypatch.setattr(experiments, "solve_instance", recording(solved))
        sweep = make_cfg(tmp_path, scenario=scenario_config("s2"), kind="s2", xi_grid=[0.0, 0.01, 0.05],
                         iters=12, master_seed=3, algos=sweep_algos)
        trace = replace(sweep, xi_grid=[0.01], algos=trace_algos)
        xi_rows, trace_cells = run_pass((xi_sweep_sums, sweep), (trace_sums, trace))
        # the trace's cells are the sweep's xi = 0.01 column, and trace
        # reads sq_error, so every solve takes the truth
        assert len(solved) == 3 * sweep.trials * len(ALGORITHMS)
        assert {truth for *_, truth in solved} == {True}
        monkeypatch.undo()
        assert xi_rows == reference_xi_sweep_rows(sweep, 0.02)
        assert trace_cells == reference_trace_rows(trace, 0.02, 0.01)

    def test_xi_sweep_keeps_its_bytes_with_the_truth_on(self, tmp_path):
        # a truth only adds the sq_error column and never touches x
        sweep = make_cfg(tmp_path, xi_grid=[1e-4, 0.01, 0.1], trials=3, iters=None)
        own = write_rows(xi_sweep_sums, tmp_path / "own", alone(xi_sweep_sums, sweep))
        rows = run_pass((xi_sweep_sums, sweep), (trace_sums, replace(sweep, xi_grid=[0.1])))[0]
        shared = write_rows(xi_sweep_sums, tmp_path / "shared", rows)
        assert shared.read_bytes() == own.read_bytes()

    @pytest.mark.parametrize("other", [
        dict(master_seed=1),
        dict(kind="custom"),
        dict(scenario=scenario_config("s2"), kind="s2"),
        dict(scenario=replace(scenario_config("s1"), seed=4)),
        dict(iters=16),
    ], ids=["seed", "kind", "scenario", "scenario-seed", "iters"])
    def test_configs_that_disagree_raise(self, tmp_path, monkeypatch, other):
        monkeypatch.setattr(experiments, "solve_instance", None)  # nothing may be solved
        cfg = make_cfg(tmp_path)
        with pytest.raises(ValueError, match="must agree on kind, scenario, seed and iters"):
            run_pass((lambda_sweep_sums, cfg), (bench_sums, replace(cfg, **other)))

    def test_the_scenarios_xi_is_not_compared(self, tmp_path, monkeypatch):
        solved = []
        monkeypatch.setattr(experiments, "solve_instance", recording(solved))
        cfg = make_cfg(tmp_path, iters=3)
        run_pass((lambda_sweep_sums, cfg), (bench_sums, replace(cfg, scenario=scenario_config("s1", xi=0.5))))
        assert len(solved) == cfg.trials * len(ALGORITHMS)
