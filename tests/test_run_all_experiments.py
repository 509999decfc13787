"""scripts/run_all_experiments.py with stubs in place of run_pass and
write_rows."""

import importlib.util
from pathlib import Path

import pytest

from sparsetls.experiments import bench_sums, lambda_sweep_sums, trace_sums, xi_sweep_sums

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_all_experiments.py"
spec = importlib.util.spec_from_file_location("run_all_experiments", SCRIPT)
run_all = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run_all)


def run(monkeypatch, argv, fail=()):
    """main() with a run_pass that records each pass's jobs and gives each
    job the one row [reduction name, kind, trials], raising for the
    passes (kind, first reduction) in `fail`, and a write_rows that
    records what it would write.  Returns (exit code, passes, writes)."""
    passes, writes = [], []

    def run_pass(*jobs):
        passes.append(jobs)
        kind = jobs[0][1].kind
        if (kind, jobs[0][0]) in fail:
            raise ValueError(f"cell solve --scenario {kind}: line search failed")
        return [[[reduction.__name__, cfg.kind, cfg.trials]] for reduction, cfg in jobs]

    def write_rows(reduction, out_dir, rows):
        writes.append((reduction, out_dir, rows))
        return out_dir

    monkeypatch.setattr(run_all, "run_pass", run_pass)
    monkeypatch.setattr(run_all, "write_rows", write_rows)
    monkeypatch.setattr("sys.argv", ["run_all_experiments.py", "--out", "res", *argv])
    try:
        rc = run_all.main()
    except SystemExit as exc:  # argparse's usage errors
        rc = exc.code
    return rc, passes, writes


def test_every_job_runs_and_the_script_exits_0(monkeypatch, capsys):
    rc, passes, writes = run(monkeypatch, ["--trials", "2", "--bench-trials", "3", "--seed", "5"])
    assert rc == 0
    assert [[(r, c.kind, c.trials, c.lambda_grid, c.xi_grid) for r, c in jobs] for jobs in passes] == [
        job for kind in ("s1", "s2") for job in (
            [(lambda_sweep_sums, kind, 2, run_all.default_lambda_grid(), [0.01]),
             (bench_sums, kind, 3, run_all.default_lambda_grid(), [0.01])],
            [(xi_sweep_sums, kind, 2, [0.02], run_all.default_xi_grid()),
             (trace_sums, kind, 2, [0.02], [0.01])],
        )
    ]
    assert all(c.master_seed == 5 and c.iters is None and c.algos == ("pg", "adcd")
               for jobs in passes for _, c in jobs)
    res = Path("res")
    assert writes == [
        *[(r, res / kind, [[r.__name__, kind, 2]])
          for kind in ("s1", "s2") for r in (lambda_sweep_sums, xi_sweep_sums, trace_sums)],
        (bench_sums, res / "bench", [["bench_sums", "s1", 3], ["bench_sums", "s2", 3]]),
    ]
    assert capsys.readouterr().err == ""


def test_a_failed_job_is_named_and_the_rest_still_run(monkeypatch, capsys):
    rc, passes, writes = run(monkeypatch, ["--trials", "2"], fail={("s2", xi_sweep_sums)})
    assert rc == 1
    assert len(passes) == 4
    assert [(r, out.name) for r, out, _ in writes] == [
        (lambda_sweep_sums, "s1"), (xi_sweep_sums, "s1"), (trace_sums, "s1"),
        (lambda_sweep_sums, "s2"), (bench_sums, "bench"),
    ]
    assert capsys.readouterr().err.splitlines() == [
        "failed: s2: sweep-xi + trace: cell solve --scenario s2: line search failed",
        "1 of 4 passes failed",
    ]


def test_a_failed_lambda_pass_leaves_bench_unwritten(monkeypatch, capsys):
    rc, passes, writes = run(monkeypatch, ["--trials", "2"], fail={("s1", lambda_sweep_sums)})
    assert rc == 1
    assert len(passes) == 4
    assert [(r, out.name) for r, out, _ in writes] == [
        (xi_sweep_sums, "s1"), (trace_sums, "s1"),
        (lambda_sweep_sums, "s2"), (xi_sweep_sums, "s2"), (trace_sums, "s2"),
    ]
    assert capsys.readouterr().err.splitlines() == [
        "failed: s1: sweep-lambda + bench: cell solve --scenario s1: line search failed",
        "bench.csv not written: a sweep-lambda + bench pass failed",
        "1 of 4 passes failed",
    ]


@pytest.mark.parametrize("argv,message", [
    (["--trials", "0"], "trials must be >= 1"),
    (["--bench-trials", "0"], "trials must be >= 1"),
    (["--seed", "-1"], "seed -1 is outside [0, 2**64)"),
    (["--seed", str(2**64)], f"seed {2**64} is outside [0, 2**64)"),
])
def test_a_bad_count_or_seed_exits_2_before_any_solve(monkeypatch, capsys, argv, message):
    # argparse rejects the flag before any config is built
    monkeypatch.setattr(run_all, "ExperimentConfig", None)
    rc, passes, writes = run(monkeypatch, argv)
    assert (rc, passes, writes) == (2, [], [])
    err = capsys.readouterr().err.splitlines()
    flag = argv[0]
    assert err[-1] == f"run_all_experiments.py: error: argument {flag}: bad {flag} value: {message}"
