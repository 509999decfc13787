"""scripts/run_all_experiments.py with a stub in place of cli_main."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_all_experiments.py"
spec = importlib.util.spec_from_file_location("run_all_experiments", SCRIPT)
run_all = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run_all)


def stub(codes):
    """A cli_main that records each job and exits with codes[command, scenario]
    (0 when absent)."""
    calls = []

    def cli_main(job):
        calls.append(job)
        return codes.get((job[0], job[job.index("--scenario") + 1]), 0)

    return cli_main, calls


def run(monkeypatch, codes):
    cli_main, calls = stub(codes)
    monkeypatch.setattr(run_all, "cli_main", cli_main)
    monkeypatch.setattr("sys.argv", ["run_all_experiments.py", "--trials", "2", "--out", "res"])
    return run_all.main(), calls


def test_every_job_runs_and_the_script_exits_0(monkeypatch, capsys):
    rc, calls = run(monkeypatch, {})
    assert rc == 0
    assert [(job[0], job[job.index("--scenario") + 1]) for job in calls] == [
        ("trace", "s1"), ("sweep-lambda", "s1"), ("sweep-xi", "s1"),
        ("trace", "s2"), ("sweep-lambda", "s2"), ("sweep-xi", "s2"), ("bench", "both"),
    ]
    assert capsys.readouterr().err == ""


def test_a_failed_job_is_named_and_the_rest_still_run(monkeypatch, capsys):
    rc, calls = run(monkeypatch, {("sweep-lambda", "s1"): 1, ("sweep-xi", "s2"): 2})
    assert rc == 1
    assert len(calls) == 7
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("failed with exit code 1: sparsetls sweep-lambda --xi 0.01 --scenario s1 ")
    assert err[1].startswith("failed with exit code 2: sparsetls sweep-xi --lambda 0.02 --scenario s2 ")
    assert err[2] == "2 of 7 jobs failed"
