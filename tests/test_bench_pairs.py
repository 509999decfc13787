"""scripts/bench_pairs.py with a stub runner in place of perfbench."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

ARGV = ["P", "C", "--workload", "s2-lambda-sweep", "--pairs", "4", "--seed0", "201",
        "--seconds", "30"]


STDERR = "warming up\nerror: cell solve --algo pg --scenario s2 --seed 7: line search failed\ndone\n"


class Stub:
    """Records each call and answers with a result line and STDERR, or
    with `bad` for the run of (checkout, seed) named in it."""

    def __init__(self, bad=None):
        self.calls, self.bad = [], bad or {}

    def __call__(self, checkout, workload, seed, seconds):
        self.calls.append((str(checkout), workload, seed, seconds))
        if (str(checkout), seed) in self.bad:
            return self.bad[str(checkout), seed], STDERR
        return json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {}}), STDERR


def test_plan_alternates_the_first_side():
    assert bench_pairs.plan(3, 10) == [
        ("parent", 10), ("change", 10), ("change", 11), ("parent", 11), ("parent", 12), ("change", 12),
    ]


def test_runs_both_checkouts_in_plan_order(capsys):
    stub = Stub()
    assert bench_pairs.main(ARGV, runner=stub) == 0
    assert stub.calls == [
        ("P", "s2-lambda-sweep", 201, 30.0), ("C", "s2-lambda-sweep", 201, 30.0),
        ("C", "s2-lambda-sweep", 202, 30.0), ("P", "s2-lambda-sweep", 202, 30.0),
        ("P", "s2-lambda-sweep", 203, 30.0), ("C", "s2-lambda-sweep", 203, 30.0),
        ("C", "s2-lambda-sweep", 204, 30.0), ("P", "s2-lambda-sweep", 204, 30.0),
    ]
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 8
    assert out[2].startswith('change seed=202 {"correct": true')


@pytest.mark.parametrize("line", [
    json.dumps({"correct": False, "attempted": 3, "failed": 1, "metrics": {}}),
    None,
    "check failed: something",
])
def test_incorrect_or_missing_result_exits_1_after_every_run(line):
    stub = Stub(bad={("C", 203): line})
    assert bench_pairs.main(ARGV, runner=stub) == 1
    assert len(stub.calls) == 8


@pytest.mark.parametrize("result, shown", [
    (json.dumps({"correct": False, "attempted": 3, "failed": 0, "metrics": {}}),
     ["error: cell solve --algo pg --scenario s2 --seed 7: line search failed"]),
    (json.dumps({"correct": True, "attempted": 3, "failed": 1, "metrics": {}}),
     ["error: cell solve --algo pg --scenario s2 --seed 7: line search failed"]),
    (None, ["warming up", "error: cell solve --algo pg --scenario s2 --seed 7: line search failed",
            "done"]),
])
def test_prints_why_a_run_failed_under_its_result_line(capsys, result, shown):
    stub = Stub(bad={("C", 203): result})
    bench_pairs.main(ARGV, runner=stub)
    out = capsys.readouterr().out.splitlines()
    at = out.index(f"change seed=203 {result}")
    assert out[at + 1:at + 1 + len(shown)] == [f"    {text}" for text in shown]
    # only that run shows its stderr; the correct runs around it do not
    assert len(out) == 8 + len(shown)


def test_no_result_line_shows_only_the_stderr_tail(capsys):
    lines = [f"line {i}" for i in range(bench_pairs.STDERR_TAIL + 5)]
    assert bench_pairs.outcome(None, "\n".join(lines) + "\n") == (False, lines[-bench_pairs.STDERR_TAIL:])


@pytest.mark.parametrize("flag, value", [("--pairs", "0"), ("--seed0", "-1"), ("--seconds", "0")])
def test_rejects_bad_arguments(flag, value):
    argv = list(ARGV)
    argv[argv.index(flag) + 1] = value
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv, runner=Stub())
    assert exc.value.code == 2
