"""scripts/bench_pairs.py with a stub runner in place of perfbench."""

import importlib
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


COMMAND_ARGV = ["P", "C", "--command", "sweep-lambda --scenario s2 --trials 1 --algo pg", "--pairs", "3"]


class CommandStub:
    """Records each command run and answers with a result line whose
    scaled seconds and peak RSS are given per (checkout, pair)."""

    def __init__(self, values, bad=None):
        self.calls, self.values, self.bad, self.count = [], values, bad or {}, {}

    def __call__(self, checkout, command):
        checkout = str(checkout)
        pair = self.count.get(checkout, 0)
        self.count[checkout] = pair + 1
        self.calls.append((checkout, command))
        if (checkout, pair) in self.bad:
            return self.bad[checkout, pair], STDERR
        seconds, rss = self.values[checkout, pair]
        return json.dumps({"correct": True, "failed": 0, "exit": 0, "wall_s": seconds, "slowdown": 1.0,
                           "scaled_s": seconds, "maxrss_mb": rss}), ""


def command_values():
    return {("P", 0): (10.0, 40.0), ("P", 1): (12.0, 41.0), ("P", 2): (11.0, 40.5),
            ("C", 0): (9.0, 39.0), ("C", 1): (12.5, 39.5), ("C", 2): (10.0, 39.0)}


def test_command_runs_in_plan_order_and_summarizes(capsys):
    stub = CommandStub(command_values())
    assert bench_pairs.main(COMMAND_ARGV, runner=Stub(), command_runner=stub) == 0
    command = ["sweep-lambda", "--scenario", "s2", "--trials", "1", "--algo", "pg"]
    assert stub.calls == [(side, command) for side in ("P", "C", "C", "P", "P", "C")]
    out = capsys.readouterr().out.splitlines()
    assert [line.split(" {")[0] for line in out[:6]] == [
        "parent seed=0", "change seed=0", "change seed=1", "parent seed=1", "parent seed=2", "change seed=2"]
    assert out[6:] == [
        "scaled_s: parent 11 change 10 change/parent 0.9091 change lower in 2/3",
        "maxrss_mb: parent 40.5 change 39 change/parent 0.9630 change lower in 3/3",
    ]


def test_failed_command_exits_1_after_every_run(capsys):
    bad = json.dumps({"correct": False, "failed": 1, "exit": 1, "wall_s": 1.0, "slowdown": 1.0,
                      "scaled_s": 1.0, "maxrss_mb": 30.0})
    stub = CommandStub(command_values(), bad={("C", 1): bad, ("P", 2): None})
    assert bench_pairs.main(COMMAND_ARGV, command_runner=stub) == 1
    assert len(stub.calls) == 6
    out = capsys.readouterr().out.splitlines()
    assert "    error: cell solve --algo pg --scenario s2 --seed 7: line search failed" in out
    # the failed run and the one with no result line drop out of the
    # medians and the pairs, and so do the other side's runs of their
    # seeds: only the pair of seed 0 is left
    assert out[-2:] == [
        "scaled_s: parent 10 change 9 change/parent 0.9000 change lower in 1/1",
        "maxrss_mb: parent 40 change 39 change/parent 0.9750 change lower in 1/1",
    ]


@pytest.mark.parametrize("argv", [
    ["P", "C", "--pairs", "2", "--seed0", "1"],
    ["P", "C", "--workload", "s1-trace", "--command", "trace", "--pairs", "2", "--seed0", "1"],
    ["P", "C", "--workload", "s1-trace", "--pairs", "2"],
    ["P", "C", "--command", "", "--pairs", "2"],
])
def test_needs_one_of_workload_and_command(argv):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv, runner=Stub(), command_runner=CommandStub({}))
    assert exc.value.code == 2


def test_command_runs_through_the_checkouts_own_hostspeed():
    root = SCRIPT.parents[1]
    line, stderr = bench_pairs.run_command(root, ["solve", "--scenario", "s1", "--lambda", "0.5",
                                                  "--iters", "3", "--algo", "pg"])
    result = json.loads(line)
    assert result["correct"] and result["exit"] == 0, stderr
    assert result["scaled_s"] == pytest.approx(result["wall_s"] / result["slowdown"])
    assert 0 < result["wall_s"] < 60 and 10 < result["maxrss_mb"] < 1000


class MetricStub(Stub):
    """Answers each run with the metrics values(checkout, seed) gives."""

    def __init__(self, values, bad=None):
        super().__init__(bad)
        self.values = values

    def __call__(self, checkout, workload, seed, seconds):
        line, stderr = super().__call__(checkout, workload, seed, seconds)
        if (str(checkout), seed) in self.bad:
            return line, stderr
        metrics = {k: {"value": v, "unit": "u"} for k, v in self.values(str(checkout), seed).items()}
        return json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}), stderr


def ten_pairs(checkout, seed):
    # pg_iter_per_s: the change is 10 higher in every pair; peak_rss_mb:
    # the change is 0.05 lower in all pairs but the first, which is too
    # little against the parent's spread; setup_s and the rest unreported
    k = seed - 201
    if checkout == "P":
        return {"pg_iter_per_s": 100.0 + k, "peak_rss_mb": 40.0 + k / 10}
    return {"pg_iter_per_s": 110.0 + k, "peak_rss_mb": 40.1 if k == 0 else 40.0 + k / 10 - 0.05}


TEN_PAIRS = ["P", "C", "--workload", "s2-lambda-sweep", "--pairs", "10", "--seed0", "201"]


def test_workload_ends_with_a_summary_per_reported_metric(capsys):
    assert bench_pairs.main(TEN_PAIRS, runner=MetricStub(ten_pairs)) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 22
    assert out[20:] == [
        "pg_iter_per_s: parent 104.5 [102.25, 106.75] change 114.5 [112.25, 116.75] "
        "change/parent 1.0957 change better (higher) in 10/10, claim holds",
        "peak_rss_mb: parent 40.45 [40.225, 40.675] change 40.4 [40.175, 40.625] "
        "change/parent 0.9988 change better (lower) in 9/10, claim fails",
    ]


def test_incorrect_run_drops_out_of_the_workload_summary(capsys):
    bad = json.dumps({"correct": False, "attempted": 3, "failed": 0, "metrics": {}})
    stub = MetricStub(ten_pairs, bad={("C", 210): bad, ("P", 209): None})
    assert bench_pairs.main(TEN_PAIRS, runner=stub) == 1
    out = capsys.readouterr().out
    # the change's run of seed 210 and the parent's of 209 drop out of the
    # medians, and their pairs with them: 7 wins in the 8 pairs left are
    # under 9 in 10
    assert "change better (higher) in 8/8, claim holds" in out
    assert "change better (lower) in 7/8, claim fails" in out


def test_prints_the_numbers_bench_record_stores(capsys):
    # the runs of test_incorrect_run_drops_out_of_the_workload_summary, as
    # the records perfbench/run.py would leave (none for the run that
    # printed no result line), folded into a BENCH_<pr>.json
    bad = {("C", 210): json.dumps({"correct": False, "attempted": 3, "failed": 1, "metrics": {}}),
           ("P", 209): None}
    bench_pairs.main(TEN_PAIRS, runner=MetricStub(ten_pairs, bad=bad))
    printed = capsys.readouterr().out.splitlines()[-2:]
    sides = {"P": [], "C": []}
    for side, seed in bench_pairs.plan(10, 201):
        checkout = "P" if side == "parent" else "C"
        if (checkout, seed) in bad:
            if bad[checkout, seed] is None:
                continue
            result = json.loads(bad[checkout, seed])
        else:
            metrics = {k: {"value": v} for k, v in ten_pairs(checkout, seed).items()}
            result = {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}
        sides[checkout].append({"workload": "s2-lambda-sweep", "seed": seed, "trace": 0, "result": result,
                                "environment": {"src_sha256": checkout, "git_commit": None}})
    bench_record = importlib.import_module("bench_record")
    end_to_end = json.loads((SCRIPT.parents[1] / "BENCHMARK.json").read_text())["end_to_end"]
    stored = bench_record.fold(7, sides["P"], sides["C"], end_to_end)["workloads"]["s2-lambda-sweep"]
    assert list(stored["metrics"]) == ["pg_iter_per_s", "peak_rss_mb"]
    expected = []
    for key, m in stored["metrics"].items():
        par, chg = m["parent"], m["change"]
        expected.append(f"{key}: parent {par['median']:.6g} [{par['q1']:.6g}, {par['q3']:.6g}] "
                        f"change {chg['median']:.6g} [{chg['q1']:.6g}, {chg['q3']:.6g}] "
                        f"change/parent {m['change_over_parent']:.4f} "
                        f"change better ({m['better']}) in {m['pairs_won']}/{m['pairs']}, "
                        f"claim {'holds' if m['claim'] else 'fails'}")
    assert printed == expected
    assert [m["claim"] for m in stored["metrics"].values()] == [True, False]


def test_incorrect_runs_and_their_pairs_enter_no_median(capsys):
    # the change's run of seed 210 is incorrect and the parent's of 209
    # gave no result line; their pairs drop out of both sides' medians
    # and quartiles, not only out of the pair count
    bad = json.dumps({"correct": False, "attempted": 3, "failed": 0, "metrics": {}})
    bench_pairs.main(TEN_PAIRS, runner=MetricStub(ten_pairs, bad={("C", 210): bad, ("P", 209): None}))
    out = capsys.readouterr().out.splitlines()
    # k = 0..7 are left: the parent's pg_iter_per_s is 100..107 and the
    # change's 110..117
    assert out[-2].startswith("pg_iter_per_s: parent 103.5 [101.75, 105.25] change 113.5 [111.75, 115.25] ")


def test_a_run_without_a_metric_leaves_only_that_pair_out(capsys):
    def values(checkout, seed):
        got = ten_pairs(checkout, seed)
        if (checkout, seed) == ("C", 205):
            del got["peak_rss_mb"]
        return got
    assert bench_pairs.main(TEN_PAIRS, runner=MetricStub(values)) == 0
    out = capsys.readouterr().out
    assert "change better (higher) in 10/10" in out and "change better (lower) in 8/9" in out
