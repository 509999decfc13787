"""scripts/bench_record.py on synthetic perfbench records."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

END_TO_END = [
    {"name": "pg_iter_per_s", "unit": "iter/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]
ENV = {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "pinned_cpu": 0,
       "git_commit": None, "src_sha256": "p"}


def write(directory: Path, workload: str, seed: int, pg: float, rss: float, *,
          sha="p", trace=0, correct=True, failed=0, **env) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "environment": {**ENV, "src_sha256": sha, "pinned_cpu": seed % 2, **env},
        "result": {"correct": correct, "attempted": 10, "failed": failed, "metrics": {
            "pg_iter_per_s": {"value": pg, "unit": "iter/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }},
    }
    (directory / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))


def records(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, pg, rss in ((1, 100.0, 40.0), (2, 110.0, 41.0), (3, 120.0, 42.0), (4, 130.0, 43.0)):
        write(parent, "s1-trace", seed, pg, rss)
    # the change wins pg_iter_per_s on seeds 1-3, loses seed 4, and ties rss on seed 1
    for seed, pg, rss in ((1, 105.0, 40.0), (2, 111.0, 40.5), (3, 125.0, 42.5), (4, 129.0, 42.0)):
        write(change, "s1-trace", seed, pg, rss, sha="c")
    write(change, "s1-trace", 9, 500.0, 1.0, sha="c")          # unpaired: ignored
    write(change, "s1-trace", 1, 1e9, 1e9, sha="c", trace=1)   # traced: ignored
    return parent, change


def s1_trace(parent, change):
    """The s1-trace workload of the record fold makes of the directories."""
    return bench_record.fold(7, bench_record.load(parent), bench_record.load(change),
                             END_TO_END)["workloads"]["s1-trace"]


def test_medians_quartiles_and_pairs_won(tmp_path):
    parent, change = records(tmp_path)
    out = bench_record.fold(7, bench_record.load(parent), bench_record.load(change), END_TO_END)
    assert out["src_sha256"] == {"parent": "p", "change": "c"}
    assert "src_sha256" not in out["environment"] and "pinned_cpu" not in out["environment"]
    assert out["environment"]["numpy"] == "2.4.6"
    wl = out["workloads"]["s1-trace"]
    assert wl["seeds"] == [1, 2, 3, 4] and wl["unpaired_seeds"] == [9]
    assert wl["parent_runs_correct"] == wl["change_runs_correct"] == 4
    pg = wl["metrics"]["pg_iter_per_s"]
    # inclusive quartiles of 100, 110, 120, 130
    assert pg["parent"] == {"median": 115.0, "q1": 107.5, "q3": 122.5}
    assert pg["change"]["median"] == 118.0
    assert pg["pairs_won"] == 3 and pg["pairs"] == 4
    assert pg["change_over_parent"] == pytest.approx(118.0 / 115.0)
    assert pg["claim"] is False  # 3 pairs won in 4
    rss = wl["metrics"]["peak_rss_mb"]
    assert rss["better"] == "lower" and rss["pairs_won"] == 2  # seeds 2 and 4; seed 1 ties


def test_an_incorrect_run_and_its_pair_enter_no_median_or_pair(tmp_path):
    parent, change = records(tmp_path)
    write(change, "s1-trace", 2, 1e9, 1.0, sha="c", correct=False, failed=1)
    wl = s1_trace(parent, change)
    assert wl["seeds"] == [1, 2, 3, 4]
    assert (wl["change_runs_correct"], wl["change_failed_cells"]) == (3, 1)
    pg = wl["metrics"]["pg_iter_per_s"]
    # seeds 1, 3 and 4 alone: parent 100, 120, 130 and change 105, 125, 129
    assert pg["parent"] == {"median": 120.0, "q1": 110.0, "q3": 125.0}
    assert pg["change"] == {"median": 125.0, "q1": 115.0, "q3": 127.0}
    assert (pg["pairs_won"], pg["pairs"], pg["claim"]) == (2, 3, False)


def test_a_record_without_a_metric_leaves_only_that_pair_out(tmp_path):
    parent, change = records(tmp_path)
    path = change / "s1-trace-seed3-trace0.json"
    record = json.loads(path.read_text())
    del record["result"]["metrics"]["peak_rss_mb"]
    path.write_text(json.dumps(record))
    wl = s1_trace(parent, change)
    assert wl["metrics"]["pg_iter_per_s"]["pairs"] == 4
    assert wl["metrics"]["peak_rss_mb"]["pairs"] == 3
    assert wl["metrics"]["peak_rss_mb"]["parent"]["median"] == 41.0  # seeds 1, 2 and 4


def test_compare_claims_only_9_pairs_in_10_beyond_the_parents_spread():
    parent = {s: 100.0 + s for s in range(10)}
    # all ten won, medians 10 apart against the parent's Q3 - Q1 of 4.5
    assert bench_record.compare(parent, {s: v + 10 for s, v in parent.items()}, "higher")["claim"]
    # nine won and one tie: still a claim; a lower-is-better metric loses it
    change = {s: v + (0 if s == 0 else 10) for s, v in parent.items()}
    assert bench_record.compare(parent, change, "higher")["pairs_won"] == 9
    assert bench_record.compare(parent, change, "higher")["claim"]
    assert not bench_record.compare(parent, change, "lower")["claim"]
    # ten won by less than the parent's spread
    assert not bench_record.compare(parent, {s: v + 1 for s, v in parent.items()}, "higher")["claim"]
    assert bench_record.compare(parent, {20: 1.0}, "higher") is None


def test_main_writes_bench_json(tmp_path, monkeypatch):
    parent, change = records(tmp_path)
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    assert bench_record.main(["7", str(parent), str(change)]) == 0
    written = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert written["pr"] == 7 and set(written["workloads"]) == {"s1-trace"}
    assert bench_record.main(["x", str(parent)]) == 2


def test_refuses_mixed_environments_and_sources(tmp_path):
    parent, change = records(tmp_path)
    write(change, "s2-lambda-sweep", 1, 1.0, 1.0, sha="c", numpy="1.26.4")
    with pytest.raises(ValueError, match="different environments"):
        bench_record.fold(7, bench_record.load(parent), bench_record.load(change), END_TO_END)
    parent, change = records(tmp_path / "again")
    write(change, "s2-lambda-sweep", 1, 1.0, 1.0, sha="other")
    with pytest.raises(ValueError, match="change records disagree on src_sha256"):
        bench_record.fold(7, bench_record.load(parent), bench_record.load(change), END_TO_END)
