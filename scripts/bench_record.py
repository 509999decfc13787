#!/usr/bin/env python3
"""Fold interleaved parent/change perfbench records into BENCH_<pr>.json.

    python3 scripts/bench_record.py PR PARENT_RESULTS CHANGE_RESULTS

PARENT_RESULTS and CHANGE_RESULTS are the `.perfbench/results/`
directories of two checkouts, the parent commit and the change, run on
the same host with `perfbench/run.py --trace 0` and the same seeds.  Only
end-to-end records (trace 0) are read.  BENCH_<PR>.json is written at the
root of the repository:

- the environment stamp the records share (Python, numpy, BLAS, thread
  variables, CPUs), and both sides' src_sha256 and git commit;
- per workload, the seeds run on both sides (a run is paired with the
  other side's run of the same seed; unpaired seeds are listed), each
  side's count of correct runs and of failed cells, and per end-to-end
  metric of BENCHMARK.json compare's result over the pairs of runs
  correct on both sides (an incorrect run, and the other side's run of
  its seed, enter no median and no pair): each side's median [Q1, Q3],
  change/parent, the pairs the change won, the pair count and `claim`.
  scripts/bench_pairs.py prints the same numbers.

Records whose environments differ in anything but the source, the commit
and the CPU a run pinned itself to are refused: such numbers do not
compare.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
USAGE = "usage: bench_record.py PR PARENT_RESULTS CHANGE_RESULTS"
PER_RUN = ("src_sha256", "git_commit", "pinned_cpu")


def load(results: Path) -> list[dict]:
    """The end-to-end records of one results directory."""
    records = [json.loads(p.read_text()) for p in sorted(Path(results).glob("*.json"))]
    records = [r for r in records if r["trace"] == 0]
    if not records:
        raise ValueError(f"{results}: no end-to-end (trace 0) records")
    return records


def summary(values: list[float]) -> dict:
    """Median and inclusive quartiles; one value is its own quartiles."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(parent: dict, change: dict, better: str) -> Optional[dict]:
    """One metric over the seeds in both `parent` and `change`, which map
    the seed of each correct run that reports it to its value: each
    side's summary, change/parent of the medians, the pairs the change won
    in the `better` direction (a tie counts for neither), the pair count,
    and the claim: at least 9 pairs in 10 won, and the medians apart by
    more than the parent's Q3 - Q1.  None when no seed is in both."""
    seeds = sorted(parent.keys() & change.keys())
    if not seeds:
        return None
    sign = 1 if better == "higher" else -1
    par = summary([parent[s] for s in seeds])
    chg = summary([change[s] for s in seeds])
    won = sum(sign * change[s] > sign * parent[s] for s in seeds)
    beyond = sign * (chg["median"] - par["median"]) > par["q3"] - par["q1"]
    return {"parent": par, "change": chg, "change_over_parent": chg["median"] / par["median"],
            "pairs_won": won, "pairs": len(seeds), "claim": won >= 0.9 * len(seeds) and beyond}


def one(records: list[dict], key: str, side: str):
    """The single value of environment[key] over one side's records."""
    values = {json.dumps(r["environment"][key]) for r in records}
    if len(values) != 1:
        raise ValueError(f"{side} records disagree on {key}: {sorted(values)}")
    return json.loads(values.pop())


def fold(pr: int, parent: list[dict], change: list[dict], end_to_end: list[dict]) -> dict:
    stamps = {json.dumps({k: v for k, v in r["environment"].items() if k not in PER_RUN}, sort_keys=True)
              for r in parent + change}
    if len(stamps) != 1:
        raise ValueError("records come from different environments")
    out = {
        "pr": pr,
        "command": "perfbench/run.py --trace 0",
        "environment": json.loads(stamps.pop()),
        "src_sha256": {"parent": one(parent, "src_sha256", "parent"),
                       "change": one(change, "src_sha256", "change")},
        "git_commit": {"parent": one(parent, "git_commit", "parent"),
                       "change": one(change, "git_commit", "change")},
        "workloads": {},
    }
    sides = {"parent": parent, "change": change}
    for name in sorted({r["workload"] for r in parent + change}):
        runs = {side: {r["seed"]: r for r in recs if r["workload"] == name} for side, recs in sides.items()}
        seeds = sorted(set(runs["parent"]) & set(runs["change"]))
        unpaired = sorted(set(runs["parent"]) ^ set(runs["change"]))
        if not seeds:
            raise ValueError(f"{name}: no seed was run on both sides")
        wl = {"seeds": seeds, "unpaired_seeds": unpaired, "metrics": {}}
        for side in sides:
            results = [runs[side][s]["result"] for s in seeds]
            wl[f"{side}_runs_correct"] = sum(r["correct"] for r in results)
            wl[f"{side}_failed_cells"] = sum(r["failed"] for r in results)
        correct = [{s: r["result"] for s, r in runs[side].items() if r["result"]["correct"]}
                   for side in sides]
        for metric in end_to_end:
            key = metric["name"]
            stats = compare(*({s: r["metrics"][key]["value"] for s, r in results.items()
                               if key in r["metrics"]} for results in correct), metric["better"])
            if stats is not None:
                wl["metrics"][key] = {**{k: metric[k] for k in ("unit", "better", "bound")}, **stats}
        out["workloads"][name] = wl
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 3 or not argv[0].isdigit():
        print(USAGE, file=sys.stderr)
        return 2
    pr, parent_dir, change_dir = int(argv[0]), Path(argv[1]), Path(argv[2])
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    try:
        record = fold(pr, load(parent_dir), load(change_dir), end_to_end)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = ROOT / f"BENCH_{pr}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
