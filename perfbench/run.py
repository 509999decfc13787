#!/usr/bin/env python3
"""Benchmark for sparsetls: paired PG / AD-CD solves through the public CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload s1-trace --seed 0 --seconds 45 --trace 0

--trace 0 times whole rounds for about --seconds and prints the end-to-end
metrics, each time scaled to the reference host speed by the probe in
hostspeed.py; --trace 1 runs one round untraced and the same round under
timing shims, and prints the per-layer metrics.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  A full
record, with the environment stamp, goes to .perfbench/results/.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere in this process
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
from tracing import DRAWS, Totals, Tracer, median, outermost, rate, totals  # noqa: E402
from workloads import (  # noqa: E402
    ALGORITHMS, DIMENSIONS, WORKLOADS, XI, Workload, round_seed, run_round, schedule,
)

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 15
# Criterion 7 of the package: AD-CD / PG counted multiply-adds per iteration.
MIN_MADDS_RATIO = {"s1": 5.0, "s2": 20.0}

END_TO_END_UNITS = {
    "setup_s": "s", "cells_per_s": "1/s", "pg_iter_per_s": "iter/s",
    "adcd_iter_per_s": "iter/s", "peak_rss_mb": "MB",
}


class Program:
    """The package under test, imported from the checkout's src/."""

    def __init__(self):
        if not (SRC / "sparsetls" / "__init__.py").is_file():
            raise RuntimeError(f"no sparsetls package under {SRC}")
        sys.path.insert(0, str(SRC))
        import sparsetls
        if Path(sparsetls.__file__).resolve().parent != (SRC / "sparsetls").resolve():
            raise RuntimeError(f"imported sparsetls from {sparsetls.__file__}, not {SRC}")
        self.pkg = sparsetls
        self.cli_main = sparsetls.cli_main

    def instance(self, scenario: str, seed: int, trial: int):
        from sparsetls.problems import SCENARIO_TAGS, generate_instance, scenario_config
        rng = self.pkg.derive_stream(seed, SCENARIO_TAGS[scenario], trial)
        return generate_instance(scenario_config(scenario, xi=XI), rng)


def setup_samples() -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until numpy and the package
    are imported and cli_main can be called; one sample per process, which
    inherits this process's CPU.  Returns the wall times and the same
    scaled to the reference host speed."""
    code = "import time, numpy, sparsetls; from sparsetls import cli_main; print(time.time_ns())"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    speed = hostspeed.Speed()
    samples, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.time_ns()
        # no probes inside: they would share the CPU with the child
        proc, _, slowdown = speed.timed(
            lambda: subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                                   capture_output=True, text=True, timeout=120),
            inside=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append((int(proc.stdout.split()[-1]) - t0) / 1e9)
        scaled.append(samples[-1] / slowdown)
    return samples, scaled


def environment(allowed_cpus: int, pinned_cpu: int) -> dict:
    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT.resolve():
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": allowed_cpus,
        "pinned_cpu": pinned_cpu,
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def check_round(prog: Program, wl: Workload, rnd) -> tuple[list[str], int]:
    """Correctness problems and failed cells of one round.

    A half whose command aborted counts all of its cells as failed and is
    not checked further.
    """
    _, _, k = DIMENSIONS[wl.scenario]
    trials = max(wl.trials(algo) for algo in ALGORITHMS)
    instances = [prog.instance(wl.scenario, rnd.seed, t) for t in range(trials)]
    problems = [f"trial {t}: {p}" for t, inst in enumerate(instances)
                for p in checks.instance_problems(inst, k)]
    failed = 0
    for algo, half in rnd.halves.items():
        if half.exit_code != 0 or not half.csv.is_file():
            failed += wl.cells(algo)
            continue
        if wl.command == "trace":
            probs, bad = checks.trace_problems(half.csv, wl, algo, instances)
        else:
            probs, bad = checks.sweep_problems(half.csv, wl, algo)
        problems += probs
        failed += bad
    return problems, failed


def sampled_cell_problems(prog: Program, wl: Workload, rnd) -> list[str]:
    """Re-solve the cells of one lambda through the public solve_instance.

    The lambda is the grid's middle value, where supports are neither full
    nor empty.  Each solve's final cost must equal c(x) recomputed here;
    for a sweep, every trial is re-solved and the round's CSV row must
    equal the means recomputed here from the final iterates.  For the
    trace, trial 0 stands for the round.
    """
    lam = wl.grid[len(wl.grid) // 2]
    iterations = schedule(lam, wl.scenario)
    problems = []
    for algo in ALGORITHMS:
        trials = wl.trials(algo) if wl.command == "sweep-lambda" else 1
        instances = [prog.instance(wl.scenario, rnd.seed, t) for t in range(trials)]
        results = [prog.pkg.solve_instance(algo, inst, lam, iterations) for inst in instances]
        if not all(np.isfinite(res.x).all() for res in results):
            continue  # the round's CSV row already counts these cells as failed
        for t, (inst, res) in enumerate(zip(instances, results)):
            problems += [f"{algo} trial {t} lambda={lam:g}: {p}"
                         for p in checks.solve_problems(res, inst.a, inst.b, lam, iterations)]
        half = rnd.halves[algo]
        if wl.command == "sweep-lambda" and half.exit_code == 0:
            problems += checks.sweep_row_problems(half.csv, algo, lam, instances,
                                                  [res.x for res in results])
    return problems


def timed_run(prog: Program, wl: Workload, seed: int, seconds: float, work: Path) -> dict:
    """Whole rounds for about `seconds`; each rate is the median round's,
    with every half's wall time scaled to the reference host speed."""
    setup, setup_scaled = setup_samples()
    rounds, problems, failed = [], [], []
    t_start = time.perf_counter()
    while True:
        rnd = run_round(prog.cli_main, wl, round_seed(seed, len(rounds)), work)
        rounds.append(rnd)
        if len(rounds) == 1:
            problems += sampled_cell_problems(prog, wl, rnd)
        probs, bad = check_round(prog, wl, rnd)
        problems += probs
        failed.append(bad)
        # the checks count against the budget; stop when one more round
        # would end further past the budget than short of it
        elapsed = time.perf_counter() - t_start
        if elapsed + 0.5 * elapsed / len(rounds) >= seconds:
            break
    cells = sum(wl.cells(algo) for algo in ALGORITHMS)

    def rates(seconds):
        return {
            "cells_per_s": [(cells - bad) / seconds(r) for bad, r in zip(failed, rounds)],
            "pg_iter_per_s": [wl.iterations("pg") / seconds(r.halves["pg"]) for r in rounds],
            "adcd_iter_per_s": [wl.iterations("adcd") / seconds(r.halves["adcd"]) for r in rounds],
        }

    metrics = {
        "setup_s": median(setup_scaled),
        **{name: median(values) for name, values in rates(lambda x: x.scaled_seconds).items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "setup_samples_s": setup,
        "setup_scaled_s": setup_scaled,
        "wall_time_median_round": {name: median(values)
                                   for name, values in rates(lambda x: x.seconds).items()},
        "rounds": [{"seed": r.seed, **{f"{a}_s": h.seconds for a, h in r.halves.items()},
                    **{f"{a}_slowdown": h.slowdown for a, h in r.halves.items()}}
                   for r in rounds],
    }
    return {"attempted": len(rounds) * cells, "failed": sum(failed), "problems": problems,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
            "detail": detail}


class SolveLog:
    """Observers for the traced round: solves, instances, line-search trials."""

    def __init__(self):
        self.solves = []        # (algo, a, b, lam, iterations, result)
        self.instances = []
        self.ls_trials = 0

    def observers(self) -> dict:
        def solve(algo):
            def observe(args, kwargs, result):
                a, b, lam, iterations = args[:4]
                self.solves.append((algo, a, b, lam, iterations, result))
            return observe

        def step(args, kwargs, state):
            self.ls_trials += 1 + state.backtracks_last

        return {
            "prox_solver.pg_solve": solve("pg"),
            "adcd.adcd_solve": solve("adcd"),
            "prox_solver.pg_step": step,
            "problems.generate_instance": lambda args, kwargs, inst: self.instances.append(inst),
        }

    def madds_per_iter(self, algo: str) -> float:
        runs = [res for al, *_, res in self.solves if al == algo]
        return rate(sum(res.trace[-1].flops for res in runs), sum(len(res.trace) for res in runs))

    def problems(self, k: int) -> tuple[list[str], int]:
        """Solve-level checks on every observed solve; returns (problems, failed)."""
        problems, failed = [], 0
        for n, inst in enumerate(self.instances):
            problems += [f"instance {n}: {p}" for p in checks.instance_problems(inst, k)]
        for algo, a, b, lam, iterations, res in self.solves:
            if not np.isfinite(res.x).all():
                failed += 1
                continue
            problems += [f"{algo} lambda={lam:g}: {p}"
                         for p in checks.solve_problems(res, a, b, lam, iterations)]
        return problems, failed


def s1_reference_ratio(prog: Program, grid, seed: int) -> float:
    """AD-CD / PG multiply-adds per iteration on one s1 instance over `grid`."""
    inst = prog.instance("s1", seed, 0)
    madds = {algo: 0 for algo in ALGORITHMS}
    for lam in grid:
        it = schedule(lam, "s1")
        for algo in ALGORITHMS:
            madds[algo] += prog.pkg.solve_instance(algo, inst, lam, it, with_truth=False).trace[-1].flops
    return madds["adcd"] / madds["pg"]


def traced_run(prog: Program, wl: Workload, seed: int, work: Path, spans_file: Path) -> dict:
    seed0 = round_seed(seed, 0)
    # no probes inside the halves: they would land inside the traced spans
    ref = run_round(prog.cli_main, wl, seed0, work / "untraced", probe_inside=False)
    problems, failed = check_round(prog, wl, ref)

    log = SolveLog()
    tracer = Tracer(observers=log.observers())
    undo = tracer.install()
    try:
        rnd = run_round(tracer.span("cli.main", prog.cli_main), wl, seed0, work / "traced",
                        probe_inside=False)
    finally:
        Tracer.uninstall(undo)
    probs, bad = check_round(prog, wl, rnd)
    problems += probs
    failed += bad
    _, _, k = DIMENSIONS[wl.scenario]
    probs, bad_solves = log.problems(k)
    problems += probs

    for algo in ALGORITHMS:
        a, b = ref.halves[algo].csv, rnd.halves[algo].csv
        if a.is_file() and b.is_file() and a.read_bytes() != b.read_bytes():
            problems.append(f"{algo}: repeated round wrote different CSV bytes")

    pg_madds, adcd_madds = log.madds_per_iter("pg"), log.madds_per_iter("adcd")
    ratio = rate(adcd_madds, pg_madds)
    if ratio <= MIN_MADDS_RATIO[wl.scenario]:
        problems.append(f"AD-CD/PG madds ratio {ratio:.2f} not above {MIN_MADDS_RATIO[wl.scenario]}")
    detail = {"madds_ratio": ratio, "bad_solves": bad_solves,
              "untraced_s": ref.seconds, "traced_s": rnd.seconds}
    if wl.scenario == "s2":
        s1_ratio = s1_reference_ratio(prog, wl.grid, seed0)
        detail["s1_reference_madds_ratio"] = s1_ratio
        if ratio <= s1_ratio:
            problems.append(f"s2 madds ratio {ratio:.2f} not above s1's {s1_ratio:.2f} on the same grid")

    spans = tracer.spans
    t = totals(spans)

    def get(name):
        return t.get(name, Totals())

    def us_per_call(name):
        return rate(get(name).total_ns / 1e3, get(name).calls)

    draws = outermost(spans, DRAWS)
    pg_iters = sum(len(r.trace) for al, *_, r in log.solves if al == "pg")
    adcd_iters = sum(len(r.trace) for al, *_, r in log.solves if al == "adcd")
    step = get("prox_solver.pg_step")
    values = {
        "rng.draw_calls": (len(draws), "count"),
        "rng.us_per_draw_call": (rate(sum(s.end - s.start for s in draws) / 1e3, len(draws)), "us"),
        "problems.generate_instance.calls": (get("problems.generate_instance").calls, "count"),
        "problems.generate_instance.us_per_call": (us_per_call("problems.generate_instance"), "us"),
        "kernel.gradient.calls": (get("kernel.gradient").calls, "count"),
        "kernel.gradient.us_per_call": (us_per_call("kernel.gradient"), "us"),
        "kernel.shrink.calls": (get("kernel.shrink").calls, "count"),
        "kernel.shrink.us_per_call": (us_per_call("kernel.shrink"), "us"),
        "kernel.eval_cost.calls": (get("kernel.eval_cost").calls, "count"),
        "kernel.eval_cost.us_per_call": (us_per_call("kernel.eval_cost"), "us"),
        "prox_solver.pg_init.us_per_call": (us_per_call("prox_solver.pg_init"), "us"),
        "prox_solver.pg_step.calls": (step.calls, "count"),
        "prox_solver.pg_step.self_us_per_call": (rate(step.self_ns / 1e3, step.calls), "us"),
        "prox_solver.ls_trials_per_step": (rate(log.ls_trials, step.calls), "trials/step"),
        "prox_solver.pg_solve.self_us_per_iter":
            (rate(get("prox_solver.pg_solve").self_ns / 1e3, pg_iters), "us"),
        "prox_solver.madds_per_iter": (pg_madds, "madd/iter"),
        "adcd.adcd_step.calls": (get("adcd.adcd_step").calls, "count"),
        "adcd.adcd_step.us_per_call": (us_per_call("adcd.adcd_step"), "us"),
        "adcd.adcd_solve.self_us_per_iter":
            (rate(get("adcd.adcd_solve").self_ns / 1e3, adcd_iters), "us"),
        "adcd.madds_per_iter": (adcd_madds, "madd/iter"),
        "adcd.madds_ratio_vs_pg": (ratio, "ratio"),
        "metrics.squared_error.calls_per_solve":
            (rate(get("metrics.squared_error").calls, len(log.solves)), "calls/solve"),
        "metrics.squared_error.us_per_call": (us_per_call("metrics.squared_error"), "us"),
        "experiments.self_s":
            (sum(v.self_ns for n, v in t.items() if n.startswith("experiments.")) / 1e9, "s"),
        "experiments.csv_bytes":
            (sum(h.csv.stat().st_size for h in rnd.halves.values() if h.csv.is_file()), "bytes"),
        "experiments.csv_write_ms": (get("experiments.write_csv").total_ns / 1e6, "ms"),
        "tracing.overhead_ratio": (rnd.scaled_seconds / ref.scaled_seconds, "ratio"),
    }
    spans_file.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(spans_file, "wt") as fh:
        fh.write("name,start_ns,end_ns,parent\n")
        fh.writelines(f"{s.name},{s.start},{s.end},{s.parent}\n" for s in spans)
    return {"attempted": 2 * sum(wl.cells(algo) for algo in ALGORITHMS),
            "failed": failed, "problems": problems,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
            "detail": detail}


def run_all(args) -> int:
    """Run every workload in its own process and print each metric by name."""
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited with {proc.returncode} and no result")
            ok = False
            continue
        res = json.loads(lines[-1])
        ok = ok and res["correct"]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric} = {v['value']:.6g} {v['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    try:
        prog = Program()
    except (RuntimeError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    allowed_cpus = len(os.sched_getaffinity(0))
    pinned_cpu = hostspeed.pin_to_one_cpu()
    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    try:
        if args.trace:
            res = traced_run(prog, wl, args.seed, work, OUT / "spans" / f"{tag}.csv.gz")
        else:
            res = timed_run(prog, wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": not res["problems"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": res["metrics"]}
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "argv_pg": wl.argv(round_seed(args.seed, 0), "pg", Path("OUT")),
              "environment": environment(allowed_cpus, pinned_cpu), "problems": res["problems"],
              "detail": res["detail"], "result": result}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
