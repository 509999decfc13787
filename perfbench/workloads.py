"""Workload definitions and the timed round that runs them.

A round runs one workload's CLI command twice on the same master seed:
once with ``--algo pg`` and once with ``--algo adcd``.  The two halves
are timed apart from outside the program, so per-algorithm rates stay
measurable even if the program later merges its experiment loops or
batches trials.  Host-speed probes run around and inside each half (see
hostspeed.py).  The program receives only the generated arguments.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hostspeed import Speed

ALGORITHMS = ("pg", "adcd")

# Closed forms published in the package README, kept here so the checks
# never read the program's own schedule or dimensions.
SCHEDULE_ENDPOINTS = {"s1": (2800, 40), "s2": (3500, 50)}
DIMENSIONS = {"s1": (40, 20, 5), "s2": (200, 80, 20)}  # n, m, k
LAMBDA_MIN, LAMBDA_MAX = 5e-4, 1.0
XI = 0.01


def schedule(lam: float, scenario: str) -> int:
    """Log-linear iteration budget between the scenario's endpoints."""
    at_min, at_max = SCHEDULE_ENDPOINTS[scenario]
    if lam <= LAMBDA_MIN:
        return at_min
    if lam >= LAMBDA_MAX:
        return at_max
    t = math.log(lam / LAMBDA_MIN) / math.log(LAMBDA_MAX / LAMBDA_MIN)
    return int(round(math.exp(math.log(at_min) + t * math.log(at_max / at_min))))


def default_grid() -> tuple[float, ...]:
    """The CLI's default lambda grid: 25 log-spaced values on [5e-4, 1]."""
    return tuple(np.geomspace(LAMBDA_MIN, LAMBDA_MAX, 25).tolist())


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                  # "trace" or "sweep-lambda"
    scenario: str
    pg_trials: int
    adcd_trials: int
    grid: tuple[float, ...]
    pass_grid: bool               # False: rely on the CLI's default grid

    @property
    def csv_name(self) -> str:
        return "trace.csv" if self.command == "trace" else "lambda_sweep.csv"

    def argv(self, seed: int, algo: str, out: Path) -> list[str]:
        argv = [self.command, "--scenario", self.scenario, "--xi", repr(XI),
                "--trials", str(self.trials(algo)), "--seed", str(seed),
                "--algo", algo, "--out", str(out)]
        if self.command == "trace":
            argv += ["--lambda", repr(self.grid[0])]
        elif self.pass_grid:
            argv += ["--grid", ",".join(repr(v) for v in self.grid)]
        return argv

    def trials(self, algo: str) -> int:
        return self.pg_trials if algo == "pg" else self.adcd_trials

    def cells(self, algo: str) -> int:
        return self.trials(algo) * len(self.grid)

    def iterations(self, algo: str) -> int:
        return self.trials(algo) * sum(schedule(lam, self.scenario) for lam in self.grid)


# Why each workload exists, and which ones BENCHMARK.json gates, is
# recorded in README.md.
# The PG half runs more trials than the AD-CD half because a PG iteration
# is 10x (s1) to 60x (s2) cheaper, and the first adcd_trials instances are
# solved by both algorithms.  Halves are kept as short as the workload
# allows (one AD-CD trial), so that the probes around and inside a half
# see the host speed it ran at, and a run holds many rounds.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("s1-lambda-sweep", "sweep-lambda", "s1", 2, 1, default_grid(), False),
        Workload("s1-trace", "trace", "s1", 10, 1, (0.02,), False),
        Workload("s2-lambda-sweep", "sweep-lambda", "s2", 12, 1, (0.02, 0.1, 0.5), True),
    )
}


def round_seed(seed: int, index: int) -> int:
    """Master seed for round `index` of a run: distinct instances per round."""
    return seed * 1000 + index


@dataclass
class Half:
    algo: str
    seconds: float        # wall time, less the probes taken inside it
    slowdown: float       # the host's slowdown around it, from the probes
    exit_code: int
    csv: Path

    @property
    def scaled_seconds(self) -> float:
        """Wall time at the reference host speed."""
        return self.seconds / self.slowdown


@dataclass
class Round:
    seed: int
    halves: dict[str, Half]

    @property
    def seconds(self) -> float:
        return sum(h.seconds for h in self.halves.values())

    @property
    def scaled_seconds(self) -> float:
        return sum(h.scaled_seconds for h in self.halves.values())


def run_round(cli_main, wl: Workload, seed: int, out: Path, probe_inside: bool = True) -> Round:
    """Run the PG half, then the AD-CD half, each timed from outside and
    scaled by the host-speed probes taken around it and, if
    `probe_inside`, while it runs."""
    speed = Speed()
    halves = {}
    for algo in ALGORITHMS:
        half_dir = out / algo
        shutil.rmtree(half_dir, ignore_errors=True)
        argv = wl.argv(seed, algo, half_dir)
        sink = io.StringIO()  # the CLI prints the CSV path on stdout
        with contextlib.redirect_stdout(sink):
            rc, dt, slowdown = speed.timed(lambda: cli_main(argv), probe_inside)
        halves[algo] = Half(algo, dt, slowdown, rc, half_dir / wl.csv_name)
    return Round(seed, halves)
