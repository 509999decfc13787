#!/usr/bin/env python3
"""Print how PG's line-search trials fall over the steps of a sweep.

    python3 scripts/line_search_profile.py --scenario s2 --grid 0.02,0.1,0.5 \\
        --seed 77 --trials 12

Each (trial, lambda) instance is drawn as `sparsetls sweep-lambda` draws
it (xi 0.01, the master seed's stream for the scenario and trial) and
solved with pg_init and pg_step over its scheduled budget.  Only the
states are read: a step taken while state.replay_madds is set replays the
step before it (no trial runs); any other step is executed and runs
1 + state.backtracks_last trials.  Printed: the solves, executed and
replayed steps, trials, the trials past each step's first
prox_solver._STACK_FROM (those the line search evaluates as stacks of
halvings) with the steps that run them, the stacks run and how many of
them were cut at a support change (a stack ends before its first row
whose support differs from its first row's, and the next one starts
there), and a histogram of trials per executed step.  A step's stacks
are formed again by the solver's own prox_solver._halving_stack, from a
copy of the state the step started from, its step size (adaptive_step
on that state) and the gradient the step left in state.g_prev.

A bad --seed (outside [0, 2**64)), --trials (below 1) or --grid (empty,
not ascending, or a lambda that is not finite and positive) exits 2
naming its flag, before any solve.
"""

from __future__ import annotations

import argparse
import copy
import functools
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sparsetls import derive_stream, generate_instance, iteration_schedule, pg_init, pg_step  # noqa: E402
from sparsetls.cli import _grid, _typed  # noqa: E402
from sparsetls.kernel import require_count, require_lambda  # noqa: E402
from sparsetls.problems import SCENARIO_TAGS, scenario_config  # noqa: E402
from sparsetls.prox_solver import _STACK_FROM, _halving_stack, adaptive_step  # noqa: E402
from sparsetls.rng import require_u64  # noqa: E402


def stacks_cut(before, after) -> list[bool]:
    """For each stack of halvings the step from state `before` to state
    `after` ran, whether it was cut at a support change; the step's
    gradient is the one it left in after.g_prev."""
    mu = adaptive_step(before.dx, after.g_prev - before.g_prev, before.mu, before.dxdx)
    cut, lo = [], _STACK_FROM
    while lo <= after.backtracks_last:
        xn, _, was_cut = _halving_stack(before.x, after.g_prev, before.lam, mu * 0.5**lo, lo)
        cut.append(was_cut)
        lo += len(xn)
    return cut


def trials_per_step(kind: str, grid: list[float], seed: int,
                    trials: int) -> tuple[Counter, int, int, int, int]:
    """(histogram of trials per executed step, replayed steps, solves,
    stacks run, stacks cut at a support change)."""
    hist, replayed, solves, stacks, cuts = Counter(), 0, 0, 0, 0
    scen = scenario_config(kind, xi=0.01)
    for trial in range(trials):
        inst = generate_instance(scen, derive_stream(seed, SCENARIO_TAGS[kind], trial))
        for lam in grid:
            state = pg_init(inst.a, inst.b, lam)
            for _ in range(iteration_schedule(lam, kind) - 1):
                before = copy.copy(state)
                pg_step(state)
                if before.replay_madds:
                    replayed += 1
                    continue
                hist[1 + state.backtracks_last] += 1
                if state.backtracks_last >= _STACK_FROM:
                    cut = stacks_cut(before, state)
                    stacks += len(cut)
                    cuts += sum(cut)
            solves += 1
    return hist, replayed, solves, stacks, cuts


def report(hist: Counter, replayed: int, solves: int, stacks: int, cuts: int) -> list[str]:
    steps = sum(hist.values())
    total = sum(t * c for t, c in hist.items())
    past = sum((t - _STACK_FROM) * c for t, c in hist.items() if t > _STACK_FROM)
    long = sum(c for t, c in hist.items() if t > _STACK_FROM)
    lines = [
        f"solves {solves}",
        f"executed steps {steps}, replayed steps {replayed}",
        f"trials {total} ({total / max(steps, 1):.3f} per executed step)",
        f"trials past the {_STACK_FROM}th of their step {past} ({100 * past / max(total, 1):.1f}%), "
        f"in {long} steps ({long / max(solves, 1):.2f} per solve)",
        f"stacks {stacks}, {cuts} cut at a support change",
        "trials steps",
    ]
    lines += [f"{t:6d} {hist[t]:5d}" for t in sorted(hist)]
    return lines


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scenario", choices=["s1", "s2"], default="s2")
    # a string default goes through type= as a given value does
    ap.add_argument("--grid", type=_grid(require_lambda), default="0.02,0.1,0.5",
                    help="comma-separated lambda values")
    ap.add_argument("--seed", type=_typed("--seed", functools.partial(require_u64, name="seed"), int),
                    default=0, help="master seed")
    ap.add_argument("--trials", type=_typed("--trials", functools.partial(require_count, name="trials"), int),
                    default=12)
    args = ap.parse_args(argv)
    print("\n".join(report(*trials_per_step(args.scenario, args.grid, args.seed, args.trials))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
