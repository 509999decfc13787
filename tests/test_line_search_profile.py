"""scripts/line_search_profile.py on a small s1 sweep and one s2 solve."""

import importlib.util
from pathlib import Path

import pytest

from sparsetls import (derive_stream, generate_instance, iteration_schedule, pg_solve, prox_solver,
                       scenario_config)
from sparsetls.problems import SCENARIO_TAGS
from sparsetls.prox_solver import _STACK_FROM, _STACK_ROWS

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "line_search_profile.py"
spec = importlib.util.spec_from_file_location("line_search_profile", SCRIPT)
line_search_profile = importlib.util.module_from_spec(spec)
spec.loader.exec_module(line_search_profile)


def test_counts_add_up_over_a_small_sweep(capsys):
    grid = [0.1, 0.5]
    hist, replayed, solves, stacks, cuts = line_search_profile.trials_per_step("s1", grid, 0, 1)
    steps = sum(hist.values())
    assert solves == 2
    assert steps + replayed == sum(iteration_schedule(lam, "s1") - 1 for lam in grid)
    # the sweep has replayed steps and a step that reaches a stack
    assert replayed > 0 and max(hist) > _STACK_FROM
    # one stack per _STACK_ROWS trials (or fewer) past the _STACK_FROM-th
    assert stacks == sum(-(-(t - _STACK_FROM) // _STACK_ROWS) * c
                         for t, c in hist.items() if t > _STACK_FROM)
    assert 0 <= cuts <= stacks
    assert line_search_profile.main(["--scenario", "s1", "--grid", "0.1,0.5", "--trials", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    total = sum(t * c for t, c in hist.items())
    past = sum((t - _STACK_FROM) * c for t, c in hist.items() if t > _STACK_FROM)
    assert lines[:3] == ["solves 2", f"executed steps {steps}, replayed steps {replayed}",
                         f"trials {total} ({total / steps:.3f} per executed step)"]
    assert lines[3].startswith(f"trials past the {_STACK_FROM}th of their step {past} ")
    assert lines[4] == f"stacks {stacks}, {cuts} cut at a support change"
    assert [tuple(map(int, row.split())) for row in lines[6:]] == sorted(hist.items())


def test_finds_stacks_cut_at_a_support_change():
    # at lambda 5e-4 a few of the stacks (7 of 176 here) are cut at a
    # support change; the benchmark's lambdas, 0.02 to 0.5, cut none
    _, _, _, stacks, cuts = line_search_profile.trials_per_step("s2", [5e-4], 9, 1)
    assert 0 < cuts < stacks


def test_its_stacks_are_the_solvers(monkeypatch):
    # each stack pg_solve forms, and each the profiler forms again, goes
    # through prox_solver._halving_stack: (first trial, rows, cut) of
    # every call, in order, is the same on both sides
    stack = prox_solver._halving_stack

    def recording(calls):
        def halving_stack(x, g, lam, mu, backtracks):
            xn, support, cut = stack(x, g, lam, mu, backtracks)
            calls.append((backtracks, len(xn), cut))
            return xn, support, cut
        return halving_stack

    solver, profiler = [], []
    monkeypatch.setattr(prox_solver, "_halving_stack", recording(solver))
    inst = generate_instance(scenario_config("s2", xi=0.01), derive_stream(9, SCENARIO_TAGS["s2"], 0))
    pg_solve(inst.a, inst.b, 5e-4, iteration_schedule(5e-4, "s2"))
    monkeypatch.setattr(prox_solver, "_halving_stack", stack)
    monkeypatch.setattr(line_search_profile, "_halving_stack", recording(profiler))
    _, _, _, stacks, cuts = line_search_profile.trials_per_step("s2", [5e-4], 9, 1)
    assert stacks == len(solver) > 0 and cuts == sum(cut for _, _, cut in solver) > 0
    assert profiler == solver


@pytest.mark.parametrize("argv,message", [
    (["--seed", "-1"], "seed -1 is outside [0, 2**64)"),
    (["--grid", "0"], "lam must be positive and finite, got 0.0"),
    (["--grid", "abc"], "could not convert string to float: 'abc'"),
    (["--trials", "0"], "trials must be >= 1"),
    (["--trials", "-3"], "trials must be >= 1"),
])
def test_a_bad_flag_exits_2_before_any_solve(monkeypatch, capsys, argv, message):
    monkeypatch.setattr(line_search_profile, "trials_per_step", None)  # nothing may be solved
    with pytest.raises(SystemExit) as exited:
        line_search_profile.main(["--scenario", "s1", *argv])
    assert exited.value.code == 2
    flag = argv[0]
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"error: argument {flag}: bad {flag} value: {message}")
