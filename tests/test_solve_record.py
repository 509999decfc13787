"""No step of a solve writes an iterate it has returned.

SolveResult.from_states keeps each state's x as it is, with no copy, and
repeats the last computed cost and error for a state whose x is the
previous state's array; both rest on what these tests check over whole
schedules of both solvers.
"""

import pytest

from sparsetls.adcd import adcd_init, adcd_step
from sparsetls.experiments import iteration_schedule
from sparsetls.prox_solver import MAX_BACKTRACKS, pg_init, pg_step

SOLVES = [
    ("s1", 0, 0, 0.02), ("s1", 0, 0, 0.5), ("s2", 0, 0, 0.02), ("s2", 0, 0, 0.5),
    # PG stalls at the halving cap from iteration 117 on (see
    # test_prox_solver.py::TestStep::test_stall_at_the_halving_cap_is_a_fixed_point)
    ("s2", 17008008, 11, 0.02),
]
SOLVERS = {"pg": (pg_init, pg_step), "adcd": (adcd_init, adcd_step)}


def stepped(algo, inst, lam, iterations):
    """The states of one solve as pg_solve or adcd_solve step it: each
    step's x with a copy of its bytes taken when the step returned, and
    whether that x is the previous state's array."""
    init, step = SOLVERS[algo]
    state = init(inst.a, inst.b, lam)
    held = [(state.x, state.x.tobytes(), False)]
    for _ in range(iterations - 1 if algo == "pg" else iterations):
        before = state.x
        step(state)
        held.append((state.x, state.x.tobytes(), state.x is before))
    return state, held


@pytest.mark.parametrize("algo", ["pg", "adcd"])
@pytest.mark.parametrize("scenario, seed, trial, lam", SOLVES)
def test_no_step_writes_a_returned_iterate(make_instance, algo, scenario, seed, trial, lam):
    inst = make_instance(scenario, seed=seed, trial=trial)
    state, held = stepped(algo, inst, lam, iteration_schedule(lam, scenario))
    for k, (x, data, _) in enumerate(held):
        assert x.tobytes() == data, k
    # a state keeps the previous state's x only in a suffix of the solve:
    # PG from its first replayed step on (all but s1 at 0.02 replay), AD-CD
    # never
    kept = [same for _, _, same in held]
    first = kept.index(True) if True in kept else len(kept)
    assert all(kept[first:])
    assert (first < len(kept)) == (algo == "pg" and (scenario, lam) != ("s1", 0.02))
    if seed == 17008008 and algo == "pg":
        assert first == 116 and state.backtracks_last == MAX_BACKTRACKS
