"""No step of a solve writes an iterate it has returned, and the solve
record is reduced in blocks with the bytes of one stack.

SolveResult.from_states keeps each state's x as it is, with no copy, and
repeats the last computed cost and error for a state whose x is the
previous state's array; both rest on what the first test checks over whole
schedules of both solvers.  It reduces the iterates in blocks of
prox_solver._BLOCK rows as they arrive; the other tests hold its columns to
the bytes of one stack of every iterate (single_stack, the earlier
from_states verbatim) and its memory to O(block * n).
"""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from sparsetls import prox_solver
from sparsetls.adcd import adcd_init, adcd_solve, adcd_step
from sparsetls.experiments import iteration_schedule
from sparsetls.prox_solver import MAX_BACKTRACKS, SolveResult, pg_init, pg_solve, pg_step

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


def single_stack(states, ground_truth):
    """SolveResult.from_states as it was before it reduced in blocks: every
    distinct iterate kept to the end of the solve, then stacked once."""
    f, mu, backtracks, flops, rows = [], [], [], [], []
    for state in states:
        if not rows or state.x is not rows[-1]:
            rows.append(state.x)
        f.append(state.f)
        mu.append(state.mu)
        backtracks.append(state.backtracks_last)
        flops.append(state.flops)
    lam, xs, replayed = state.lam, np.array(rows), len(f) - len(rows)
    l1 = np.add.reduce(np.abs(xs), axis=1).tolist()
    cost = [fk + lam * nk for fk, nk in zip(f, l1)]
    cost += cost[-1:] * replayed
    sq_error = None
    if ground_truth is not None:
        d = xs - ground_truth
        sq_error = np.vecdot(d, d).tolist()
        sq_error += sq_error[-1:] * replayed
    return SolveResult(rows[-1], cost, f, mu, backtracks, flops, sq_error)


def snapshot(state):
    """What from_states reads of a state, taken when the step returned it
    (a solver steps one state object in place)."""
    return SimpleNamespace(x=state.x, f=state.f, mu=state.mu, backtracks_last=state.backtracks_last,
                           flops=state.flops, lam=state.lam)


def assert_same_bytes(got, want):
    assert got.x.tobytes() == want.x.tobytes()
    for name in ("cost", "f", "mu", "backtracks", "flops", "sq_error"):
        g, w = getattr(got, name), getattr(want, name)
        if w is None:
            assert g is None, name
            continue
        assert np.array(g).tobytes() == np.array(w).tobytes(), name
        assert [type(v) for v in g] == [type(v) for v in w], name


def both_ways(states, truth):
    """Feed the same states to from_states and to single_stack."""
    states = list(states)
    for t in (truth, None):
        assert_same_bytes(SolveResult.from_states(iter(states), t), single_stack(iter(states), t))


def stub_states(distinct, replayed, n=7, lam=0.03, seed=5):
    """distinct states, each with a new x, then `replayed` states that keep
    the last x, as a PG solve that replays from then on."""
    rng = np.random.default_rng(seed)
    states, x = [], None
    for k in range(distinct + replayed):
        if k < distinct:
            x = rng.standard_normal(n) * (rng.random(n) < 0.6)
        states.append(SimpleNamespace(x=x, f=float(rng.random()), mu=float(rng.random()),
                                      backtracks_last=int(rng.integers(4)), flops=100 * k, lam=lam))
    return states, rng.standard_normal(n)


class TestBlocks:
    def test_block_is_128_rows(self):
        assert prox_solver._BLOCK == 128

    @pytest.mark.parametrize("algo, scenario, seed, trial, lam", [
        # 2800 distinct iterates, 22 blocks
        ("adcd", "s1", 0, 0, 5e-4),
        ("pg", "s1", 0, 0, 5e-4), ("pg", "s2", 0, 0, 0.02), ("adcd", "s2", 0, 0, 0.02),
        # replays from iteration 117 on
        ("pg", "s2", 17008008, 11, 0.02),
    ])
    def test_whole_schedules_keep_the_bytes_of_one_stack(self, make_instance, algo, scenario, seed,
                                                         trial, lam):
        inst = make_instance(scenario, seed=seed, trial=trial)
        iterations = iteration_schedule(lam, scenario)
        init, step = SOLVERS[algo]
        state = init(inst.a, inst.b, lam)
        states = [] if algo == "adcd" else [snapshot(state)]
        while len(states) < iterations:
            step(state)
            states.append(snapshot(state))
        distinct = 1 + sum(s.x is not r.x for r, s in zip(states, states[1:]))
        if (algo, scenario) == ("adcd", "s1"):
            assert distinct == iterations == 2800
        both_ways(states, inst.x_true)
        solve = pg_solve if algo == "pg" else adcd_solve
        assert_same_bytes(solve(inst.a, inst.b, lam, iterations, inst.x_true),
                          single_stack(iter(states), inst.x_true))

    @pytest.mark.parametrize("distinct", [1, 2, 127, 128, 129, 255, 256, 257, 384])
    @pytest.mark.parametrize("replayed", [0, 1, 40])
    def test_replay_suffix_before_at_and_after_a_block_boundary(self, distinct, replayed):
        both_ways(*stub_states(distinct, replayed))

    def test_one_state(self):
        states, truth = stub_states(1, 0)
        res = SolveResult.from_states(iter(states), truth)
        assert len(res.cost) == 1 and res.x is states[0].x
        both_ways(states, truth)

    @pytest.mark.parametrize("truth", [None, np.ones(7)], ids=["no truth", "truth"])
    def test_empty_stream_raises(self, truth):
        with pytest.raises(ValueError, match="no state to record"):
            SolveResult.from_states(iter(()), truth)

    def test_memory_is_bounded_by_the_block(self):
        # 5000 distinct iterates of 200: one stack of them is 8 MB, and the
        # earlier from_states held three arrays of that size (about 24 MB);
        # in blocks the record holds O(block * n) of them at a time
        n, k = 200, 5000
        truth = np.ones(n)
        f = 0.5

        def states():
            for i in range(k):
                yield SimpleNamespace(x=np.full(n, i * 1e-3), f=f, mu=f, backtracks_last=0,
                                      flops=0, lam=0.1)

        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = SolveResult.from_states(states(), truth)
            kept, peak = (v - before for v in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(res.cost) == len(res.sq_error) == k
        assert peak < 1_000_000, peak
        # above the columns it returns, the record held about two stacks of
        # one block (the rows and their stack, then the stack and d)
        assert peak - kept < 3 * prox_solver._BLOCK * n * 8, (peak, kept)


def test_trace_of_a_long_solve_is_light(make_instance):
    # one slotted TraceRecord per iteration of a 3500-iteration s2 AD-CD
    # solve keeps about 0.43 MB; with a __dict__ per record it kept 0.60 MB
    inst = make_instance("s2")
    res = adcd_solve(inst.a, inst.b, 5e-4, iteration_schedule(5e-4, "s2"), inst.x_true)
    tracemalloc.start()
    try:
        trace = res.trace
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(trace) == 3500 and res.trace is trace
    assert kept < 500_000, kept
    last = trace[-1]
    assert not hasattr(last, "__dict__")
    assert (last.iteration, last.cost, last.f, last.sq_error) == (3500, res.cost[-1], res.f[-1],
                                                                   res.sq_error[-1])
    again = dataclasses.replace(last)
    assert again == last and hash(again) == hash(last) and again != trace[-2]
    with pytest.raises(dataclasses.FrozenInstanceError):
        last.cost = 0.0
