from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparsetls import (
    BacktrackingError,
    TraceRecord,
    adaptive_step,
    iteration_schedule,
    line_search_ok,
    pg_init,
    pg_solve,
    pg_step,
    squared_error,
)
from sparsetls import prox_solver
from sparsetls.kernel import gradient, quotient, shrink
from sparsetls.prox_solver import MAX_BACKTRACKS


class TestInit:
    def test_start_step_is_fixed(self, tiny_system):
        a, b = tiny_system
        state = pg_init(a, b, lam=1.0)
        assert state.mu == 0.2

    def test_zero_rhs_gives_zero_first_iterate(self):
        a = np.eye(3)
        state = pg_init(a, np.zeros(3), lam=0.5)
        assert not state.x.any()
        assert state.f == 0.0

    def test_hand_evaluated_first_iterate(self, tiny_system):
        # g0 = [-2, 0], z = 0.4 * atb = [0.4, 0], threshold 0.2 -> x1 = [0.2, 0]
        a, b = tiny_system
        state = pg_init(a, b, lam=1.0)
        assert np.array_equal(state.g_prev, np.array([-2.0, 0.0]))
        assert np.array_equal(state.x, np.array([0.2, 0.0]))
        assert state.n == 1
        assert np.array_equal(state.ata_rows.rows, a.T @ a)
        assert np.array_equal(state.atb, a.T @ b)
        assert state.b is b and state.lam == 1.0

    def test_state_invariants_after_init(self, s1_instance):
        state = pg_init(s1_instance.a, s1_instance.b, lam=0.02)
        x = state.x
        assert abs(state.y - 1.0 / (float(x @ x) + 1.0)) < 1e-12
        resid = s1_instance.a @ x - s1_instance.b
        f = state.y * float(resid @ resid)
        assert abs(state.f - f) <= 1e-10 * max(1.0, abs(f))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pg_init(np.eye(2), np.zeros(3), lam=1.0)

    def test_rejects_nonpositive_lam(self, tiny_system):
        a, b = tiny_system
        with pytest.raises(ValueError):
            pg_init(a, b, lam=0.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_rejects_bad_lam_before_any_iteration(self, s1_instance, lam):
        # NaN passes a plain `lam <= 0` test and would surface only as a
        # BacktrackingError once the halving cap is exhausted
        with pytest.raises(ValueError, match="^lam must be positive and finite"):
            pg_solve(s1_instance.a, s1_instance.b, lam, iterations=10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_input(self, s1_instance, bad):
        a, b = s1_instance.a.copy(), s1_instance.b.copy()
        a[3, 5] = bad
        with pytest.raises(ValueError, match="^a contains non-finite"):
            pg_init(a, s1_instance.b, lam=0.02)
        b[7] = bad
        with pytest.raises(ValueError, match="^b contains non-finite"):
            pg_solve(s1_instance.a, b, 0.02, iterations=10)

    def test_support_invariant_and_row_copies(self, s1_instance):
        a, b = s1_instance.a, s1_instance.b
        # at 0.5 a step returns x itself after 39 steps, so the steps
        # replayed after it are checked too
        for lam in (0.02, 0.5):
            state = pg_init(a, b, lam)
            # the gradient gathers rows of ata as its columns
            ata = state.ata_rows.rows
            assert np.array_equal(ata, ata.T)
            assert np.array_equal(ata, a.T @ a)
            assert state.a_rows.rows.flags.c_contiguous
            assert np.array_equal(state.a_rows.rows, a.T)
            check_carried(state, a, b, np.zeros_like(state.x))
            for _ in range(60):
                x, y, f, support = state.x, state.y, state.f, state.support
                pg_step(state)
                # each kept block is its matrix's rows at the support of its key
                for held in (state.ata_rows, state.a_rows):
                    key = np.frombuffer(held.key, dtype=np.intp)
                    assert held.block.tobytes() == held.rows[key].tobytes()
                check_carried(state, a, b, x)
                g = gradient(a.T @ a, a.T @ b, x, y, f, support)
                assert state.g_prev.tobytes() == g.tobytes()
            assert bool(state.replay_madds) == (lam == 0.5)


def check_carried(state, a, b, x_prev):
    """Each value pg_step carries to the next step has the bytes of
    computing it again from the state's x and x_prev."""
    x = state.x
    support = x.nonzero()[0]
    assert state.support.tobytes() == support.tobytes()
    assert state.xs.tobytes() == x[support].tobytes()
    _, y, f = quotient(a.T, b, x, support)
    assert np.float64(state.y).tobytes() == np.float64(y).tobytes()
    assert np.float64(state.f).tobytes() == np.float64(f).tobytes()
    dx = x - x_prev
    assert state.dx.tobytes() == dx.tobytes()
    assert np.float64(state.dxdx).tobytes() == np.float64(dx.dot(dx)).tobytes()


class TestBoundSystem:
    """pg_init binds (a, b, lam) to the state, and pg_step reads nothing
    else."""

    def test_init_rejects_bad_system(self, bad_system):
        with pytest.raises(ValueError):
            pg_init(*bad_system)

    def test_alternating_states_match_each_stepped_alone(self, make_instance):
        # two systems of one shape, so a step that read the other state's
        # system would run and give other bytes
        systems = [(make_instance("s1", trial=0), 0.02), (make_instance("s1", trial=3), 0.1)]

        def record(state):
            cost = state.f + state.lam * float(np.abs(state.x).sum())
            return state.x.tobytes(), cost, state.flops

        alone = []
        for inst, lam in systems:
            state = pg_init(inst.a, inst.b, lam)
            alone.append([record(pg_step(state)) for _ in range(80)])
        states = [pg_init(inst.a, inst.b, lam) for inst, lam in systems]
        turns = [[record(pg_step(state)) for state in states] for _ in range(80)]
        assert [list(run) for run in zip(*turns)] == alone

    def test_alternating_solves_match_cold_solves(self, make_instance):
        # each init replaces the other system's kept a^T a
        systems = [make_instance("s2", trial=0), make_instance("s2", trial=3)]
        cold = [columns(cold_solve(inst.a, inst.b, 0.1, 120)) for inst in systems]
        for _ in range(2):
            assert [columns(pg_solve(inst.a, inst.b, 0.1, 120)) for inst in systems] == cold


def columns(res):
    """Every column of a SolveResult, with x as bytes."""
    return (res.x.tobytes(), res.cost, res.f, res.mu, res.backtracks, res.flops, res.sq_error)


def cold_solve(a, b, lam, iterations, truth=None):
    """pg_solve with no kept a^T a: the record is emptied first."""
    prox_solver._last = None
    return pg_solve(a, b, lam, iterations, ground_truth=truth)


class TestProductsRecord:
    """pg_init reuses the last matrix's a^T a and a^T only for a matrix of
    the same shape, strides and bytes, and a reused pair gives every bit
    of a cold solve."""

    def test_equal_bytes_in_a_new_array_are_a_hit(self, s1_instance):
        a, b = s1_instance.a, s1_instance.b
        first = pg_init(a, b, 0.02)
        again = pg_init(a.copy(), b, 0.1)
        assert again.ata_rows.rows is first.ata_rows.rows
        assert again.a_rows.rows is first.a_rows.rows
        # the states share the matrices, not their kept blocks
        assert again.ata_rows is not first.ata_rows and again.a_rows is not first.a_rows

    def test_write_in_place_is_a_miss(self, s1_instance):
        a, b = s1_instance.a.copy(), s1_instance.b
        first = pg_init(a, b, 0.02)
        held = first.ata_rows.rows
        a[0, 0] += 0.25
        warm = pg_init(a, b, 0.02)
        assert warm.ata_rows.rows is not held
        assert warm.ata_rows.rows.tobytes() == (a.T @ a).tobytes()
        assert warm.a_rows.rows.tobytes() == np.ascontiguousarray(a.T).tobytes()
        assert first.ata_rows.rows.tobytes() == (s1_instance.a.T @ s1_instance.a).tobytes()
        warm_res = pg_solve(a, b, 0.02, 200)
        assert columns(warm_res) == columns(cold_solve(a, b, 0.02, 200))

    def test_a_signed_zero_is_a_miss(self):
        # -0.0 == 0.0, but the bytes differ, and so may a^T a's
        a, b = np.eye(3), np.array([1.0, 0.5, 0.0])
        first = pg_init(a, b, 0.1)
        flipped = a.copy()
        flipped[0, 1] = -0.0
        assert pg_init(flipped, b, 0.1).ata_rows.rows is not first.ata_rows.rows

    def test_same_bytes_reshaped_are_a_miss(self, s1_instance):
        a = s1_instance.a
        m, n = a.shape
        first = pg_init(a, s1_instance.b, 0.02)
        for shape in ((n, m), (m // 2, 2 * n)):
            other = a.reshape(shape)
            state = pg_init(other, np.ones(shape[0]), 0.02)
            assert state.ata_rows.rows is not first.ata_rows.rows
            assert state.ata_rows.rows.tobytes() == (other.T @ other).tobytes()
        # and the transpose: the bytes of a.T's memory, other strides
        state = pg_init(a.T, np.ones(n), 0.02)
        assert state.ata_rows.rows.tobytes() == (a @ a.T).tobytes()

    def test_other_layout_is_a_miss(self, s1_instance):
        # equal values in another memory layout may take another BLAS path
        a, b = s1_instance.a, s1_instance.b
        first = pg_init(a, b, 0.02)
        for other in (np.asfortranarray(a), np.repeat(a, 2, axis=1)[:, ::2]):
            assert np.array_equal(other, a)
            state = pg_init(other, b, 0.02)
            assert state.ata_rows.rows is not first.ata_rows.rows
            assert state.ata_rows.rows.tobytes() == (other.T @ other).tobytes()

    def test_lambda_sweep_warm_and_cold(self, make_instance):
        # the shape of a lambda sweep: one instance, one solve per lambda
        for scenario in ("s1", "s2"):
            inst = make_instance(scenario, seed=5, trial=1)
            grid = [5e-4, 0.02, 0.1, 0.5]
            iters = {lam: min(iteration_schedule(lam, scenario), 300) for lam in grid}
            prox_solver._last = None
            warm = [columns(pg_solve(inst.a, inst.b, lam, iters[lam], ground_truth=inst.x_true))
                    for lam in grid]
            cold = [columns(cold_solve(inst.a, inst.b, lam, iters[lam], inst.x_true))
                    for lam in grid]
            assert warm == cold, scenario

    def test_record_is_dropped_with_its_matrix(self, s1_instance):
        a = s1_instance.a.copy()
        pg_init(a, s1_instance.b, 0.02)
        assert prox_solver._last is not None
        del a
        assert prox_solver._last is None


class TestAdaptiveStep:
    def test_aligned_vectors_use_minimum_residual_value(self):
        # mu_sd = 0.5, mu_mr = 0.5, ratio 1 > 0.5
        mu = adaptive_step(np.array([1.0, 0.0]), np.array([2.0, 0.0]), mu_prev=0.3)
        assert mu == 0.5

    def test_otherwise_branch(self):
        # mu_sd = 1, mu_mr = 0.5, ratio exactly 0.5 -> mu_sd - mu_mr / 2
        mu = adaptive_step(np.array([1.0, 0.0]), np.array([1.0, 1.0]), mu_prev=0.3)
        assert mu == 0.75

    def test_negative_result_falls_back_to_previous(self):
        mu = adaptive_step(np.array([1.0, 0.0]), np.array([-1.0, 0.0]), mu_prev=0.3)
        assert mu == 0.3

    def test_zero_denominators_fall_back(self):
        dx = np.array([1.0, 0.0])
        assert adaptive_step(dx, np.zeros(2), mu_prev=0.7) == 0.7
        assert adaptive_step(dx, np.array([0.0, 1.0]), mu_prev=0.7) == 0.7

    @given(
        arrays(np.float64, 4, elements=st.floats(-10, 10, allow_subnormal=False)),
        arrays(np.float64, 4, elements=st.floats(-10, 10, allow_subnormal=False)),
        st.floats(1e-6, 10),
    )
    def test_always_positive_and_finite(self, dx, dg, mu_prev):
        import math

        mu = adaptive_step(dx, dg, mu_prev)
        assert mu > 0.0 and math.isfinite(mu)


class TestLineSearch:
    def test_zero_step_requires_strict_decrease(self):
        dx = np.zeros(2)
        g = np.array([1.0, 1.0])
        assert not line_search_ok(1.0, 1.0, dx, g, mu=0.1)
        assert line_search_ok(0.999, 1.0, dx, g, mu=0.1)

    def test_accepting_case(self):
        # rhs = 1 - 0.1 + 0.05 = 0.95 > 0.5
        ok = line_search_ok(0.5, 1.0, np.array([0.1, 0.0]), np.array([-1.0, 0.0]), mu=0.1)
        assert ok

    def test_rejecting_case(self):
        ok = line_search_ok(1.2, 1.0, np.array([0.1, 0.0]), np.array([-1.0, 0.0]), mu=0.1)
        assert not ok


def straight_line_two_by_two(a, b, lam):
    """Independent re-implementation of init plus one iteration, scalar style."""
    atb = a.T @ b
    ata = a.T @ a
    x0 = np.zeros(2)
    g0 = -2.0 * atb
    mu0 = 0.2
    x1 = shrink(x0 - mu0 * g0, mu0 * lam)
    y1 = 1.0 / (x1 @ x1 + 1.0)
    f1 = y1 * float((a @ x1 - b) @ (a @ x1 - b))

    g1 = 2.0 * y1 * (ata @ x1 - atb - f1 * x1)
    dx = x1 - x0
    dg = g1 - g0
    s = float(dx @ dg)
    if s == 0.0 or float(dg @ dg) == 0.0:
        mu = mu0
    else:
        mu_sd = float(dx @ dx) / s
        mu_mr = s / float(dg @ dg)
        mu = mu_mr if mu_mr / mu_sd > 0.5 else mu_sd - mu_mr / 2.0
        if mu <= 0.0:
            mu = mu0
    while True:
        x2 = shrink(x1 - mu * g1, mu * lam)
        y2 = 1.0 / (x2 @ x2 + 1.0)
        f2 = y2 * float((a @ x2 - b) @ (a @ x2 - b))
        d = x2 - x1
        if f2 < f1 + float(d @ g1) + float(d @ d) / (2.0 * mu):
            return x2, y2, f2, mu
        mu /= 2.0


class TestStep:
    def test_one_step_matches_straight_line_oracle(self, tiny_system):
        a, b = tiny_system
        state = pg_init(a, b, lam=1.0)
        pg_step(state)
        x2, y2, f2, mu = straight_line_two_by_two(a, b, 1.0)
        assert np.max(np.abs(state.x - x2)) < 1e-14
        assert abs(state.f - f2) < 1e-14
        assert abs(state.mu - mu) < 1e-14
        assert state.backtracks_last > 0  # this case needs halvings

    def test_exact_fixed_point_is_preserved(self):
        # b = 0 makes x = 0 a stationary point: step must accept it unchanged
        a = np.eye(2)
        b = np.zeros(2)
        state = pg_init(a, b, lam=0.5)
        f_before = state.f
        pg_step(state)
        assert not state.x.any()
        assert state.f == f_before

    def test_cost_non_increasing_on_instance(self, s1_instance):
        res = pg_solve(s1_instance.a, s1_instance.b, 0.02, 356)
        costs = [rec.cost for rec in res.trace]
        for prev, cur in zip(costs, costs[1:]):
            assert cur <= prev + 1e-12 * max(1.0, prev)

    def test_inconsistent_state_hits_backtrack_cap(self):
        # a wildly wrong y makes the cached gradient disagree with the true
        # cost, so no halving can satisfy the decrease test
        a = np.eye(2)
        b = np.array([1.0, 0.2])
        state = pg_init(a, b, lam=1.0)
        state.y = 1e9
        with pytest.raises(BacktrackingError):
            pg_step(state)

    def test_stall_at_the_halving_cap_is_a_fixed_point(self, make_instance):
        # s2, seed 17008008, trial 11, lambda 0.02: at iteration 116 a zero
        # coordinate's gradient is above lambda by 6.4e-9 relative, so
        # every trial moves it alone and f_next misses the strict test by
        # rounding until the halvings run out.  The step keeps x, and the
        # steps after it replay it with the columns of executing it.
        inst = make_instance("s2", seed=17008008, trial=11)
        lam = 0.02
        iters = iteration_schedule(lam, "s2")
        state, executed = pg_init(inst.a, inst.b, lam), pg_init(inst.a, inst.b, lam)
        stalled = []
        for _ in range(iters - 1):
            x = state.x.copy()
            pg_step(state)
            executed.replay_madds = executed.replay_backtracks = 0
            pg_step(executed)
            assert state.x.tobytes() == executed.x.tobytes()
            assert (state.f, state.mu, state.backtracks_last, state.flops) == (
                executed.f, executed.mu, executed.backtracks_last, executed.flops)
            if state.backtracks_last == MAX_BACKTRACKS:
                assert state.x.tobytes() == x.tobytes()
                stalled.append(state.n)
        assert stalled == list(range(117, iters + 1))
        res = pg_solve(inst.a, inst.b, lam, iters)
        assert len(res.cost) == iters
        for prev, cur in zip(res.cost, res.cost[1:]):
            assert cur <= prev + 1e-12 * max(1.0, prev)

    def test_accepted_steps_satisfy_condition_post_hoc(self, s1_instance):
        a, b = s1_instance.a, s1_instance.b
        state = pg_init(a, b, lam=0.02)
        f_prev = state.f
        for _ in range(80):
            pg_step(state)
            dx = state.dx
            if dx.any():
                rhs = f_prev + float(dx @ state.g_prev) + float(dx @ dx) / (2.0 * state.mu)
                assert state.f < rhs
            f_prev = state.f


def reference_init(a, b, lam):
    """pg_init written the plain way: column gathers, @ and np.flatnonzero."""
    m, n = a.shape
    ata = a.T @ a
    atb = a.T @ b
    x0 = np.zeros(n)
    g0 = -2.0 * atb
    x1 = shrink(x0 - 0.2 * g0, 0.2 * lam)
    support = np.flatnonzero(x1)
    ax1 = a[:, support] @ x1[support] if support.size else np.zeros(m)
    y1 = 1.0 / (float(x1 @ x1) + 1.0)
    resid = ax1 - b
    f1 = y1 * float(resid @ resid)
    madds = n * n * m + n * m + 4 * n + m * int(support.size) + 2 * m
    return dict(x_prev=x0, x=x1, g_prev=g0, mu=0.2, y=y1, f=f1, backtracks=0, madds=madds)


def reference_step(st, ata, atb, a, b, lam):
    """One pg_step written the plain way, on a dict state (in place)."""
    m, n = a.shape
    x, y, f = st["x"], st["y"], st["f"]
    support = np.flatnonzero(x)
    atax = ata[:, support] @ x[support] if support.size else np.zeros(n)
    g = (2.0 * y) * (atax - atb - f * x)
    madds = n * int(support.size) + 3 * n + 5 * n
    dx = x - st["x_prev"]
    dg = g - st["g_prev"]
    mu = st["mu"]
    s, gg = float(dx @ dg), float(dg @ dg)
    if s != 0.0 and gg != 0.0:
        mu_sd, mu_mr = float(dx @ dx) / s, s / gg
        if mu_sd == 0.0 or mu_mr / mu_sd > 0.5:
            cand = mu_mr
        else:
            cand = mu_sd - 0.5 * mu_mr
        if cand > 0.0 and np.isfinite(cand):
            mu = cand
    backtracks = 0
    while True:
        x_next = shrink(x - mu * g, mu * lam)
        support = np.flatnonzero(x_next)
        ax = a[:, support] @ x_next[support] if support.size else np.zeros(m)
        y_next = 1.0 / (float(x_next @ x_next) + 1.0)
        resid = ax - b
        f_next = y_next * float(resid @ resid)
        step = x_next - x
        madds += 6 * n + m * int(support.size) + 2 * m
        if f_next < f + float(step @ g) + float(step @ step) / (2.0 * mu) or not np.any(step):
            break
        mu *= 0.5
        backtracks += 1
    st.update(x_prev=x, x=x_next, g_prev=g, mu=mu, y=y_next, f=f_next, backtracks=backtracks)
    st["madds"] += madds


class TestBitParity:
    """pg_init and pg_step against the plain reference, bit for bit."""

    @pytest.mark.parametrize("scenario", ["s1", "s2"])
    @pytest.mark.parametrize("lam", [5e-4, 0.02, 0.5])
    def test_lockstep_with_reference(self, make_instance, scenario, lam):
        inst = make_instance(scenario, seed=11, trial=2)
        a, b = inst.a, inst.b
        state = pg_init(a, b, lam)
        ref = reference_init(a, b, lam)
        ata, atb = a.T @ a, a.T @ b
        assert np.array_equal(state.x, ref["x"])
        assert (state.y, state.f, state.flops) == (ref["y"], ref["f"], ref["madds"])
        for it in range(150):
            pg_step(state)
            reference_step(ref, ata, atb, a, b, lam)
            assert np.array_equal(state.x, ref["x"]), it
            assert state.y == ref["y"] and state.f == ref["f"] and state.mu == ref["mu"], it
            assert state.backtracks_last == ref["backtracks"], it
            assert state.flops == ref["madds"], it


# pg_step with the gradient and quotient it called before the support
# blocks were kept, copied verbatim with the gather they call (renamed
# only), as the bit-for-bit reference: keeping a block changes execution
# only.  The state is pg_init's, with a_rows the plain contiguous copy.
# The multiply-adds are counted on an int: the gradient's charge
# (n nnz + 3n) is added where the gradient is called.


@dataclass
class GatherState:
    x_prev: np.ndarray
    x: np.ndarray
    dx: np.ndarray
    g_prev: np.ndarray
    mu: float
    y: float
    f: float
    n: int
    support: np.ndarray
    a_rows: np.ndarray
    flops: int = 0
    backtracks_last: int = 0


def gather_support_matvec(rows: np.ndarray, x: np.ndarray, support: np.ndarray) -> np.ndarray:
    if support.size:
        return rows[support].T @ x[support]
    return np.zeros(rows.shape[1])


def gather_quotient(
    rows: np.ndarray, b: np.ndarray, x: np.ndarray, support: np.ndarray
) -> tuple[np.ndarray, float, float]:
    resid = gather_support_matvec(rows, x, support) - b
    y = 1.0 / (float(x.dot(x)) + 1.0)
    return resid, y, y * float(resid.dot(resid))


def gather_gradient(
    ata: np.ndarray,
    atb: np.ndarray,
    x: np.ndarray,
    y: float,
    f: float,
    support: Optional[np.ndarray] = None,
) -> np.ndarray:
    n = x.shape[0]
    if ata.shape != (n, n) or atb.shape != (n,):
        raise ValueError(f"dimension mismatch: ata {ata.shape}, atb {atb.shape}, x {x.shape}")
    if support is None:
        support = x.nonzero()[0]
    atax = gather_support_matvec(ata, x, support)
    return (2.0 * y) * (atax - atb - f * x)


def gather_pg_step(
    state: GatherState,
    ata: np.ndarray,
    atb: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    lam: float,
) -> GatherState:
    m, n = a.shape
    x = state.x
    g = gather_gradient(ata, atb, x, state.y, state.f, state.support)
    state.flops += n * int(state.support.size) + 3 * n  # the gradient's
    mu = adaptive_step(state.dx, g - state.g_prev, state.mu)
    # the counted cost of dx and dg (2n) and of the step size (3n), then of
    # each line-search trial, charged once after the accepted trial
    madds = 5 * n

    a_rows = state.a_rows
    backtracks = 0
    while True:
        x_next = shrink(x - mu * g, mu * lam)
        support = x_next.nonzero()[0]
        _, y_next, f_next = gather_quotient(a_rows, b, x_next, support)
        step = x_next - x
        madds += 6 * n + m * support.size + 2 * m
        if line_search_ok(f_next, state.f, step, g, mu) or not step.any():
            break
        mu *= 0.5
        backtracks += 1
        if backtracks > MAX_BACKTRACKS:
            raise BacktrackingError(
                f"line search failed {backtracks} halvings at iteration {state.n} "
                f"(mu={mu:.3e}, f={state.f:.6e}, f_next={f_next:.6e}); "
                "gradient and cost are inconsistent"
            )

    state.flops += madds
    state.x_prev = x
    state.dx = step
    state.g_prev = g
    state.x = x_next
    state.support = support
    state.y = y_next
    state.f = f_next
    state.mu = mu
    state.n += 1
    state.backtracks_last = backtracks
    return state


class TestBitParityWithGatherEveryCall:
    """pg_step, which keeps its support blocks, against the copy above,
    which gathers on every call."""

    @pytest.mark.parametrize("scenario", ["s1", "s2"])
    @pytest.mark.parametrize("lam", [5e-4, 0.02, 0.1, 0.5, 1.0])
    def test_lockstep(self, make_instance, scenario, lam):
        for trial in (0, 1):
            inst = make_instance(scenario, seed=9, trial=trial)
            a, b = inst.a, inst.b
            state = pg_init(a, b, lam)
            ata, atb = a.T @ a, a.T @ b
            ref = GatherState(
                x_prev=np.zeros_like(state.x), x=state.x.copy(), dx=state.dx.copy(),
                g_prev=state.g_prev.copy(), mu=state.mu, y=state.y, f=state.f, n=state.n,
                support=state.support.copy(), a_rows=state.a_rows.rows.copy(),
                flops=state.flops,
            )
            for it in range(300):
                pg_step(state)
                gather_pg_step(ref, ata, atb, a, b, lam)
                assert state.x.tobytes() == ref.x.tobytes(), it
                cost = state.f + lam * float(np.abs(state.x).sum())
                ref_cost = ref.f + lam * float(np.abs(ref.x).sum())
                assert (cost, state.f, state.mu) == (ref_cost, ref.f, ref.mu), it
                assert state.backtracks_last == ref.backtracks_last, it
                assert state.flops == ref.flops, it


class TestFixedPointReplay:
    """pg_step, which replays a step that returned x itself instead of
    executing it, against the gather copy above, which executes every
    step, over each case's whole scheduled budget."""

    @pytest.mark.parametrize("scenario", ["s1", "s2"])
    def test_lockstep_over_full_schedule(self, make_instance, scenario):
        replayed = 0
        for lam in (5e-4, 0.02, 0.1, 0.5, 1.0):
            for trial in (0, 1):
                inst = make_instance(scenario, seed=9, trial=trial)
                a, b = inst.a, inst.b
                state = pg_init(a, b, lam)
                ata, atb = a.T @ a, a.T @ b
                ref = GatherState(
                    x_prev=np.zeros_like(state.x), x=state.x.copy(), dx=state.dx.copy(),
                    g_prev=state.g_prev.copy(), mu=state.mu, y=state.y, f=state.f, n=state.n,
                    support=state.support.copy(), a_rows=state.a_rows.rows.copy(),
                    flops=state.flops,
                )
                for it in range(iteration_schedule(lam, scenario) - 1):
                    x = state.x
                    pg_step(state)
                    # an executed step binds a new x; a replayed one
                    # writes no field of the state
                    replayed += state.x is x
                    gather_pg_step(ref, ata, atb, a, b, lam)
                    case = (lam, trial, it)
                    assert state.x.tobytes() == ref.x.tobytes(), case
                    cost = state.f + lam * float(np.abs(state.x).sum())
                    ref_cost = ref.f + lam * float(np.abs(ref.x).sum())
                    assert (cost, state.f, state.mu) == (ref_cost, ref.f, ref.mu), case
                    assert state.backtracks_last == ref.backtracks_last, case
                    assert state.flops == ref.flops, case
                    assert state.n == ref.n, case
        assert replayed > 0, "no step was replayed, so the lockstep shows nothing"


def first_fixed_point(a, b, lam, iterations):
    """The 0-based column index of the first step that returned x itself
    (zero displacement), found by executing the steps and reading dx;
    None when no step within the budget did."""
    state = pg_init(a, b, lam)
    for index in range(1, iterations):
        pg_step(state)
        if not state.dx.any():
            return index
    return None


class TestFixedPointClosedForm:
    """After the first step that returns x itself, every column is the
    closed form of a fixed point: the values repeat, no halving, and
    (n + m) nnz + 14n + 2m multiply-adds per iteration."""

    def test_hand_case_zero_rhs(self):
        # x stays 0 from x_1 on; init charges n^2 m + n m + 4n + 2m = 24
        # and each step 14n + 2m = 32 (nnz = 0)
        a, b = np.eye(2), np.zeros(2)
        res = pg_solve(a, b, 0.5, 6, ground_truth=np.zeros(2))
        assert first_fixed_point(a, b, 0.5, 6) == 1
        assert res.cost == [0.0] * 6 and res.f == [0.0] * 6
        assert res.mu == [0.2] * 6 and res.sq_error == [0.0] * 6
        assert res.backtracks == [0] * 6
        assert res.flops == [24, 56, 88, 120, 152, 184]

    @pytest.mark.parametrize("scenario, lam", [("s1", 0.02), ("s1", 1.0), ("s2", 0.1)])
    def test_columns_after_first_zero_step(self, make_instance, scenario, lam):
        inst = make_instance(scenario, seed=9, trial=1)
        a, b = inst.a, inst.b
        m, n = a.shape
        iterations = iteration_schedule(lam, scenario)
        k = first_fixed_point(a, b, lam, iterations)
        assert k is not None and k < iterations - 1, "no replayed iteration to check"
        res = pg_solve(a, b, lam, iterations, ground_truth=inst.x_true)
        nnz = int(np.count_nonzero(res.x))
        for column in (res.cost, res.f, res.mu, res.sq_error):
            assert column[k:] == [column[k]] * (iterations - k)
        assert res.backtracks[k + 1:] == [0] * (iterations - k - 1)
        per_iteration = (n + m) * nnz + 14 * n + 2 * m
        assert [later - earlier for earlier, later in zip(res.flops[k:], res.flops[k + 1:])] == [
            per_iteration
        ] * (iterations - k - 1)


class TestStepCharge:
    """What pg_step adds to state.flops, against the cost model written
    out from the supports before and after each step."""

    @pytest.mark.parametrize("scenario", ["s1", "s2"])
    def test_one_trial_and_replayed_steps_over_whole_solves(self, make_instance, scenario):
        executed = replayed = 0
        for lam in (5e-4, 0.02, 0.1, 0.5, 1.0):
            inst = make_instance(scenario, seed=9, trial=0)
            m, n = inst.a.shape
            state = pg_init(inst.a, inst.b, lam)
            for it in range(iteration_schedule(lam, scenario) - 1):
                x, before = state.x, state.flops
                nnz_before = int(np.count_nonzero(x))
                pg_step(state)
                spent = state.flops - before
                nnz_after = int(np.count_nonzero(state.x))
                if state.x is x:
                    # a replayed step binds no new x (see pg_step)
                    replayed += 1
                    assert spent == (n + m) * nnz_after + 14 * n + 2 * m, (lam, it)
                elif state.backtracks_last == 0:
                    executed += 1
                    assert spent == n * nnz_before + 14 * n + m * nnz_after + 2 * m, (lam, it)
        assert executed > 0 and replayed > 0, (executed, replayed)


def reference_records(a, b, lam, iterations, truth):
    """pg_solve's per-iteration records the plain way: pg_init/pg_step and
    a TraceRecord after each, cost from np.abs and error from
    squared_error."""
    state = pg_init(a, b, lam)
    records = []
    for it in range(iterations):
        if it:
            pg_step(state)
        records.append(TraceRecord(
            iteration=state.n,
            cost=state.f + lam * float(np.abs(state.x).sum()),
            f=state.f,
            mu=state.mu,
            backtracks=state.backtracks_last,
            flops=state.flops,
            sq_error=None if truth is None else squared_error(state.x, truth),
        ))
    return state.x, records


class TestColumns:
    @pytest.mark.parametrize("with_truth", [False, True])
    @pytest.mark.parametrize("scenario", ["s1", "s2"])
    @pytest.mark.parametrize("lam", [5e-4, 0.02, 0.5])
    def test_columns_match_reference_records(self, make_instance, scenario, lam, with_truth):
        inst = make_instance(scenario, seed=8, trial=1)
        truth = inst.x_true if with_truth else None
        x, ref = reference_records(inst.a, inst.b, lam, 150, truth)
        res = pg_solve(inst.a, inst.b, lam, 150, ground_truth=truth)
        assert np.array_equal(res.x, x)
        assert res.cost == [r.cost for r in ref]
        assert res.f == [r.f for r in ref]
        assert res.mu == [r.mu for r in ref]
        assert res.backtracks == [r.backtracks for r in ref]
        assert res.flops == [r.flops for r in ref]
        assert res.sq_error == ([r.sq_error for r in ref] if with_truth else None)
        assert res.trace == ref

    def test_trace_is_built_once_and_read_only(self, s1_instance):
        res = pg_solve(s1_instance.a, s1_instance.b, 0.02, 20)
        assert res.trace is res.trace
        with pytest.raises(AttributeError):
            res.trace = []

    def test_rejects_ground_truth_of_wrong_length(self, s1_instance):
        with pytest.raises(ValueError, match="^length mismatch"):
            pg_solve(s1_instance.a, s1_instance.b, 0.02, 5, ground_truth=np.zeros(3))


class TestSolve:
    def test_single_iteration_returns_first_iterate(self, tiny_system):
        a, b = tiny_system
        res = pg_solve(a, b, 1.0, iterations=1)
        state = pg_init(a, b, 1.0)
        assert np.array_equal(res.x, state.x)
        assert len(res.trace) == 1

    def test_zero_rhs_stays_at_global_minimum(self):
        a = np.eye(3)
        res = pg_solve(a, np.zeros(3), 0.1, iterations=25)
        assert not res.x.any()
        assert all(rec.cost == 0.0 for rec in res.trace)
        assert len(res.trace) == 25

    def test_rejects_zero_iterations(self, tiny_system):
        a, b = tiny_system
        with pytest.raises(ValueError):
            pg_solve(a, b, 1.0, iterations=0)

    def test_trace_is_deterministic(self, s1_instance):
        r1 = pg_solve(s1_instance.a, s1_instance.b, 0.02, 120, ground_truth=s1_instance.x_true)
        r2 = pg_solve(s1_instance.a, s1_instance.b, 0.02, 120, ground_truth=s1_instance.x_true)
        assert np.array_equal(r1.x, r2.x)
        assert r1.trace == r2.trace

    def test_zeros_in_iterates_are_exact(self, s1_instance):
        res = pg_solve(s1_instance.a, s1_instance.b, 0.05, 200)
        assert np.count_nonzero(res.x) < s1_instance.a.shape[1]

    def test_iteration_flops_within_bounds(self, s1_instance):
        a, b = s1_instance.a, s1_instance.b
        m, n = a.shape
        state = pg_init(a, b, lam=0.02)
        for _ in range(150):
            nnz = np.count_nonzero(state.x)
            before = state.flops
            pg_step(state)
            spent = state.flops - before
            assert spent >= n * nnz
            retries = 1 + state.backtracks_last
            assert spent <= (2 * n * n + 16 * n + 4 * m) * retries
