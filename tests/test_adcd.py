import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from sparsetls import (
    TraceRecord,
    adcd,
    adcd_coordinate_update,
    adcd_init,
    adcd_solve,
    adcd_step,
    eval_cost,
    iteration_schedule,
    squared_error,
)
from sparsetls.kernel import SupportRows, support_matvec, support_quotient


def objective(a, e, x, b, lam):
    """Joint objective in (x, e): fit plus perturbation energy plus l1."""
    r = (a + e) @ x - b
    return float(r @ r) + float((e * e).sum()) + lam * float(np.abs(x).sum())


class TestInit:
    def test_all_zero_state(self, s1_instance):
        a, b = s1_instance.a, s1_instance.b
        state = adcd_init(a, b, 0.02)
        assert not state.x.any()
        assert not state.e_mat.any()
        assert state.n == 0
        assert state.e_mat.shape == (20, 40)

    def test_binds_the_system(self, s1_instance):
        a, b = s1_instance.a, s1_instance.b
        state = adcd_init(a, b, 0.02)
        assert state.b is b and state.lam == 0.02
        assert state.rows.rows.flags.c_contiguous
        assert np.array_equal(state.rows.rows, a.T)
        assert np.allclose(state.sq_norms, np.linalg.norm(a, axis=0) ** 2, rtol=1e-14, atol=0.0)

    def test_two_inits_identical(self, s1_instance):
        a, b = s1_instance.a, s1_instance.b
        s1, s2 = adcd_init(a, b, 0.02), adcd_init(a, b, 0.02)
        assert np.array_equal(s1.x, s2.x)
        assert np.array_equal(s1.e_mat, s2.e_mat)


class TestBoundSystem:
    """adcd_init binds (a, b, lam) to the state, and adcd_step reads
    nothing else."""

    def test_init_rejects_bad_system(self, bad_system):
        with pytest.raises(ValueError):
            adcd_init(*bad_system)

    def test_alternating_states_match_each_stepped_alone(self, make_instance):
        # two systems of one shape, so a step that read the other state's
        # system would run and give other bytes
        systems = [(make_instance("s1", trial=0), 0.02), (make_instance("s1", trial=3), 0.1)]

        def record(state):
            cost = state.f + state.lam * float(np.abs(state.x).sum())
            return state.x.tobytes(), cost, state.flops

        alone = []
        for inst, lam in systems:
            state = adcd_init(inst.a, inst.b, lam)
            alone.append([record(adcd_step(state)) for _ in range(40)])
        states = [adcd_init(inst.a, inst.b, lam) for inst, lam in systems]
        turns = [[record(adcd_step(state)) for state in states] for _ in range(40)]
        assert [list(run) for run in zip(*turns)] == alone


class TestCoordinateUpdate:
    def test_hand_evaluated_single_column(self):
        a = np.array([[1.0], [0.0]])
        b = np.array([1.0, 0.0])
        state = adcd_init(a, b, 0.5)
        new = adcd_coordinate_update(state, i=0)
        # resid = b, resid . col = 1 > 0.25 -> (1 - 0.25) / 1
        assert new == 0.75
        assert state.x[0] == 0.75

    def test_threshold_boundary_maps_to_zero(self):
        a = np.array([[1.0], [0.0]])
        b = np.array([0.25, 0.0])
        state = adcd_init(a, b, 0.5)
        assert adcd_coordinate_update(state, i=0) == 0.0

    def test_degenerate_column_gets_zero(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([1.0, 0.0])
        state = adcd_init(a, b, 0.1)
        assert adcd_coordinate_update(state, i=0) == 0.0

    def test_update_minimizes_one_dimensional_objective(self, s1_instance):
        # grid-search oracle over phi(t) = ||resid - col t||^2 + lam |t|
        a, b = s1_instance.a, s1_instance.b
        lam = 0.05
        state = adcd_init(a, b, lam)
        adcd_step(state)  # leave the zero state first
        grid = np.arange(-2.0, 2.0 + 1e-5, 1e-5)
        for i in (0, 7, 23):
            x_backup = state.x.copy()
            others = np.flatnonzero(x_backup)
            others = others[others != i]
            cols = a[:, others] + state.e_mat[:, others]
            resid = b - cols @ x_backup[others]
            col = a[:, i] + state.e_mat[:, i]
            new = adcd_coordinate_update(state, i)
            phi = (
                float(resid @ resid)
                - 2.0 * grid * float(col @ resid)
                + grid**2 * float(col @ col)
                + lam * np.abs(grid)
            )
            best = grid[int(np.argmin(phi))]
            assert abs(new - best) <= 1e-5
            state.x[:] = x_backup  # restore for the next coordinate check
            state.x[i] = new

    def test_gauss_seidel_uses_fresh_values(self):
        # second coordinate must see the first one's update
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        b = np.array([2.0, 1.0])
        state = adcd_init(a, b, 0.01)
        adcd_coordinate_update(state, i=0)
        x0_after_first = state.x[0]
        adcd_coordinate_update(state, i=1)
        resid = b - a[:, 0] * x0_after_first
        expected = (float(a[:, 1] @ resid) - 0.005) / float(a[:, 1] @ a[:, 1])
        assert state.x[1] == pytest.approx(expected, abs=1e-15)


class TestRightFactor:
    """Each e update sets v to the iterate array itself, with no copy, so
    no step or coordinate update may write that array."""

    @pytest.mark.parametrize("scenario", ["s1", "s2"])
    def test_v_keeps_its_bytes(self, make_instance, scenario):
        inst = make_instance(scenario, seed=3, trial=1)
        state = adcd_init(inst.a, inst.b, 0.02)
        for _ in range(6):
            adcd_step(state)
            v, kept = state.v, state.v.tobytes()
            assert v is state.x
            for i in (0, 3, 7, 3):
                adcd_coordinate_update(state, i)
                assert state.v is v and state.x is not v
            assert v.tobytes() == kept
            adcd_step(state)
            assert v.tobytes() == kept
            assert state.v is state.x and state.x is not v


class TestCarry:
    """Each e update keeps supp(x) and x[supp(x)] with the array x they
    came from, and the next sweep takes P and v[P] from them only while x
    and v are both that array; any other state makes P from
    np.logical_or(x, v)."""

    @staticmethod
    def spy(monkeypatch):
        """The carry each sweep is given, in order."""
        carries, sweep = [], adcd._sweep

        def spied(state, carry):
            carries.append(carry)
            sweep(state, carry)

        monkeypatch.setattr(adcd, "_sweep", spied)
        return carries

    @staticmethod
    def assert_same(state, ref):
        assert state.x.tobytes() == ref.x.tobytes()
        assert state.u.tobytes() == ref.u.tobytes()
        assert (state.f, state.flops, state.layout_key) == (ref.f, ref.flops, ref.layout_key)

    @pytest.mark.parametrize("scenario, seed, trial, lam", [
        ("s1", 14, 1, 0.02), ("s1", 14, 1, 0.5), ("s2", 14, 1, 0.02), ("s2", 14, 1, 0.5),
        ("s2", 17008008, 11, 0.02),  # PG's line-search stall instance
    ])
    def test_solves_match_with_the_carry_cleared(self, make_instance, monkeypatch,
                                                 scenario, seed, trial, lam):
        inst = make_instance(scenario, seed=seed, trial=trial)
        kept, cleared = adcd_init(inst.a, inst.b, lam), adcd_init(inst.a, inst.b, lam)
        carries = self.spy(monkeypatch)
        steps = iteration_schedule(lam, scenario)
        for _ in range(steps):
            cleared.carry = ()
            adcd_step(kept)
            adcd_step(cleared)
            self.assert_same(kept, cleared)
        # every sweep of kept but the first took the carry, none of cleared's
        assert [bool(c) for c in carries] == [False, False] + [True, False] * (steps - 1)

    def rebind_x(state):
        state.x = np.zeros_like(state.x)

    def rebind_x_with_fewer_entries(state):
        x = state.x.copy()
        x[x.nonzero()[0][:2]] = 0.0
        state.x = x

    def rebind_all(state):
        state.x, state.u, state.v = state.x.copy(), state.u.copy(), state.v.copy()

    def rebind_v(state):
        state.v = state.v.copy()

    def coordinate_update(state):
        adcd_coordinate_update(state, int(state.x.nonzero()[0][0]))

    @pytest.mark.parametrize("scenario", ["s1", "s2"])
    @pytest.mark.parametrize("change", [rebind_x, rebind_x_with_fewer_entries, rebind_all, rebind_v,
                                        coordinate_update])
    def test_changed_state_makes_p_from_x_and_v(self, make_instance, monkeypatch, scenario, change):
        inst = make_instance(scenario, seed=8, trial=1)
        state = adcd_init(inst.a, inst.b, 0.02)
        for _ in range(3):
            adcd_step(state)
        held = state.carry
        change(state)
        assert state.carry is held
        ref = replace(state, carry=())
        p = np.logical_or(state.x, state.v).nonzero()[0]
        carries = self.spy(monkeypatch)
        adcd_step(state)
        adcd_step(ref)
        assert carries == [(), ()]
        assert state.layout_key == p.tobytes()
        self.assert_same(state, ref)


def reference_step(state, a, b, lam):
    """One outer iteration through the public per-coordinate update, then
    the closed-form e update charged as adcd_step documents it."""
    m, n = a.shape
    for i in range(n):
        adcd_coordinate_update(state, i)
    sup = np.flatnonzero(state.x)
    ax = a[:, sup] @ state.x[sup] if sup.size else np.zeros(m)
    coef = 1.0 / (float(state.x @ state.x) + 1.0)
    state.u = coef * (b - ax)
    state.v = state.x.copy()
    state.flops += m * int(sup.size) + 2 * m + n + m * n


def assert_sweep_parity(fast, ref):
    """Same support and counted multiply-adds exactly; x and e_mat within
    1e-12 * max(1, ||x||_inf) (the running residual changes rounding
    only: full s1 and s2 solves measured within 7e-15 of that scale)."""
    assert np.array_equal(fast.x != 0.0, ref.x != 0.0)
    assert fast.flops == ref.flops
    tol = 1e-12 * max(1.0, float(np.abs(ref.x).max()))
    assert np.abs(fast.x - ref.x).max() <= tol
    assert np.abs(fast.e_mat - ref.e_mat).max() <= tol


def lockstep(fast, ref, a, b, lam, steps):
    for _ in range(steps):
        adcd_step(fast)
        reference_step(ref, a, b, lam)
        assert_sweep_parity(fast, ref)


class TestStep:
    # dense, middle and near-empty supports
    @pytest.mark.parametrize("lam", [5e-4, 0.02, 1.0])
    def test_sweep_matches_public_coordinate_op(self, s1_instance, lam):
        # the running-residual sweep must give the values of n public
        # updates (to rounding), the same supports and the same counted
        # multiply-adds after every step
        a, b = s1_instance.a, s1_instance.b
        fast, ref = adcd_init(a, b, lam), adcd_init(a, b, lam)
        lockstep(fast, ref, a, b, lam, 10)

    # n = 200 at a dense and a nearly empty support
    @pytest.mark.parametrize("lam", [0.02, 0.5])
    def test_sweep_matches_public_coordinate_op_s2(self, make_instance, lam):
        inst = make_instance("s2")
        fast, ref = adcd_init(inst.a, inst.b, lam), adcd_init(inst.a, inst.b, lam)
        lockstep(fast, ref, inst.a, inst.b, lam, 10)

    def test_sweep_zero_column(self, s1_instance):
        # ||c_i||^2 = 0 inside runs of zero coordinates, first and last
        # column included: those coordinates stay exactly zero
        a, b = s1_instance.a.copy(), s1_instance.b
        dead = [0, 17, a.shape[1] - 1]
        a[:, dead] = 0.0
        fast, ref = adcd_init(a, b, 0.02), adcd_init(a, b, 0.02)
        lockstep(fast, ref, a, b, 0.02, 5)
        assert np.count_nonzero(fast.x) > 3
        assert not fast.x[dead].any()

    def test_sweep_from_empty_support_with_perturbation(self, s1_instance):
        # x = 0 with e != 0: the whole sweep starts as one run of zero
        # coordinates, and the ones that leave zero split it
        a, b = s1_instance.a, s1_instance.b
        fast, ref = adcd_init(a, b, 0.02), adcd_init(a, b, 0.02)
        lockstep(fast, ref, a, b, 0.02, 3)
        assert fast.e_mat.any()
        # a new zero array: the state's v is the array x was
        fast.x, ref.x = np.zeros_like(fast.x), np.zeros_like(ref.x)
        lockstep(fast, ref, a, b, 0.02, 1)
        assert np.count_nonzero(fast.x) > 1

    def test_sweep_run_ending_at_n_leaves_zero(self, s1_instance):
        # the last column is the one that explains b and the sweep starts
        # from the support {2, 9}: the run of zero coordinates after 9
        # reaches n, and its last coordinate leaves zero
        a = s1_instance.a
        m, n = a.shape
        b = 3.0 * a[:, n - 1]
        fast, ref = adcd_init(a, b, 0.05), adcd_init(a, b, 0.05)
        for state in (fast, ref):
            state.x[[2, 9]] = (0.1, -0.1)
        lockstep(fast, ref, a, b, 0.05, 1)
        assert fast.x[n - 1] != 0.0

    def test_sweep_with_every_coordinate_in_p(self, s1_instance):
        # x has no zero entry: the first sweep has no run of zero
        # coordinates at all, and the coordinates that fall to zero in it
        # make the runs of the sweeps after it
        a, b = s1_instance.a, s1_instance.b
        n = a.shape[1]
        fast, ref = adcd_init(a, b, 0.1), adcd_init(a, b, 0.1)
        for state in (fast, ref):
            state.x[:] = 0.1 * np.where(np.arange(n) % 2, 1.0, -1.0)
        lockstep(fast, ref, a, b, 0.1, 1)
        assert fast.layout_key == np.arange(n).tobytes()
        assert 0 < np.count_nonzero(fast.x) < n - 10
        lockstep(fast, ref, a, b, 0.1, 3)

    def test_sweep_with_coordinate_0_in_p(self, s1_instance):
        # the sweep starts from the support {0, 9}: there is no run ahead
        # of P's first coordinate
        a, b = s1_instance.a, s1_instance.b
        fast, ref = adcd_init(a, b, 0.05), adcd_init(a, b, 0.05)
        for state in (fast, ref):
            state.x[[0, 9]] = (0.1, -0.1)
        lockstep(fast, ref, a, b, 0.05, 1)
        assert fast.layout_key == np.array([0, 9]).tobytes()
        lockstep(fast, ref, a, b, 0.05, 2)

    def test_sweep_leading_run_leaves_zero(self, s1_instance):
        # the first column is the one that explains b and the sweep starts
        # from the support {20, 31}: coordinate 0, in the run ahead of P's
        # first coordinate, leaves zero
        a = s1_instance.a
        b = 3.0 * a[:, 0]
        fast, ref = adcd_init(a, b, 0.05), adcd_init(a, b, 0.05)
        for state in (fast, ref):
            state.x[[20, 31]] = (0.1, -0.1)
        lockstep(fast, ref, a, b, 0.05, 1)
        assert fast.layout_key == np.array([20, 31]).tobytes()
        assert fast.x[0] != 0.0
        lockstep(fast, ref, a, b, 0.05, 2)

    def test_zero_sweep_keeps_zero_perturbation(self):
        # all coordinates thresholded away -> e update from x = 0 is zero
        a = np.array([[1.0, 0.5], [0.0, 0.5]])
        b = np.array([0.01, 0.0])
        state = adcd_init(a, b, 10.0)
        adcd_step(state)
        assert not state.x.any()
        assert not state.e_mat.any()

    def test_hand_evaluated_rank_one_update(self):
        # sweep gives x = (2 - 1) / 1 = 1, then e = (2 - 1) * 1 / (1 + 1)
        a = np.array([[1.0]])
        b = np.array([2.0])
        state = adcd_init(a, b, 2.0)
        adcd_step(state)
        assert state.x[0] == 1.0
        assert state.e_mat[0, 0] == 0.5

    def test_perturbation_update_closed_form_holds(self, s1_instance):
        a, b = s1_instance.a, s1_instance.b
        state = adcd_init(a, b, 0.02)
        for _ in range(5):
            adcd_step(state)
            x = state.x
            expected = np.outer((b - a @ x) / (float(x @ x) + 1.0), x)
            assert np.abs(state.e_mat - expected).max() < 1e-10

    def test_perturbation_update_beats_random_perturbations(self, s1_instance):
        a, b = s1_instance.a, s1_instance.b
        lam = 0.02
        state = adcd_init(a, b, lam)
        rng = np.random.default_rng(11)
        for _ in range(3):
            adcd_step(state)
            base = objective(a, state.e_mat, state.x, b, lam)
            for _ in range(200):
                delta = rng.normal(size=state.e_mat.shape) * rng.choice([1e-3, 1e-2, 0.1])
                assert objective(a, state.e_mat + delta, state.x, b, lam) > base

    def test_objective_never_increases(self, s1_instance):
        a, b = s1_instance.a, s1_instance.b
        lam = 0.02
        m, n = a.shape
        state = adcd_init(a, b, lam)
        for _ in range(30):
            before_sweep = objective(a, state.e_mat, state.x, b, lam)
            val = before_sweep
            for i in range(n):
                adcd_coordinate_update(state, i)
                nxt = objective(a, state.e_mat, state.x, b, lam)
                assert nxt <= val + 1e-10 * max(1.0, val)
                val = nxt
            sup = np.flatnonzero(state.x)
            ax = a[:, sup] @ state.x[sup] if sup.size else np.zeros(m)
            state.u = (b - ax) / (float(state.x @ state.x) + 1.0)
            state.v = state.x.copy()
            after = objective(a, state.e_mat, state.x, b, lam)
            assert after <= val + 1e-10 * max(1.0, val)


class TestSolve:
    def test_huge_lam_yields_zero(self, s1_instance):
        a, b = s1_instance.a, s1_instance.b
        lam = 2.0 * float(np.max(np.abs(a.T @ b))) * 1.01
        # verify the threshold condition that forces every coordinate to zero
        assert np.all(np.abs(a.T @ b) <= lam / 2.0)
        res = adcd_solve(a, b, lam, iterations=5)
        assert not res.x.any()

    def test_trace_length_and_determinism(self, s1_instance):
        r1 = adcd_solve(s1_instance.a, s1_instance.b, 0.02, 50, ground_truth=s1_instance.x_true)
        r2 = adcd_solve(s1_instance.a, s1_instance.b, 0.02, 50, ground_truth=s1_instance.x_true)
        assert len(r1.trace) == 50
        assert r1.trace == r2.trace
        assert np.array_equal(r1.x, r2.x)

    def test_rejects_zero_iterations(self, s1_instance):
        with pytest.raises(ValueError):
            adcd_solve(s1_instance.a, s1_instance.b, 0.02, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_input(self, s1_instance, bad):
        a, b = s1_instance.a.copy(), s1_instance.b.copy()
        a[0, 0] = bad
        with pytest.raises(ValueError, match="^a contains non-finite"):
            adcd_solve(a, s1_instance.b, 0.02, 5)
        b[-1] = bad
        with pytest.raises(ValueError, match="^b contains non-finite"):
            adcd_solve(s1_instance.a, b, 0.02, 5)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_bad_lam_before_any_sweep(self, s1_instance, monkeypatch, lam):
        # NaN passes a plain `lam <= 0` test; every bad lam must be rejected
        # before the first sweep, not by the first eval_cost after it
        def no_step(*args):
            raise AssertionError("adcd_step ran")

        monkeypatch.setattr(adcd, "adcd_step", no_step)
        with pytest.raises(ValueError, match="^lam must be positive and finite"):
            adcd_solve(s1_instance.a, s1_instance.b, lam, 5)

    def test_iteration_flops_within_bounds(self, s1_instance):
        a, b = s1_instance.a, s1_instance.b
        m, n = a.shape
        state = adcd_init(a, b, 0.02)
        for _ in range(40):
            before = state.flops
            adcd_step(state)
            spent = state.flops - before
            nnz = np.count_nonzero(state.x)
            assert spent >= n * m * nnz
            assert spent <= 3 * n * n * m

    def test_zeros_are_exact_so_support_is_well_defined(self, s1_instance):
        res = adcd_solve(s1_instance.a, s1_instance.b, 0.05, 100)
        assert np.count_nonzero(res.x) < s1_instance.a.shape[1]


# The dense-e sweep and step that the factored, screened sweep replaced,
# copied verbatim with the two helpers they call (renamed only), as the
# bit-for-bit reference: the factors and the screen change execution only.


@dataclass
class DenseState:
    x: np.ndarray
    e_mat: np.ndarray
    n: int = 0
    f: float = math.nan
    flops: int = 0


def dense_update_madds(m: int, cnt: int) -> int:
    return 3 * m + (2 * m * cnt + m if cnt else 0)


def dense_threshold(rho: float, half: float, norm2: float) -> float:
    if norm2 == 0.0:
        return 0.0
    if rho > half:
        return (rho - half) / norm2
    if rho < -half:
        return (rho + half) / norm2
    return 0.0


def dense_sweep(state, a: np.ndarray, b: np.ndarray, lam: float) -> None:
    m, n = a.shape
    x = state.x
    c_rows = np.ascontiguousarray((a + state.e_mat).T)
    half = 0.5 * lam
    support = x.nonzero()[0]
    r = b - support_matvec(c_rows, x, support)
    nnz = int(support.size)
    madds = 0
    start = 0
    # the support entries ahead of the sweep position are those it started
    # with, so they delimit the runs of zero coordinates
    for s in [*support.tolist(), n]:
        i = start
        while i < s:
            rhos = c_rows[i:s] @ r
            leave = np.flatnonzero(np.abs(rhos) > half)
            if not leave.size:
                madds += (s - i) * dense_update_madds(m, nnz)
                break
            j = i + int(leave[0])
            madds += (j + 1 - i) * dense_update_madds(m, nnz)
            col = c_rows[j]
            new = dense_threshold(float(rhos[j - i]), half, float(col.dot(col)))
            if new != 0.0:
                x[j] = new
                r -= new * col
                nnz += 1
            i = j + 1
        if s == n:
            break
        col = c_rows[s]
        old = float(x[s])
        norm2 = float(col.dot(col))
        madds += dense_update_madds(m, nnz - 1)
        new = dense_threshold(float(col.dot(r)) + old * norm2, half, norm2)
        if new != old:
            x[s] = new
            r -= (new - old) * col
            if new == 0.0:
                nnz -= 1
        start = s + 1
    state.flops += madds


def dense_step(state, a: np.ndarray, b: np.ndarray, lam: float):
    m, n = a.shape
    dense_sweep(state, a, b, lam)
    x = state.x
    support = x.nonzero()[0]
    resid, y, state.f, _ = support_quotient(SupportRows(a.T), b, x, support)
    state.e_mat = np.outer(-y * resid, x)
    state.flops += m * int(support.size) + 2 * m + n + m * n
    state.n += 1
    return state


def zero_point(m, n):
    """x, u and v of the all-zero state."""
    return np.zeros(n), np.zeros(m), np.zeros(n)


def state_pair(a, b, lam, x, u, v):
    """The same starting point for adcd_step and dense_step."""
    fast = adcd_init(a, b, lam)
    fast.x, fast.u, fast.v = x.copy(), u.copy(), v.copy()
    return fast, DenseState(x=x.copy(), e_mat=np.outer(u, v))


def bit_lockstep(fast, ref, a, b, lam, steps):
    """Step both; x, e, f and the multiply-adds must agree bit for bit."""
    for _ in range(steps):
        adcd_step(fast)
        dense_step(ref, a, b, lam)
        assert fast.x.tobytes() == ref.x.tobytes()
        assert fast.e_mat.tobytes() == ref.e_mat.tobytes()
        assert (fast.f, fast.flops, fast.n) == (ref.f, ref.flops, ref.n)


def tolerance_lockstep(fast, ref, a, b, lam, steps):
    """Step both, each step from the fast side's state; supports and
    multiply-adds must agree exactly, x and e within 1e-12 * max(1, max|x|)
    and f within 1e-12 relative.  For states a solve never reaches (x_i = 0
    with v_i != 0), where the sweep rounds in another order."""
    for _ in range(steps):
        ref.x, ref.e_mat = fast.x.copy(), fast.e_mat
        adcd_step(fast)
        dense_step(ref, a, b, lam)
        assert_sweep_parity(fast, ref)
        assert fast.f == pytest.approx(ref.f, rel=1e-12, abs=0.0)


# lam / 2 a few ulps either side of a zero coordinate's |rho|, for the
# system as drawn (ids "-2" to "2") and with its right-hand side negated,
# which negates each rho: between them the two signs put the boundary on
# both branches of the exact check, rho > lam / 2 and rho < -lam / 2
THRESHOLD_CASES = pytest.mark.parametrize("ulps, sign", [
    *(pytest.param(ulps, 1, id=str(ulps)) for ulps in (-2, -1, 0, 1, 2)),
    *(pytest.param(ulps, -1, id=f"{ulps}-negated") for ulps in (-2, -1, 0, 1, 2)),
])


class TestBitParityWithDenseSweep:
    @pytest.mark.parametrize("scenario", ["s1", "s2"])
    @pytest.mark.parametrize("lam", [5e-4, 0.02, 0.1, 0.5, 1.0])
    def test_solves_match_bit_for_bit(self, make_instance, scenario, lam):
        # 120 steps: past the iterations where coordinates still leave zero
        for trial in (0, 1):
            inst = make_instance(scenario, seed=8, trial=trial)
            fast, ref = state_pair(inst.a, inst.b, lam, *zero_point(*inst.a.shape))
            bit_lockstep(fast, ref, inst.a, inst.b, lam, 120)

    @pytest.mark.parametrize("scenario, lam", [("s1", 0.02), ("s2", 0.02), ("s2", 0.1), ("s2", 0.5)])
    def test_benchmark_cells_over_their_schedule(self, make_instance, scenario, lam):
        # the AD-CD cells of the gated benchmark workloads (s1 trace at
        # 0.02; the s2 lambda sweep over 0.02, 0.1 and 0.5), each for its
        # whole iteration budget
        inst = make_instance(scenario, seed=12, trial=0)
        fast, ref = state_pair(inst.a, inst.b, lam, *zero_point(*inst.a.shape))
        bit_lockstep(fast, ref, inst.a, inst.b, lam, iteration_schedule(lam, scenario))

    @THRESHOLD_CASES
    def test_zero_coordinate_at_the_threshold(self, s1_instance, ulps, sign):
        # x_0 = v_0 = 0 opens the first run, so c_0 = a_0 and its rho is the
        # first row of the run's product from r0; lam / 2 is placed a few
        # ulps either side of |rho|, where the screen's margin must leave
        # the decision to the exact check.  Negating b, x's entries, u and v
        # keeps every column and negates r and each rho exactly
        a, b = s1_instance.a.copy(), sign * s1_instance.b
        a[:, 0] *= 3.0  # the largest rho of its run, so the run's screen reads it
        m, n = a.shape
        x, u, v = zero_point(m, n)
        x[[20, 31]] = (0.3 * sign, -0.2 * sign)
        v[[20, 31]] = (0.25 * sign, -0.4 * sign)
        u[:] = 0.05 * b
        c_rows = np.ascontiguousarray((a + np.outer(u, v)).T)
        r0 = b - support_matvec(c_rows, x, np.array([20, 31]))
        rhos = np.abs(c_rows[0:20] @ r0)
        assert rhos.argmax() == 0
        rho = float(rhos[0])
        half = rho
        for _ in range(abs(ulps)):
            half = np.nextafter(half, np.inf if ulps > 0 else 0.0)
        fast, ref = state_pair(a, b, 2.0 * float(half), x, u, v)
        bit_lockstep(fast, ref, a, b, 2.0 * float(half), 1)
        assert (fast.x[0] != 0.0) == (ulps < 0)
        assert fast.x[0] * float(c_rows[0] @ r0) >= 0.0  # the side of rho's sign
        bit_lockstep(fast, ref, a, b, 2.0 * float(half), 4)

    @THRESHOLD_CASES
    def test_zero_coordinate_at_the_threshold_after_drift(self, ulps, sign):
        # c_3 = c_0 and x_0 = old is thresholded to zero, so in exact
        # arithmetic c_3 . r = rho0_3 + ||c_3|| drift = rho_0: the drift bound
        # is tight and only its rounding margin keeps the screen safe.  b's
        # part along w, orthogonal to every column, adds rounding to each
        # product but nothing to any exact value.  The case taken is the first
        # where |fl(c_3 . r)| is at least 2 ulps above both rho_0 and the
        # bound without its margin; lam / 2 is placed a few ulps either side
        m, n, old = 8, 6, 0.05
        x = np.zeros(n)
        x[0] = old
        for seed in range(40):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((m, n))
            a[:, 0] *= 3.0  # the largest norm and rho of the run after 0
            a[:, 3] = a[:, 0]
            b = 0.1 * a[:, 0] + 100.0 * np.linalg.qr(a, mode="complete")[0][:, -1]
            a_t = np.ascontiguousarray(a.T)
            c, norm = a_t[0], math.sqrt(float(a_t[0].dot(a_t[0])))
            r0 = b - support_matvec(a_t, x, np.array([0]))
            rho_0 = float(c.dot(r0)) + old * norm**2
            rhos = np.abs(a_t[1:] @ (r0 + old * c))
            bound = float(np.abs(a_t @ r0)[1:].max()) + norm * (old * norm)
            rho = float(rhos[2])
            low = np.nextafter(np.nextafter(rho, 0.0), 0.0)
            if rhos.argmax() == 2 and max(rho_0, bound) <= low:
                break
        else:
            pytest.fail("no case with the drift bound below the exact rho")
        half = rho
        for _ in range(abs(ulps)):
            half = np.nextafter(half, np.inf if ulps > 0 else 0.0)
        # negating b and x_0 (e = 0) negates r and each rho exactly
        b = sign * b
        x[0] = sign * old
        fast, ref = state_pair(a, b, 2.0 * float(half), x, *zero_point(m, n)[1:])
        bit_lockstep(fast, ref, a, b, 2.0 * float(half), 1)
        assert fast.x[0] == 0.0
        assert (fast.x[3] != 0.0) == (ulps < 0)
        assert fast.x[3] * sign >= 0.0  # rho_3 has the sign of c_0 . r, so of sign
        bit_lockstep(fast, ref, a, b, 2.0 * float(half), 4)

    def test_late_leaver_after_large_drift(self, s1_instance):
        # b is 3 times the last column and the sweep starts far from it, at
        # x_2 = 4, x_9 = -4: both updates move r a long way, and then the
        # last coordinate leaves zero at the end of the sweep
        a = s1_instance.a
        m, n = a.shape
        b = 3.0 * a[:, n - 1]
        x, u, v = zero_point(m, n)
        x[[2, 9]] = (4.0, -4.0)
        fast, ref = state_pair(a, b, 0.05, x, u, v)
        bit_lockstep(fast, ref, a, b, 0.05, 1)
        assert fast.x[n - 1] != 0.0
        bit_lockstep(fast, ref, a, b, 0.05, 5)

    @pytest.mark.parametrize("lam", [5e-4, 0.02, 0.5])
    def test_duplicated_and_zero_columns(self, s1_instance, lam):
        a, b = s1_instance.a.copy(), s1_instance.b
        n = a.shape[1]
        a[:, [7, 30]] = a[:, [3, 3]]
        a[:, [0, 17, n - 1]] = 0.0
        fast, ref = state_pair(a, b, lam, *zero_point(*a.shape))
        bit_lockstep(fast, ref, a, b, lam, 40)
        assert not fast.x[[0, 17, n - 1]].any()

    @pytest.mark.parametrize("scenario", ["s1", "s2"])
    def test_zeroed_iterate_perturbed_set_from_v_alone(self, make_instance, scenario):
        # x = 0 after a few steps, e != 0: P = supp(v), each coordinate of it
        # a segment of its own with x_i = 0
        inst = make_instance(scenario, seed=8, trial=2)
        a, b = inst.a, inst.b
        fast, ref = state_pair(a, b, 0.02, *zero_point(*a.shape))
        bit_lockstep(fast, ref, a, b, 0.02, 3)
        assert fast.v.any()
        fast.x = np.zeros_like(fast.x)  # v is the array x was
        tolerance_lockstep(fast, ref, a, b, 0.02, 3)
        assert np.count_nonzero(fast.x) > 1

    @pytest.mark.parametrize("scenario", ["s1", "s2"])
    def test_perturbed_rows_outside_the_support_change(self, make_instance, scenario):
        # P minus supp(x) grows, moves (in part onto the rows it held, in part
        # off them) and empties between steps
        inst = make_instance(scenario, seed=8, trial=1)
        a, b = inst.a, inst.b
        fast, ref = state_pair(a, b, 0.02, *zero_point(*a.shape))
        bit_lockstep(fast, ref, a, b, 0.02, 3)
        s = fast.x.nonzero()[0]
        for outside in (s[:1], s[:3], s[2:5], s[6:8], s[:0]):
            fast.x = fast.x.copy()  # v is the array x was
            fast.x[outside] = 0.0
            assert np.array_equal(((fast.v != 0.0) & (fast.x == 0.0)).nonzero()[0], outside)
            tolerance_lockstep(fast, ref, a, b, 0.02, 1)
        tolerance_lockstep(fast, ref, a, b, 0.02, 3)

    @pytest.mark.parametrize("scenario", ["s1", "s2"])
    @pytest.mark.parametrize("lam", [5e-4, 0.02, 0.5])
    def test_solve_sweeps_start_with_p_on_the_support(self, make_instance, scenario, lam):
        # the premise of the bit parity above: after every step of a whole
        # solve v has the support of x, so the next sweep's P = supp(x) +
        # supp(v) is supp(x), and the sweep keys its layout by that support
        inst = make_instance(scenario, seed=14, trial=0)
        state = adcd_init(inst.a, inst.b, lam)
        for _ in range(iteration_schedule(lam, scenario)):
            support = state.x.nonzero()[0]
            adcd_step(state)
            assert state.layout_key == support.tobytes()
            assert np.array_equal(state.v.nonzero()[0], state.x.nonzero()[0])


class TestCertificate:
    """The solver's recorded cost against the joint objective it minimizes,
    computed here from x and e alone."""

    @pytest.mark.parametrize("scenario", ["s1", "s2"])
    @pytest.mark.parametrize("lam", [5e-4, 0.02, 0.5])
    def test_joint_objective_equals_recorded_cost(self, make_instance, scenario, lam):
        # the closed-form e update minimizes the joint objective over e, which
        # reduces it to the quotient cost c(x) that adcd_solve records
        inst = make_instance(scenario, seed=4, trial=1)
        a, b = inst.a, inst.b
        iterations = 40
        res = adcd_solve(a, b, lam, iterations)
        state = adcd_init(a, b, lam)
        for it in range(iterations):
            adcd_step(state)
            joint = objective(a, state.e_mat, state.x, b, lam)
            assert abs(joint - res.cost[it]) <= 1e-12 * abs(res.cost[it]), it
        assert np.array_equal(state.x, res.x)


def reference_records(a, b, lam, iterations, truth):
    """adcd_solve's per-iteration records the plain way: adcd_step, then
    eval_cost and squared_error at each iterate."""
    state = adcd_init(a, b, lam)
    records = []
    for _ in range(iterations):
        adcd_step(state)
        cost = eval_cost(a, b, state.x, lam)
        err = None if truth is None else squared_error(state.x, truth)
        records.append(TraceRecord(state.n, cost.total, cost.f, 0.0, 0, state.flops, err))
    return state.x, records


class TestColumns:
    @pytest.mark.parametrize("with_truth", [False, True])
    @pytest.mark.parametrize("scenario,lam", [("s1", 5e-4), ("s1", 0.02), ("s1", 0.5), ("s2", 0.1)])
    def test_columns_match_reference_records(self, make_instance, scenario, lam, with_truth):
        inst = make_instance(scenario, seed=6, trial=2)
        truth = inst.x_true if with_truth else None
        x, ref = reference_records(inst.a, inst.b, lam, 30, truth)
        res = adcd_solve(inst.a, inst.b, lam, 30, ground_truth=truth)
        assert np.array_equal(res.x, x)
        # cost and f come from the e update's residual over the support,
        # eval_cost's from a dense product: equal up to rounding
        for got, want in ((res.cost, [r.cost for r in ref]), (res.f, [r.f for r in ref])):
            assert all(abs(g - w) <= 1e-12 * abs(w) for g, w in zip(got, want))
        assert res.mu == [0.0] * 30 and res.backtracks == [0] * 30
        assert res.flops == [r.flops for r in ref]
        assert res.sq_error == ([r.sq_error for r in ref] if with_truth else None)
        assert res.trace == [replace(r, cost=c, f=f) for r, c, f in zip(ref, res.cost, res.f)]

    def test_rejects_ground_truth_of_wrong_length(self, s1_instance):
        with pytest.raises(ValueError, match="^length mismatch"):
            adcd_solve(s1_instance.a, s1_instance.b, 0.02, 5, ground_truth=np.zeros(3))
