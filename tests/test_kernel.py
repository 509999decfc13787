import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparsetls import eval_cost, gradient, shrink
from sparsetls.kernel import SupportRows, require_lambda, support_block, support_matvec
from sparsetls.rng import RngStream


def quotient_residual(a, b, x):
    r = a @ x - b
    return float(r @ r) / (float(x @ x) + 1.0)


def fd_gradient(a, b, x, h=1e-6):
    """Central finite differences of the quotient residual."""
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (quotient_residual(a, b, x + e) - quotient_residual(a, b, x - e)) / (2 * h)
    return g


class TestEvalCost:
    def test_at_origin(self, tiny_system):
        a, b = tiny_system
        c = eval_cost(a, b, np.zeros(2), lam=1.0)
        assert c.f == float(b @ b)
        assert c.y == 1.0
        assert c.penalty == 0.0

    def test_exact_solution(self):
        a = np.eye(2)
        b = np.array([3.0, 4.0])
        c = eval_cost(a, b, np.array([3.0, 4.0]), lam=1.0)
        assert c.f == 0.0
        assert c.total == 7.0

    def test_hand_evaluated_case(self, tiny_system):
        a, b = tiny_system
        c = eval_cost(a, b, np.array([0.0, 1.0]), lam=0.5)
        # residual [-1, 1], squared norm 2, divided by ||x||^2 + 1 = 2
        assert c.f == pytest.approx(1.0, abs=1e-15)
        assert c.penalty == 0.5
        assert c.total == pytest.approx(1.5, abs=1e-15)

    def test_dimension_mismatch(self, tiny_system):
        a, b = tiny_system
        with pytest.raises(ValueError):
            eval_cost(a, b, np.zeros(3), lam=1.0)
        with pytest.raises(ValueError):
            eval_cost(a, np.zeros(3), np.zeros(2), lam=1.0)

    def test_rejects_nonpositive_lam(self, tiny_system):
        a, b = tiny_system
        with pytest.raises(ValueError):
            eval_cost(a, b, np.zeros(2), lam=0.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, 0.0, -1e-300])
    def test_require_lambda_rejects(self, lam):
        with pytest.raises(ValueError, match="^lam must be positive and finite"):
            require_lambda(lam)

    @pytest.mark.parametrize("lam", [5e-324, 0.02, 1e300])
    def test_require_lambda_accepts(self, lam):
        require_lambda(lam)

    def test_quotient_penalizes_scaling_of_exact_solution(self):
        a = np.eye(2)
        b = np.array([3.0, 4.0])
        x = np.array([3.0, 4.0])
        for alpha in (0.5, 0.9, 1.1, 2.0):
            assert quotient_residual(a, b, alpha * x) > 0.0


class TestGradient:
    def test_at_origin_is_minus_two_atb(self, tiny_system):
        a, b = tiny_system
        atb = a.T @ b
        g = gradient(a.T @ a, atb, np.zeros(2), y=1.0, f=float(b @ b))
        assert np.array_equal(g, -2.0 * atb)

    def test_hand_evaluated_case(self, tiny_system):
        a, b = tiny_system
        x = np.array([0.0, 1.0])
        c = eval_cost(a, b, x, lam=0.5)
        g = gradient(a.T @ a, a.T @ b, x, c.y, c.f)
        assert g == pytest.approx([-1.0, 0.0], abs=1e-15)
        assert np.max(np.abs(g - fd_gradient(a, b, x))) < 1e-6

    def test_zero_at_exact_solution(self):
        a = np.eye(2)
        b = np.array([3.0, 4.0])
        x = np.array([3.0, 4.0])
        c = eval_cost(a, b, x, lam=1.0)
        g = gradient(a.T @ a, a.T @ b, x, c.y, c.f)
        assert np.array_equal(g, np.zeros(2))

    def test_matches_finite_differences_on_random_cases(self):
        rng = RngStream(2024)
        for _ in range(10):
            a = rng.normal_block(20 * 40).reshape(20, 40) / np.sqrt(20)
            b = rng.normal_block(20)
            x = rng.normal_block(40) * 0.3
            c = eval_cost(a, b, x, lam=1.0)
            g = gradient(a.T @ a, a.T @ b, x, c.y, c.f)
            err = np.max(np.abs(g - fd_gradient(a, b, x))) / max(1.0, np.max(np.abs(g)))
            assert err < 1e-6

    def test_dimension_mismatch(self, tiny_system):
        a, b = tiny_system
        with pytest.raises(ValueError):
            gradient(np.zeros((2, 3)), a.T @ b, np.zeros(2), 1.0, 0.0)

    def test_explicit_support_is_bit_identical(self):
        # the reference is the plain column gather of a^T a, which BLAS
        # returns symmetric bit for bit, so the gradient gathers its rows
        rng = RngStream(77)
        n = 30
        mat = rng.normal_block(n * n).reshape(n, n)
        ata = mat.T @ mat
        assert np.array_equal(ata, ata.T)
        atb = rng.normal_block(n)
        for nnz in (0, 1, 7, n):
            x = np.zeros(n)
            x[:nnz] = rng.normal_block(nnz)
            x = x[np.argsort(rng.uniform_block(n))]
            s = np.flatnonzero(x)
            atax = ata[:, s] @ x[s] if s.size else np.zeros(n)
            expected = (2.0 * 0.3) * (atax - atb - 0.7 * x)
            for kwargs in ({}, {"support": s}):
                g = gradient(ata, atb, x, 0.3, 0.7, **kwargs)
                assert np.array_equal(g, expected), kwargs


class TestSupportGather:
    """support_matvec through a SupportRows against a fresh rows[s].T @ x[s],
    byte for byte, wherever the kept block could be stale."""

    @staticmethod
    def rows_and_x(n=30, m=12):
        rng = RngStream(91)
        a = rng.normal_block(m * n).reshape(m, n)
        return np.ascontiguousarray(a.T), rng.normal_block(n)

    @staticmethod
    def check(held, x, s):
        expected = held.rows[s].T @ x[s]
        assert support_matvec(held, x, s).tobytes() == expected.tobytes()
        assert support_block(held, s).tobytes() == held.rows[s].tobytes()

    def test_support_sequence_a_b_a(self):
        rows, x = self.rows_and_x()
        held = SupportRows(rows)
        first, other = np.array([0, 3, 9, 20]), np.array([2, 3, 29])
        for s in (first, other, first):
            self.check(held, x, s)
        assert held.key == first.tobytes()

    def test_same_size_supports_differing_in_one_index(self):
        rows, x = self.rows_and_x()
        held = SupportRows(rows)
        for s in (np.array([1, 4, 7]), np.array([1, 4, 8]), np.array([1, 5, 8])):
            self.check(held, x, s)

    def test_empty_support(self):
        rows, x = self.rows_and_x()
        held = SupportRows(rows)
        empty = np.zeros(rows.shape[0]).nonzero()[0]
        for s in (empty, np.array([6, 11]), empty):
            self.check(held, x, s)
        assert support_matvec(held, x, empty).tobytes() == np.zeros(rows.shape[1]).tobytes()

    def test_changed_x_on_unchanged_support(self):
        rows, x = self.rows_and_x()
        held = SupportRows(rows)
        s = np.array([0, 5, 17, 29])
        self.check(held, x, s)
        block = held.block
        for scale in (-2.0, 0.5, 1e-300):
            self.check(held, scale * x, s)
        assert held.block is block  # the same support gathers nothing

    def test_plain_array_and_held_rows_agree(self):
        rows, x = self.rows_and_x()
        held = SupportRows(rows)
        for s in (np.array([3]), np.array([3, 4]), np.array([3])):
            assert support_matvec(rows, x, s).tobytes() == support_matvec(held, x, s).tobytes()

    def test_gradient_through_held_ata_is_bit_identical(self):
        rng = RngStream(78)
        n = 25
        mat = rng.normal_block(n * n).reshape(n, n)
        ata = mat.T @ mat
        atb = rng.normal_block(n)
        held = SupportRows(ata)
        x = rng.normal_block(n)
        for cut in (0.5, 1.5, 0.5, 3.0, 3.0):
            z = np.where(np.abs(x) > cut, x, 0.0)
            s = z.nonzero()[0]
            g_plain = gradient(ata, atb, z, 0.3, 0.7, s)
            g_kept = gradient(held, atb, z, 0.3, 0.7, s)
            assert g_plain.tobytes() == g_kept.tobytes()


class TestRowDots:
    """AD-CD's sweep takes every c_i . c_i of a sweep from one np.vecdot,
    and its bit parity with the dense sweep rests on this: on this numpy
    and BLAS, each row of np.vecdot(B, B) and np.vecdot(B, r) has the bytes
    of B[k].dot(B[k]) and B[k].dot(r).  One exception is known and pinned:
    at length 1, dot keeps the sign of a zero product, so a zero row
    against a negative entry gives -0.0, where vecdot gives +0.0.  A square
    is never -0.0, so B . B has no exception.  Each row of
    np.add.reduce(np.abs(B), axis=1) has the bytes of
    float(np.abs(B[k]).sum()), with no exception."""

    @staticmethod
    def check(block, r, label):
        m = block.shape[1]
        for name, got, want in (
            ("np.vecdot(B, B)", np.vecdot(block, block), [row.dot(row) for row in block]),
            ("np.vecdot(B, r)", np.vecdot(block, r), [row.dot(r) for row in block]),
        ):
            bad = [k for k, w in enumerate(want) if got[k].tobytes() != w.tobytes()
                   and not (m == 1 and w == 0.0 and got[k].tobytes() == np.float64(0.0).tobytes())]
            assert not bad, f"{label}: rows {bad} of {name} differ from the per-row dot"

    @pytest.mark.parametrize("scenario", ["s1", "s2"])
    @pytest.mark.parametrize("m", [1, 7, 20, 33, 80, 127])
    def test_rows_of_instance_values(self, make_instance, scenario, m):
        inst = make_instance(scenario, seed=12, trial=1)
        values = np.ascontiguousarray(inst.a.T).ravel()
        k = min(40, values.size // m - 1)
        block = values[: k * m].reshape(k, m).copy()
        block[1] = 0.0
        r = values[-m:].copy()
        self.check(block, r, f"{scenario}, m = {m}")
        self.check(block[:1], r, f"{scenario}, m = {m}, one row")

    @pytest.mark.parametrize("scenario", ["s1", "s2"])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 40, 127, 128, 129, 200, 257])
    def test_abs_row_sums_of_instance_values(self, make_instance, scenario, n):
        # SolveResult.from_states takes the l1 norms of a solve's iterates
        # from one np.add.reduce(np.abs(X), axis=1) (and the squared errors
        # from np.vecdot(D, D), pinned above); numpy sums a row pairwise in
        # blocks of 8 up to 128 entries, so the lengths straddle both
        inst = make_instance(scenario, seed=12, trial=1)
        values = np.ascontiguousarray(inst.a.T).ravel()
        k = min(40, values.size // n)
        block = values[: k * n].reshape(k, n).copy()
        block[k // 2:, ::3] = 0.0  # iterates are sparse
        got = np.add.reduce(np.abs(block), axis=1)
        bad = [i for i, row in enumerate(block)
               if got[i].tobytes() != np.float64(float(np.abs(row).sum())).tobytes()]
        assert not bad, f"{scenario}, n = {n}: rows {bad} differ from float(np.abs(row).sum())"

    @pytest.mark.parametrize("scenario", ["s1", "s2"])
    def test_perturbed_support_block(self, make_instance, scenario):
        # the sweep's own shape: a^T[P] + v[P] u^T against the residual b
        inst = make_instance(scenario, seed=12, trial=2)
        rows = np.ascontiguousarray(inst.a.T)
        s = (inst.x_true != 0.0).nonzero()[0]
        v = 0.1 * inst.x_true
        block = rows[s] + v[s, None] * (0.05 * inst.b)
        self.check(block, inst.b, f"{scenario} support block")
        self.check(rows, inst.b, f"{scenario} a^T")


class TestSupportProduct:
    """support_matvec and support_quotient form rows[s].T @ x[s] as
    x[s].dot(rows[s]), and their bit parity with the matmul rests on this:
    on this numpy and BLAS both make the same gemv call, so the bytes
    agree.  One exception is known: a single product (one support entry
    and a one-entry row) that is a zero keeps its sign in dot, where
    matmul gives +0.0.  A solve meets it only on a one-row system (or,
    through a^T a, a one-column one), where the product is zero only by
    underflow, since a zero column never leaves zero, and a zero of
    either sign gives the same y, f and iterate."""

    @pytest.mark.parametrize("scenario", ["s1", "s2"])
    @pytest.mark.parametrize("m", [1, 2, 7, 20, 80, 127, 200])
    def test_blocks_of_instance_values(self, make_instance, scenario, m):
        inst = make_instance(scenario, seed=12, trial=1)
        values = np.ascontiguousarray(inst.a.T).ravel()
        rng = RngStream(31)
        for k in (1, 2, 3, 8, 9, 40, 64, 65, 200):
            block = np.resize(values, (k, m))
            xs = rng.normal_block(k)
            for label, b, x in (("values", block, xs), ("negative x", block, -np.abs(xs)),
                                ("zero rows", np.where(np.arange(k)[:, None] % 2, block, 0.0), xs),
                                ("zero columns", np.where(np.arange(m) % 3, block, 0.0), -xs)):
                got, want = x.dot(b), b.T @ x
                if k == m == 1 and want[0] == 0.0:
                    continue
                assert got.tobytes() == want.tobytes(), f"{scenario}, k = {k}, m = {m}, {label}"


class TestShrink:
    def test_componentwise_values(self):
        out = shrink(np.array([0.5, -0.1, -0.9]), 0.2)
        assert np.array_equal(out, np.array([0.5 - 0.2, 0.0, -0.9 + 0.2]))

    def test_zero_threshold_is_identity(self):
        z = np.array([0.3, -1.5, 0.0, 2.0])
        assert np.array_equal(shrink(z, 0.0), z)

    def test_boundary_maps_to_zero(self):
        assert shrink(np.array([0.25, -0.25]), 0.25).tolist() == [0.0, 0.0]

    def test_zeros_are_positive_zero(self):
        # |z| <= t gives z - z = +0.0, never -0.0, whatever the sign of z
        z = np.array([-0.1, 0.1, -0.25, 0.25, -0.0, 0.0, -5e-324, -0.3])
        out = shrink(z, 0.25)
        assert out[:-1].tolist() == [0.0] * 7
        assert not np.signbit(out[:-1]).any()
        assert out[-1] == -0.3 + 0.25

    def test_matches_scalar_three_case_reference(self):
        rng = RngStream(77)
        z = rng.normal_block(500) * 3.0
        t = 0.7
        expected = np.array([zi - t if zi > t else (zi + t if zi < -t else 0.0) for zi in z])
        assert np.array_equal(shrink(z, t), expected)

    @given(
        arrays(np.float64, st.integers(1, 30), elements=st.floats(-100, 100)),
        st.floats(0, 50),
    )
    def test_subgradient_conditions(self, z, t):
        out = shrink(z, t)
        gap = z - out
        # |gap| = t up to the rounding of z - t (half an ulp of z)
        slack = 1e-15 * np.maximum(np.abs(z), t)
        assert np.all(np.abs(gap) <= t + slack)
        live = out != 0.0
        assert np.all(np.sign(out[live]) == np.sign(z[live]))
        assert np.all(np.abs(out) <= np.abs(z))
        # zero exactly when |z| <= t
        assert np.array_equal(out == 0.0, np.abs(z) <= t)

    def test_minimizes_prox_objective(self):
        # out must beat random candidates on t*||u||_1 + 0.5*||z - u||^2
        rng = RngStream(99)
        n = 8
        cands = rng.normal_block(1000 * n).reshape(1000, n) * 2.0
        for trial in range(1000):
            z = rng.normal_block(n) * 2.0
            t = float(rng.uniform_block(1)[0]) * 1.5
            out = shrink(z, t)
            val = t * np.abs(out).sum() + 0.5 * float((z - out) @ (z - out))
            cand_vals = t * np.abs(cands).sum(axis=1) + 0.5 * ((cands - z) ** 2).sum(axis=1)
            assert val <= cand_vals.min() + 1e-12
