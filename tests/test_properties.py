"""Property tests of both solvers on harder s1-sized systems.

Each case is a 20 x 40 Gaussian system with some of: zero columns,
duplicated columns (a rank-deficient a), a consistent b (xi = 0, so an
exact fit exists) and lambda down to 1e-8.  The checks do not read the
solvers' own bookkeeping where an independent value exists: AD-CD's f is
held against the dense eval_cost at every iterate.

That f check is relative to f_scale, not to f: with a consistent b and a
tiny lambda, a x - b cancels down to f ~ 1e-14 while ||b||^2 ~ 0.1, and
two evaluations that only sum in different orders then differ by 3e-10
relative (found by a 2000-example search), with neither more accurate.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsetls import adcd_init, adcd_solve, adcd_step, eval_cost, pg_solve

M, N, K = 20, 40, 5
PG_ITERS, ADCD_ITERS = 150, 25
REL = 1e-12


@st.composite
def systems(draw):
    """(a, b, lam): one hard case, drawn from a seeded numpy stream."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(M, N)) / np.sqrt(M)
    x_true = np.zeros(N)
    x_true[rng.choice(N, K, replace=False)] = rng.normal(size=K)
    x_true /= np.linalg.norm(x_true)
    cols = st.integers(0, N - 1)
    a[:, draw(st.lists(cols, max_size=4))] = 0.0
    for src, dst in draw(st.lists(st.tuples(cols, cols), max_size=4)):
        a[:, dst] = a[:, src]
    b = a @ x_true
    if not draw(st.booleans()):  # consistent b unless perturbed
        b = b + rng.normal(size=M) * 0.1 / np.sqrt(M)
    lam = draw(st.one_of(st.sampled_from([1e-8, 1e-6]), st.floats(1e-8, 1.0)))
    return a, b, lam


def f_scale(a, b, x) -> float:
    """y ||(|a| |x| + |b|)||^2, the value f would have if a x - b did not
    cancel: the scale of the rounding of either evaluation, and >= f."""
    y = 1.0 / (float(x @ x) + 1.0)
    u = np.abs(a) @ np.abs(x) + np.abs(b)
    return y * float(u @ u)


def columns_finite(res) -> bool:
    return all(np.isfinite(col).all() for col in (res.x, res.cost, res.f, res.mu, res.flops))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(systems())
def test_pg_finite_and_monotone(case):
    a, b, lam = case
    res = pg_solve(a, b, lam, PG_ITERS)
    assert columns_finite(res)
    cost = np.array(res.cost)
    assert (np.diff(cost) <= REL * np.abs(cost[:-1])).all()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(systems())
def test_adcd_finite_and_f_matches_eval_cost(case):
    a, b, lam = case
    state = adcd_init(a, b, lam)
    fs = []
    for _ in range(ADCD_ITERS):
        adcd_step(state)
        want = eval_cost(a, b, state.x, lam).f
        assert abs(state.f - want) <= REL * f_scale(a, b, state.x)
        fs.append(state.f)
    res = adcd_solve(a, b, lam, ADCD_ITERS)
    assert columns_finite(res)
    assert np.array_equal(res.x, state.x) and res.f == fs
