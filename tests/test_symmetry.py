"""Exact symmetries of the l1-regularized TLS problem, checked on whole
solves of both solvers without reference code.

With c(x; a, b, lam) = ||a x - b||^2 / (||x||^2 + 1) + lam ||x||_1:

- flipping the signs of columns, a -> a diag(s) with s in {+-1}^n, maps
  the minimizer to s x.  Negating an entry is exact, so every product and
  sum of a solve changes sign or not at all: x_k becomes s x_k (compared
  by value, since a flipped zero is -0.0) and the cost, f and multiply-add
  columns do not move;
- (a, b) -> (-a, -b) gives the same problem; x and every column keep
  their bytes;
- (a, b, lam) -> (2a, 2b, 4 lam) scales the cost by 4 and keeps the
  minimizer.  Scaling by a power of two is exact, so AD-CD keeps x's
  bytes and every cost and f entry is exactly 4 times its own.  PG does
  not: its first iterate uses a fixed step that does not scale with the
  problem (see the README), so only AD-CD is checked.

Each solve runs its whole iteration schedule.
"""

import numpy as np
import pytest

from sparsetls import adcd_solve, iteration_schedule, pg_solve

SOLVERS = {"pg": pg_solve, "adcd": adcd_solve}
CASES = [("s1", 0.02), ("s1", 0.5), ("s1", 5e-4), ("s2", 0.02), ("s2", 0.5)]


def columns(res):
    return res.cost, res.f, res.flops


@pytest.fixture(params=CASES, ids=[f"{sc}-{lam:g}" for sc, lam in CASES])
def case(request, make_instance):
    """(a, b, lam, iterations) of one instance, with its schedule's budget."""
    scenario, lam = request.param
    inst = make_instance(scenario, seed=16, trial=0)
    return inst.a, inst.b, lam, iteration_schedule(lam, scenario)


@pytest.mark.parametrize("algo", sorted(SOLVERS))
def test_column_sign_flips(case, algo):
    a, b, lam, iters = case
    signs = np.random.default_rng(16).choice([-1.0, 1.0], size=a.shape[1])
    solve = SOLVERS[algo]
    res, flipped = solve(a, b, lam, iters), solve(a * signs, b, lam, iters)
    assert np.array_equal(flipped.x, signs * res.x)
    assert columns(flipped) == columns(res)


@pytest.mark.parametrize("algo", sorted(SOLVERS))
def test_negated_system(case, algo):
    a, b, lam, iters = case
    solve = SOLVERS[algo]
    res, negated = solve(a, b, lam, iters), solve(-a, -b, lam, iters)
    assert negated.x.tobytes() == res.x.tobytes()
    assert columns(negated) == columns(res)


def test_adcd_scaled_system(case):
    a, b, lam, iters = case
    res, scaled = adcd_solve(a, b, lam, iters), adcd_solve(2.0 * a, 2.0 * b, 4.0 * lam, iters)
    assert scaled.x.tobytes() == res.x.tobytes()
    assert scaled.cost == [4.0 * c for c in res.cost]
    assert scaled.f == [4.0 * f for f in res.f]
    assert scaled.flops == res.flops
