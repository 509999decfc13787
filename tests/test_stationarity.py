"""Stationarity certificate of the final iterates, from a, b and x alone.

G(x) = ||x - shrink(x - t grad f(x), t lam)|| / t, with t = 1e-2, is zero
exactly at the stationary points of c(x) = f(x) + lam ||x||_1, f the
quotient residual, and a first-order measure of how far x is from one
(Beck, First-Order Methods in Optimization, 2017, ch. 10).  Nothing here
reads a solver's own bookkeeping: the gradient and the shrink are
computed in this file.

The solves run the schedule's iteration budget (criterion 8 fixes it), on
the instances of master seed 0.  The schedule is not tight everywhere, so
G is not small everywhere: each bound is MARGIN times the largest G
measured over the same trials when the test was written, and never below
FLOOR, where G is rounding (||x|| is near 1).
"""

import numpy as np
import pytest

from sparsetls.experiments import iteration_schedule, solve_instance

T = 1e-2
MARGIN = 4.0
FLOOR = 1e-12
TRIALS = {"s1": 6, "s2": 2}

# the largest G over TRIALS trials, per (scenario, lambda): (pg, adcd)
MEASURED = {
    ("s1", 5e-4): (4.41e-5, 1.62e-4),
    ("s1", 0.02): (1.85e-6, 4.31e-4),
    ("s1", 0.1): (5.62e-9, 3.29e-12),
    ("s1", 0.5): (1.64e-8, 1.57e-8),
    ("s1", 1.0): (2.66e-8, 1.28e-7),
    ("s2", 5e-4): (1.58e-9, 1.11e-5),
    ("s2", 0.02): (6.21e-9, 7.48e-11),
    ("s2", 0.1): (7.14e-9, 1.73e-16),
    ("s2", 0.5): (1.40e-8, 2.85e-13),
    ("s2", 1.0): (1.34e-8, 6.94e-11),
}


def stationarity(a, b, x, lam):
    """G(x) for c(x) = ||a x - b||^2 / (||x||^2 + 1) + lam ||x||_1."""
    r = a @ x - b
    y = 1.0 / (float(x @ x) + 1.0)
    f = y * float(r @ r)
    grad = 2.0 * y * (a.T @ r - f * x)
    z = x - T * grad
    prox = np.sign(z) * np.maximum(np.abs(z) - T * lam, 0.0)
    return float(np.linalg.norm(x - prox)) / T


def test_zero_at_a_stationary_point_and_positive_away_from_it():
    # a = I, b = (1, 0): x = (t, 0) has f = (1 - t)^2 / (t^2 + 1), and
    # at lam = 0.5 the stationary point solves f'(t) + 0.5 = 0
    a, b = np.eye(2), np.array([1.0, 0.0])
    lo, hi = 0.0, 1.0  # f'(0) + 0.5 < 0 < f'(1) + 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        dfdt = 2.0 * (mid - 1.0) * (1.0 + mid) / (mid * mid + 1.0) ** 2
        lo, hi = (mid, hi) if dfdt + 0.5 < 0.0 else (lo, mid)
    assert stationarity(a, b, np.array([lo, 0.0]), 0.5) < 1e-12
    assert stationarity(a, b, np.array([lo + 0.1, 0.0]), 0.5) > 1e-2
    assert stationarity(a, b, np.zeros(2), 0.5) > 1.0


@pytest.mark.parametrize("scenario,lam", sorted(MEASURED))
def test_final_iterates_are_near_stationary(make_instance, scenario, lam):
    iterations = iteration_schedule(lam, scenario)
    for algo, measured in zip(("pg", "adcd"), MEASURED[scenario, lam]):
        bound = max(MARGIN * measured, FLOOR)
        for trial in range(TRIALS[scenario]):
            inst = make_instance(scenario, seed=0, trial=trial)
            res = solve_instance(algo, inst, lam, iterations, with_truth=False)
            g = stationarity(inst.a, inst.b, res.x, lam)
            assert g <= bound, (algo, trial, g)
