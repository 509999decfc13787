"""Cost to accuracy: the abstract's claim that PG "requires significantly
fewer computations to deliver the same accuracy" as AD-CD.

Both solvers run one trial's instance for the schedule's iteration budget.
The common target is 1.01 times the worse of the two final squared
errors, so both reach it.  Each solver's cost is its counted multiply-adds
(the flops column) at the first iteration whose squared error is at most
the target.  The test asserts that the median AD-CD/PG ratio of those
costs is above 2 in each (scenario, lambda) cell.  Everything is read
from the solve results' columns; nothing else is counted here.

The instances are those of master seed 0.  The medians measured when the
test was written were 15.4 (s1, 0.02), 5.6 (s1, 0.1), 26.0 (s2, 0.02)
and 3.6 (s2, 0.1), with TRIALS trials per cell, in about 5 s in all.
"""

import statistics

import pytest

from sparsetls import derive_stream, generate_instance, scenario_config
from sparsetls.experiments import iteration_schedule, solve_instance
from sparsetls.problems import SCENARIO_TAGS

TRIALS = {"s1": 20, "s2": 10}
SLACK = 1.01
MIN_MEDIAN_RATIO = 2.0


def flops_to_reach(res, target: float) -> int:
    """The running multiply-add count at the first iteration whose squared
    error is at most target."""
    return next(f for f, err in zip(res.flops, res.sq_error) if err <= target)


@pytest.mark.parametrize("scenario", ["s1", "s2"])
@pytest.mark.parametrize("lam", [0.02, 0.1])
def test_adcd_needs_more_multiply_adds_for_the_same_error(scenario, lam):
    iterations = iteration_schedule(lam, scenario)
    ratios = []
    for trial in range(TRIALS[scenario]):
        inst = generate_instance(
            scenario_config(scenario), derive_stream(0, SCENARIO_TAGS[scenario], trial)
        )
        pg = solve_instance("pg", inst, lam, iterations)
        adcd = solve_instance("adcd", inst, lam, iterations)
        target = SLACK * max(pg.sq_error[-1], adcd.sq_error[-1])
        ratios.append(flops_to_reach(adcd, target) / flops_to_reach(pg, target))
    assert statistics.median(ratios) > MIN_MEDIAN_RATIO, sorted(ratios)
