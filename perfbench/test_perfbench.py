"""Tests of the benchmark's own arithmetic, on synthetic spans and values.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import math
import time

import numpy as np
import pytest

import checks
import hostspeed
from tracing import Span, Tracer, median, outermost, rate, self_times, totals
from workloads import WORKLOADS, default_grid, schedule


def test_self_time_subtracts_direct_children():
    spans = [
        Span("root", 0, 100, -1),
        Span("a", 10, 30, 0),
        Span("b", 40, 70, 0),
        Span("a.child", 12, 20, 1),
    ]
    assert self_times(spans) == [100 - 20 - 30, 20 - 8, 30, 8]


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        Span("p", 0, 50, -1),
        Span("c1", 10, 30, 0),
        Span("c2", 20, 40, 0),   # overlaps c1 by 10
        Span("c3", 45, 60, 0),   # runs past the parent's end
    ]
    assert self_times(spans)[0] == 50 - 30 - 5


def test_totals_aggregate_calls_total_and_self():
    spans = [Span("p", 0, 10, -1), Span("c", 2, 5, 0), Span("p", 20, 24, -1)]
    t = totals(spans)
    assert (t["p"].calls, t["p"].total_ns, t["p"].self_ns) == (2, 14, 11)
    assert (t["c"].calls, t["c"].total_ns, t["c"].self_ns) == (1, 3, 3)


def test_outermost_skips_nested_spans_of_the_same_layer():
    spans = [
        Span("gen", 0, 100, -1),
        Span("rng.normal_block", 1, 10, 0),
        Span("rng.uniform_block", 2, 9, 1),
        Span("rng.below", 20, 21, 0),
    ]
    got = outermost(spans, ("rng.normal_block", "rng.uniform_block", "rng.below"))
    assert [s.name for s in got] == ["rng.normal_block", "rng.below"]


def test_rate_and_median():
    assert rate(10, 4) == 2.5
    assert rate(5, 0) == 0.0
    assert median([3.0, 1.0, 2.0, 10.0]) == 2.5


def test_tracer_records_nesting_and_observers():
    seen = []
    tracer = Tracer(observers={"outer": lambda args, kwargs, result: seen.append((args, result))})
    inner = tracer.span("inner", lambda x: x + 1)
    outer = tracer.span("outer", lambda x: inner(x) * 2)
    assert outer(3) == 8
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0)]
    assert all(s.end >= s.start for s in tracer.spans)
    assert seen == [((3,), 8)]


def test_tracer_closes_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.span("boom", boom)()
    assert tracer.spans[0].end >= tracer.spans[0].start > 0
    assert tracer._stack == []


def test_schedule_endpoints_and_default_grid():
    assert schedule(5e-4, "s1") == 2800 and schedule(1.0, "s1") == 40
    assert schedule(5e-4, "s2") == 3500 and schedule(1.0, "s2") == 50
    grid = default_grid()
    assert len(grid) == 25 and math.isclose(grid[0], 5e-4) and math.isclose(grid[-1], 1.0)
    for wl in WORKLOADS.values():
        assert all(b > a for a, b in zip(wl.grid, wl.grid[1:]))


def test_cost_and_first_iterates_on_a_tiny_system():
    a = np.array([[1.0, 0.0], [0.0, 2.0]])
    b = np.array([1.0, 1.0])
    x = np.array([0.5, 0.0])
    # ||a x - b||^2 = 0.25 + 1, ||x||^2 + 1 = 1.25
    assert checks.cost(a, b, x, 0.1) == pytest.approx(1.0 + 0.05)
    # a^T b = (1, 2): x1 = soft(0.4 * (1, 2), 0.02)
    assert np.allclose(checks.pg_first_iterate(a, b, 0.1), [0.38, 0.78])
    # separable columns: x_i = soft(a_i . b, lam / 2) / ||a_i||^2
    assert np.allclose(checks.adcd_first_iterate(a, b, 0.1), [0.95, 1.95 / 4])


def test_rises_ignores_rounding_but_not_increases():
    assert not checks.rises(np.array([3.0, 2.0, 2.0 + 1e-13, 1.0]))
    assert checks.rises(np.array([3.0, 2.0, 2.1]))


def test_sweep_row_is_checked_against_recomputed_means(tmp_path):
    class Inst:
        x_true = np.array([1.0, 0.0, 0.0])

    xs = [np.array([0.5, 0.0, 0.2]), np.array([0.0, 0.0, 0.0])]
    # errors 0.29 and 1.0; fn 0 and 1; fp 1 and 0
    path = tmp_path / "lambda_sweep.csv"
    header = ",".join(checks.SWEEP_HEADER)
    path.write_text(f"{header}\ns1,pg,0.5,10,{(0.29 + 1.0) / 2!r},0.5,0.5,0.1,0.0142857\n")
    assert checks.sweep_row_problems(path, "pg", 0.5, [Inst(), Inst()], xs) == []
    assert checks.sweep_row_problems(path, "pg", 0.5, [Inst(), Inst()], xs[:1] * 2) != []
    assert "rows at lambda" in checks.sweep_row_problems(path, "pg", 0.1, [Inst()], xs[:1])[0]


def test_speed_subtracts_inside_probes_and_scales_by_their_mean(monkeypatch):
    monkeypatch.setattr(hostspeed, "_work", lambda: time.sleep(0.005))
    monkeypatch.setattr(hostspeed, "REFERENCE_S", 0.0025)
    speed = hostspeed.Speed()
    result, seconds, slowdown = speed.timed(lambda: time.sleep(0.35) or "done")
    assert result == "done"
    assert len(speed.samples) >= 2 + 2           # the two ends and the probes inside
    assert seconds == pytest.approx(0.35, abs=0.03)
    assert slowdown == pytest.approx(2.0, rel=0.3)  # 5 ms probes against 2.5 ms

    edges = hostspeed.Speed()
    edges.timed(lambda: time.sleep(0.25), inside=False)
    assert len(edges.samples) == 2
