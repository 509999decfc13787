"""Host-speed probe: a small fixed piece of work timed in and around every
timed unit, so that each unit's wall time can be scaled to one host speed.

On a shared host the speed of one vCPU changes by up to 1.7x within
seconds, and a slow stretch can last minutes, so two runs of the same code
can differ by more than any useful bound.  The change reaches the
program's work and a fixed probe run on the same CPU a moment later alike
(measured: over 3 s windows the median time of a PG solve moved 19-33 ms,
its ratio to a probe 1.13-1.27), while the speed of another CPU does not
track it.

So the benchmark runs pinned to one CPU and times the probe before and
after each unit and, from a timer signal, every INTERVAL_S inside it.  The
unit's time is its wall time less the probes inside it, divided by the
mean probe time over REFERENCE_S.  The probe never touches the program, so
a change to the program moves the unit's time and not the probe's.

Keep the probe, INTERVAL_S and REFERENCE_S fixed: changing any of them
rescales every reported rate.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np

# Seconds one probe takes on the reference host in a quiet stretch.
REFERENCE_S = 0.0025
# Seconds between probes inside a unit.
INTERVAL_S = 0.1

_RNG = np.random.default_rng(20240601)
_A1 = _RNG.standard_normal((40, 20))
_B1 = _RNG.standard_normal(40)
_A2 = _RNG.standard_normal((200, 80))
_B2 = _RNG.standard_normal(200)


def _work() -> float:
    """Small numpy calls driven from a Python loop, at both scenario sizes,
    in the mix the solvers make: mat-vecs, soft thresholds, gathers."""
    acc = 0.0
    x1 = np.zeros(20)
    for _ in range(120):
        g = _A1.T @ (_A1 @ x1 - _B1)
        z = x1 - 0.01 * g
        x1 = np.sign(z) * np.maximum(np.abs(z) - 1e-3, 0.0)
        acc += float(x1 @ x1)
    x2 = np.zeros(80)
    for _ in range(40):
        g = _A2.T @ (_A2 @ x2 - _B2)
        z = x2 - 0.001 * g
        x2 = np.sign(z) * np.maximum(np.abs(z) - 1e-3, 0.0)
        acc += float(x2 @ x2)
    support = [j for j in range(20) if j % 3]
    for i in range(20):
        others = [j for j in support if j != i]
        idx = np.array(others, dtype=np.intp)
        resid = _B1 - _A1[:, idx] @ x1[idx]
        col = _A1[:, i]
        acc += float(col @ resid) / (1.0 + float(col @ col))
    return acc


def pin_to_one_cpu() -> int:
    """Pin this process (and the processes it starts) to one allowed CPU,
    so that the probe and the work it scales run on the same CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Speed:
    """Probe samples, as (start, end) in perf_counter seconds."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def mark(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        _work()
        self.samples.append((t0, time.perf_counter()))

    def timed(self, fn, inside: bool = True):
        """Call fn() between two probes and, if `inside`, with a probe every
        INTERVAL_S while it runs.

        Returns (result, wall seconds less the probes inside, slowdown):
        the slowdown is the mean probe time over REFERENCE_S.
        """
        first = len(self.samples)
        self.mark()
        previous = None
        if inside:
            previous = signal.signal(signal.SIGALRM, self.mark)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            if inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        t1 = time.perf_counter()
        probed = sum(e - s for s, e in self.samples[first + 1:])
        self.mark()
        probes = [e - s for s, e in self.samples[first:]]
        slowdown = sum(probes) / len(probes) / REFERENCE_S
        return result, t1 - t0 - probed, slowdown
