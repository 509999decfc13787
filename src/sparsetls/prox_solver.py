"""Proximal-gradient solver for the l1-regularized quotient cost.

Each iteration takes a gradient step on the smooth quotient residual f and
a soft-threshold step for the l1 term:

    z_n = x_n - mu_n * g_n,   x_{n+1} = shrink(z_n, mu_n * lam).

The step size mu_n is a hybrid of the two spectral estimates built from
the last displacement dx = x_n - x_{n-1} and gradient change
dg = g_n - g_{n-1}: with s = dx.dg, the "steepest descent" value is
|dx|^2 / s and the "minimum residual" value is s / |dg|^2; the second is
used when it exceeds half the first, otherwise first minus half of
second.  Non-positive or degenerate outcomes fall back to the previous
step size.  A backtracking line search halves mu_n until

    f(x_{n+1}) < f(x_n) + dx_new . g_n + |dx_new|^2 / (2 mu_n)

holds, which (with the prox optimality of shrink) forces the composite
cost to be non-increasing over accepted iterations.

pg_init(a, b, lam) binds the system to the state it returns, and
pg_step(state) reads everything from the state: b, lam, a^T b and the
two matrices below.  a^T b is made once per solve.  a^T a and a
C-contiguous copy of a^T depend on a alone, and a lambda sweep starts
one solve per lambda from the same a, so pg_init keeps the last
matrix's pair and reuses it for an a of the same shape, strides and
bytes (see _products); a hit gives the arrays a cold computation would,
bit for bit, and is charged the same multiply-adds.

Exact zeros are skipped in both matrix-vector products, a^T a x in the
gradient and a x in each line-search trial.  The state carries the
support of its iterate (support = x.nonzero()[0]): the accepted trial
already computed it, so the next gradient does not recompute it.
Support columns are gathered as rows of a^T a (kernel.support_matvec),
which is symmetric bit for bit, and of a C-contiguous copy of a^T
(kernel.support_quotient), with the same bits as the column gather.  The state holds both matrices as
kernel.SupportRows, so the gradient's block ata[s] and the line search's
a^T[s] are gathered again only when the support changes (in about one
call in five on the benchmark's instances).  Neither matrix is written during
a solve, so a kept block has the bytes of a new gather, and no output
bit changes.  The line search evaluates each trial with one call,
kernel.support_quotient, which also returns x[s]; the accepted trial's
x[s] and |dx|^2 (which its sufficient-decrease test computed) are kept
in the state, and the next step passes them to the gradient and the
step-size rule instead of computing them again.

Once a step returns x itself, the rest of the schedule is bookkeeping.
The line search accepts a trial with a zero displacement (it can never
pass the strict test, so it exits there, typically after about 30
halvings).  The state after that step is a fixed point of pg_step:

- x, its support, y and f have the bytes they had before: the trial
  gave x's bytes (shrink makes every zero +0.0, so equal entries are
  equal bytes), and y and f come from the same quotient call on them;
- the next gradient is computed from the same bytes, so it equals
  g_prev bit for bit; dx is zero, so dx . dg = 0 and adaptive_step
  returns state.mu, the step size that trial was accepted at;
- the first trial at that mu is the accepted trial again, x itself, so
  it is accepted with no halving, and the step leaves the state as it
  found it.

So pg_step remembers, in state.replay_madds, the counted cost of such a
step: the gradient (n nnz + 3n), dx, dg and the step size (5n) and one
trial (6n + m nnz + 2m), taken from the same expressions the executed
step charges.  While it is set, a step adds it to the multiply-adds,
counts the iteration and records state.replay_backtracks (here none), in
O(1): every column and every counted multiply-add is that of executing
the step.

A fixed point to rounding is kept the same way.  When the halvings run
out, the last trial's change in f and its predicted change
dx . g + |dx|^2 / (2 mu) both within (m + n + 4) 2^-52 f mean the trials
only moved coordinates whose gradient is within rounding of lam: the
step keeps x (and its support, y and f), records the step size it
started from, and charges its halvings and trials.  The next step starts
from the same bytes and, with dx = 0, that same step size, so it runs the
same trials to the same end; so it is replayed with that step's
multiply-adds and backtracks (state.replay_backtracks).

pg_solve returns a columnar SolveResult: the final iterate plus one list
entry per accepted iteration for the cost, f, mu, backtracks and
multiply-adds (and the squared error when the ground truth is given).
SolveResult.from_states fills the columns, for AD-CD too, from the
states alone: a replayed step keeps x, the array of the step before, so
its cost and error repeat.  The per-iteration TraceRecord list is built
from the columns only when `trace` is first read.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Optional

import numpy as np

from .kernel import (SupportRows, gradient, require_budget, require_system, shrink,
                     support_quotient)

START_STEP = 0.2
MAX_BACKTRACKS = 60


class BacktrackingError(RuntimeError):
    """Raised when the line search keeps failing past the halving cap.

    Any step size below the reciprocal local Lipschitz bound must pass the
    search, so hitting the cap while the last trial still changes f, or
    predicts a change, by more than rounding signals an inconsistent
    gradient or cost, not a legitimate solver state.
    """


@dataclass
class PgState:
    """Solver state between iterations, bound to one system (a, b, lam).

    g_prev is the gradient at the previous iterate; after each step the
    just-used gradient moves there.  The invariants y = 1/(||x||^2+1),
    f = y * ||a x - b||^2, support = x.nonzero()[0] and xs = x[support]
    hold for the current x, dx is the step from the previous iterate and
    dxdx = float(dx.dot(dx)) (the accepted line-search trial's, kept so
    the next step does not recompute them).  b, lam and atb = a^T b are
    the system's; ata_rows holds a^T a and a_rows a C-contiguous copy of
    a.T, from pg_init, each with its last support block (see the module
    docstring).
    flops is the running total of counted multiply-adds, which pg_init
    and each pg_step charge for their own work.  replay_madds is 0 until
    a step returns x itself; from then on it is the counted cost of each
    further step, which only replays it, and replay_backtracks its
    halvings (0, or MAX_BACKTRACKS at a fixed point to rounding).
    """

    x: np.ndarray
    dx: np.ndarray
    dxdx: float
    g_prev: np.ndarray
    mu: float
    y: float
    f: float
    n: int
    support: np.ndarray
    xs: np.ndarray
    b: np.ndarray
    lam: float
    atb: np.ndarray
    ata_rows: SupportRows
    a_rows: SupportRows
    flops: int
    backtracks_last: int = 0
    replay_madds: int = 0
    replay_backtracks: int = 0


@dataclass(frozen=True)
class TraceRecord:
    """One accepted iteration; rejected line-search trials only show up in
    the flop and backtrack counts."""

    iteration: int
    cost: float
    f: float
    mu: float
    backtracks: int
    flops: int
    sq_error: Optional[float]


@dataclass(frozen=True)
class SolveResult:
    """Final iterate plus one entry per iteration in each column.

    Entry i of cost, f, mu, backtracks and flops belongs to iteration
    i + 1; flops is the running multiply-add total.  sq_error is None
    when the solve had no ground truth.
    """

    x: np.ndarray
    cost: list[float]
    f: list[float]
    mu: list[float]
    backtracks: list[int]
    flops: list[int]
    sq_error: Optional[list[float]] = None

    @classmethod
    def from_states(cls, states: Iterable, ground_truth: Optional[np.ndarray]):
        """One entry per PgState or AdcdState yielded: cost = f + lam *
        ||x||_1, with the state's lam, and, with a ground truth,
        sq_error = ||x - ground_truth||^2.  No step writes an iterate it
        has returned, so each state's x is kept as it is, and the norms
        and errors of all of them are reduced after the loop, each row
        with the bytes of float(np.abs(x).sum()) and d.dot(d).  A state
        whose x is the previous state's array (pg_step keeps x once it
        replays, and then for every later step, so these states are a
        suffix) repeats the last computed cost and sq_error entries."""
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
        return cls(rows[-1], cost, f, mu, backtracks, flops, sq_error)

    @cached_property
    def trace(self) -> list[TraceRecord]:
        """The columns as one TraceRecord per iteration, built on first
        access."""
        errs = self.sq_error if self.sq_error is not None else [None] * len(self.cost)
        return [
            TraceRecord(it, *rec)
            for it, rec in enumerate(
                zip(self.cost, self.f, self.mu, self.backtracks, self.flops, errs), 1
            )
        ]


# a weak reference to the last matrix a, its C-contiguous a^T, the
# strides of a and its a^T a (see _products), or None
_last: Optional[tuple[weakref.ref, np.ndarray, tuple[int, ...], np.ndarray]] = None


def _products(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a^T a, a C-contiguous copy of a^T), the last call's when a has the
    shape, strides and bytes of the matrix they were made from.

    A hit is the same BLAS call on the same bytes, so its a^T a has the
    bits of computing it again, and a matrix written in place since is a
    miss.  The record holds no array a solve does not hold: the bytes of a
    are compared against the kept a^T, and the pair is dropped before a
    miss makes the new one and once the matrix it was made from is freed.
    Nothing writes either array: each state wraps them in SupportRows of
    its own.
    """
    global _last
    if _last is not None:
        _, a_t, strides, ata = _last
        if (a.shape == a_t.shape[::-1] and a.strides == strides
                and a.dtype == a_t.dtype == np.float64
                and np.array_equal(a.view(np.uint64), a_t.T.view(np.uint64))):
            return ata, a_t
    _last = None
    ata = a.T @ a
    a_t = a.T.copy()
    _last = weakref.ref(a, _forget), a_t, a.strides, ata
    return ata, a_t


def _forget(ref: weakref.ref) -> None:
    """Drop the record once the matrix it was made from is freed."""
    global _last
    if _last is not None and _last[0] is ref:
        _last = None


def pg_init(a: np.ndarray, b: np.ndarray, lam: float) -> PgState:
    """First iterate from x_0 = 0, with the system and the cached products
    a^T a, a^T b bound to the state.

    x_1 = shrink(-mu_0 * g_0, mu_0 * lam) with g_0 = -2 a^T b and the
    fixed start step mu_0 = 0.2.  The cached products make every later
    gradient an O(n * nnz) operation; a^T a comes from _products, and is
    charged here whether or not it was computed again.  A NaN or infinity
    in a or b, or a lam that is not positive and finite, raises ValueError
    here, before any iteration could turn it into a failed line search.
    """
    require_system(a, b, lam)
    m, n = a.shape
    ata, a_t = _products(a)
    atb = a.T @ b
    a_rows = SupportRows(a_t)

    x0 = np.zeros(n)
    g0 = -2.0 * atb
    x1 = shrink(x0 - START_STEP * g0, START_STEP * lam)
    support = x1.nonzero()[0]
    _, y1, f1, xs = support_quotient(a_rows, b, x1, support)
    dx = x1 - x0
    # a^T a and a^T b, then x_1 and its quotient
    flops = n * n * m + n * m + 4 * n + m * int(support.size) + 2 * m

    return PgState(
        x=x1, dx=dx, dxdx=float(dx.dot(dx)), g_prev=g0, mu=START_STEP, y=y1, f=f1, n=1,
        support=support, xs=xs, b=b, lam=lam, atb=atb, ata_rows=SupportRows(ata),
        a_rows=a_rows, flops=flops,
    )


def adaptive_step(
    dx: np.ndarray, dg: np.ndarray, mu_prev: float, dxdx: Optional[float] = None
) -> float:
    """Hybrid spectral step size; falls back to mu_prev on degeneracy.
    dxdx, when given, must be float(dx.dot(dx))."""
    s = float(dx.dot(dg))
    gg = float(dg.dot(dg))
    if s == 0.0 or gg == 0.0:
        return mu_prev
    mu_sd = (float(dx.dot(dx)) if dxdx is None else dxdx) / s
    mu_mr = s / gg
    if mu_sd == 0.0:
        # |dx|^2 underflowed while dx.dg did not; the ratio is effectively
        # infinite, so take the minimum-residual branch
        mu = mu_mr
    elif mu_mr / mu_sd > 0.5:
        mu = mu_mr
    else:
        mu = mu_sd - 0.5 * mu_mr
    if mu <= 0.0 or not math.isfinite(mu):
        return mu_prev
    return mu


def line_search_ok(
    f_next: float, f_cur: float, dx: np.ndarray, g: np.ndarray, mu: float,
    dxdx: Optional[float] = None,
) -> bool:
    """Sufficient-decrease test; the inequality is deliberately strict.
    dxdx, when given, must be float(dx.dot(dx))."""
    if dxdx is None:
        dxdx = float(dx.dot(dx))
    return f_next < f_cur + float(dx.dot(g)) + dxdx / (2.0 * mu)


def pg_step(state: PgState) -> PgState:
    """Advance the state by one accepted iteration (in place).

    The prox output is also accepted when it equals the current iterate
    exactly: threshold fixed points are step-size independent, so the
    strict decrease test can never pass there and halving cannot change
    the outcome.  Every step after that one is the same step again, so it
    is replayed from state.replay_madds without executing it (see the
    module docstring); x and the state's other fields are not written.
    So is a step that runs out of halvings at a fixed point to rounding.
    """
    if state.replay_madds:
        state.flops += state.replay_madds
        state.n += 1
        state.backtracks_last = state.replay_backtracks
        return state
    x, b, lam = state.x, state.b, state.lam
    m, n = b.shape[0], x.shape[0]
    g = gradient(state.ata_rows, state.atb, x, state.y, state.f, state.support, state.xs)
    mu = mu0 = adaptive_step(state.dx, g - state.g_prev, state.mu, state.dxdx)
    # the counted cost of the gradient (n nnz + 3n), of dx and dg (2n) and
    # of the step size (3n), then of each line-search trial, charged once
    # after the accepted trial; head + trial is a one-trial step's
    madds = head = n * int(state.support.size) + 8 * n

    a_rows = state.a_rows
    backtracks = 0
    while True:
        x_next = shrink(x - mu * g, mu * lam)
        support = x_next.nonzero()[0]
        _, y_next, f_next, xs = support_quotient(a_rows, b, x_next, support)
        step = x_next - x
        dxdx = float(step.dot(step))
        trial = 6 * n + m * support.size + 2 * m
        madds += trial
        if line_search_ok(f_next, state.f, step, g, mu, dxdx):
            break
        if not np.count_nonzero(step):
            # x came back: every later step repeats this one with no
            # halving, at this charge (see the module docstring)
            state.replay_madds = head + trial
            break
        if backtracks == MAX_BACKTRACKS:
            # out of halvings: unless the last trial's change in f and its
            # predicted change are both within the quotient's rounding, the
            # gradient and f disagree; if they are, x is a fixed point to
            # rounding, kept and replayed (see the module docstring)
            tol = (m + n + 4) * 2.0**-52 * state.f
            predicted = float(step.dot(g)) + dxdx / (2.0 * mu)
            if abs(f_next - state.f) > tol or abs(predicted) > tol:
                raise BacktrackingError(
                    f"line search failed {backtracks + 1} halvings at iteration {state.n} "
                    f"(mu={mu / 2:.3e}, f={state.f:.6e}, f_next={f_next:.6e}); "
                    "gradient and cost are inconsistent"
                )
            x_next, support, xs, y_next, f_next = x, state.support, state.xs, state.y, state.f
            step, dxdx, mu = np.zeros(n), 0.0, mu0
            state.replay_madds, state.replay_backtracks = madds, backtracks
            break
        mu *= 0.5
        backtracks += 1

    state.flops += madds
    state.dx = step
    state.dxdx = dxdx
    state.g_prev = g
    state.x = x_next
    state.support = support
    state.xs = xs
    state.y = y_next
    state.f = f_next
    state.mu = mu
    state.n += 1
    state.backtracks_last = backtracks
    return state


def pg_solve(
    a: np.ndarray,
    b: np.ndarray,
    lam: float,
    iterations: int,
    ground_truth: Optional[np.ndarray] = None,
) -> SolveResult:
    """Run the solver for a fixed iteration budget.

    The budget counts the initialization step that produces x_1, so each
    column has exactly `iterations` entries.  Backtracking retries do not
    consume budget.
    """
    state = pg_init(a, b, lam)
    require_budget(iterations, ground_truth, state.x.shape[0])
    steps = (pg_step(state) for _ in range(iterations - 1))
    return SolveResult.from_states(chain([state], steps), ground_truth)
