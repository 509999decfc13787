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

pg_init(a, b, lam, mat) binds the system to the state it returns, and
pg_step(state) reads everything from the state: b, lam, a^T b and the
two matrices below.  a^T b is made once per solve.  a^T a and a
C-contiguous copy of a^T depend on a alone, so they are read from a
kernel.Matrix, which a lambda sweep makes once per instance and passes
to the solve at every lambda (a solve given none makes its own).  A
shared one gives the arrays a new one would, bit for bit, and each solve
is charged the same multiply-adds for a^T a.

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

The line search runs its first _STACK_FROM (8) trials one at a time, as
above; most steps need one or two.  The trials past a step's 8th fall in
a few long searches (the descent of about 30 halvings into a fixed point,
below, and searches where rounding decides the test), and they are 16.5%
of all trials on the benchmark's s2 sweep (seed 77;
scripts/line_search_profile.py counts them).  So from trial _STACK_FROM
on, _stack evaluates the next _STACK_ROWS (32) halvings mu / 2^j as one
stack of rows: one shrink with a column of thresholds, one support
check, one gather and one np.vecmat against the kept a^T[s] block, and
np.vecdot for |x|^2, |a x - b|^2, |dx|^2 and dx . g of every row, in
place of about 14 numpy calls per trial.  A stack ends before its first
row whose support differs from its first row's, and the next stack
starts at that row, so each stack has one support, and the held block
is the last trial's, as the per-trial loop leaves it.  _halving_stack
forms each stack's rows, cut and support; scripts/line_search_profile.py
calls it too.  The two evaluators feed one decision loop: each trial,
alone or a stack's row, gives its x_next, step, y, f, |dx|^2 and dx . g,
and the loop applies line_search_ok, the zero-step rule, the trial's
charge, the halving cap and the state write to it in the same way, so
the rows past the accepted one are work done and dropped.  The bits
hold: a row's elementwise operations are its trial's, the loop halves
the step size once per trial, as np.multiply.accumulate does in
_halving_stack, and a row of np.vecmat (numpy 2.2 or later, the
package's floor) has the bytes of the trial's own gemv and a row of
np.vecdot those of its own dot; the single gemm rounds apart in most
rows, so it is not used.  That parity was measured on numpy 2.4 with
OpenBLAS; on any other numpy or BLAS, tests/test_kernel.py::
TestStackedTrials is what guards it.

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
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Optional

import numpy as np

from .kernel import (Matrix, SupportRows, gradient, matrix_of, require_budget, require_system,
                     shrink, support_block, support_quotient)

START_STEP = 0.2
MAX_BACKTRACKS = 60
# pg_step's line search runs its first _STACK_FROM trials one at a time
# and the rest as stacks of _STACK_ROWS halvings (see the module
# docstring); _STACK_FROM < MAX_BACKTRACKS, so the cap falls in a stack
_STACK_FROM = 8
_STACK_ROWS = 32
# distinct iterates SolveResult.from_states stacks and reduces at a time
_BLOCK = 128


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
    a.T, both the kernel.Matrix's pg_init read, each with its last support
    block (see the module docstring).
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


@dataclass(frozen=True, slots=True)
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
        has returned, so each state's x is kept as it is until _BLOCK of
        them are stacked and reduced, each row with the bytes of
        float(np.abs(x).sum()) and d.dot(d) however many rows share the
        stack; then the block is dropped.  A state whose x is the previous
        state's array (pg_step keeps x once it replays, and then for every
        later step, so these states are a suffix) repeats the last
        computed cost and sq_error entries.  An empty stream raises
        ValueError: a record holds at least one iteration."""
        f, mu, backtracks, flops, rows, l1 = [], [], [], [], [], []
        sq_error = None if ground_truth is None else []
        x = None
        for state in states:
            if state.x is not x:
                x = state.x
                rows.append(x)
                if len(rows) == _BLOCK:
                    _reduce(rows, ground_truth, l1, sq_error)
            f.append(state.f)
            mu.append(state.mu)
            backtracks.append(state.backtracks_last)
            flops.append(state.flops)
        if x is None:
            raise ValueError("no state to record: a solve runs at least one iteration")
        if rows:
            _reduce(rows, ground_truth, l1, sq_error)
        lam, replayed = state.lam, len(f) - len(l1)
        cost = [fk + lam * nk for fk, nk in zip(f, l1)]
        cost += cost[-1:] * replayed
        if sq_error is not None:
            sq_error += sq_error[-1:] * replayed
        return cls(x, cost, f, mu, backtracks, flops, sq_error)

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


def _reduce(rows: list, ground_truth: Optional[np.ndarray], l1: list,
            sq_error: Optional[list]) -> None:
    """Append the l1 norms of the iterates in rows, and their squared
    errors when ground_truth is given, then empty rows."""
    xs = np.array(rows)
    rows.clear()
    if ground_truth is not None:
        d = xs - ground_truth
        sq_error += np.vecdot(d, d).tolist()
    l1 += np.add.reduce(np.abs(xs, out=xs), axis=1).tolist()


def pg_init(a: np.ndarray, b: np.ndarray, lam: float, mat: Optional[Matrix] = None) -> PgState:
    """First iterate from x_0 = 0, with the system and the cached products
    a^T a, a^T b bound to the state.

    x_1 = shrink(-mu_0 * g_0, mu_0 * lam) with g_0 = -2 a^T b and the
    fixed start step mu_0 = 0.2.  The cached products make every later
    gradient an O(n * nnz) operation.  a^T a and the contiguous a^T are
    mat's, a kernel.Matrix made from a itself (another raises ValueError),
    or a new one's when mat is None; a^T a is charged here whether or not
    an earlier solve of mat made it.  A NaN or infinity in a or b, or a
    lam that is not positive and finite, raises ValueError here, before
    any iteration could turn it into a failed line search.
    """
    require_system(a, b, lam)
    m, n = a.shape
    mat = matrix_of(a, mat)
    atb = a.T @ b
    a_rows = SupportRows(mat.a_t)

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
        support=support, xs=xs, b=b, lam=lam, atb=atb, ata_rows=SupportRows(mat.ata),
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


def line_search_ok(f_next: float, f_cur: float, dxg: float, dxdx: float, mu: float) -> bool:
    """Sufficient-decrease test for a trial at step size mu whose
    displacement dx from the current iterate has dxg = dx . g (g the
    gradient there) and dxdx = |dx|^2; the inequality is deliberately
    strict."""
    return f_next < f_cur + dxg + dxdx / (2.0 * mu)


def pg_step(state: PgState) -> PgState:
    """Advance the state by one accepted iteration (in place).

    The prox output is also accepted when it equals the current iterate
    exactly: threshold fixed points are step-size independent, so the
    strict decrease test can never pass there and halving cannot change
    the outcome.  Every step after that one is the same step again, so it
    is replayed from state.replay_madds without executing it (see the
    module docstring); x and the state's other fields are not written.
    So is a step that runs out of halvings at a fixed point to rounding.
    Trials before the _STACK_FROM-th halving are evaluated one at a time
    and the later ones as rows of stacks (_stack); every trial, either
    way, goes through the same decisions below.
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
    backtracks = j = 0
    ys = ()
    while True:
        if backtracks < _STACK_FROM:
            x_next = shrink(x - mu * g, mu * lam)
            support = x_next.nonzero()[0]
            _, y_next, f_next, xs = support_quotient(a_rows, b, x_next, support)
            step = x_next - x
            dxdx, dxg = float(step.dot(step)), float(step.dot(g))
        else:
            if j == len(ys):
                rows, support, steps, ys, fs, dxdxs, dxgs = _stack(state, g, mu, backtracks)
                j = 0
            x_next, step, y_next, f_next, dxdx, dxg = rows[j], steps[j], ys[j], fs[j], dxdxs[j], dxgs[j]
            j += 1
        trial = 6 * n + m * support.size + 2 * m
        madds += trial
        if line_search_ok(f_next, state.f, dxg, dxdx, mu):
            break
        # a nonzero dxdx proves step has a nonzero entry, and a NaN fails
        # dxdx == 0.0 as count_nonzero counts it: the same decision, with
        # count_nonzero kept for a nonzero step whose squares underflow
        if dxdx == 0.0 and not np.count_nonzero(step):
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
            if abs(f_next - state.f) > tol or abs(dxg + dxdx / (2.0 * mu)) > tol:
                raise BacktrackingError(
                    f"line search failed {backtracks + 1} halvings at iteration {state.n} "
                    f"(mu={mu / 2:.3e}, f={state.f:.6e}, f_next={f_next:.6e}); "
                    "gradient and cost are inconsistent"
                )
            state.replay_madds, state.replay_backtracks = madds, backtracks
            x_next, support, xs, y_next, f_next = x, state.support, state.xs, state.y, state.f
            step, dxdx, mu = np.zeros(n), 0.0, mu0
            break
        mu *= 0.5
        backtracks += 1
    if backtracks >= _STACK_FROM and x_next is not x:
        # the accepted row, out of its stack
        x_next, step = x_next.copy(), step.copy()
        xs = x_next[support]

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


def _halving_stack(x: np.ndarray, g: np.ndarray, lam: float, mu: float, backtracks: int) -> tuple:
    """The stack of trials pg_step's line search evaluates from the one
    after `backtracks` halvings, at step size mu: the rows
    shrink(x - mu_j g, mu_j lam) at the step sizes mu / 2^j of the next
    _STACK_ROWS halvings (fewer before the cap), halved one at a time,
    cut before the first row whose support differs from row 0's, where
    the next stack starts.  Returns (rows, row 0's support, whether the
    stack was cut)."""
    rows = min(_STACK_ROWS, MAX_BACKTRACKS + 1 - backtracks)
    mus = np.full(rows, 0.5)
    mus[0] = mu
    np.multiply.accumulate(mus, out=mus)
    xn = shrink(x - np.multiply.outer(mus, g), (mus * lam)[:, None])
    nz = xn != 0.0
    # argmax is 0 when no row's support differs from row 0's
    cut = int((nz != nz[0]).any(axis=1).argmax())
    return xn[:cut or rows], nz[0].nonzero()[0], cut > 0


def _stack(state: PgState, g: np.ndarray, mu: float, backtracks: int) -> tuple:
    """The stack _halving_stack forms from the trial after `backtracks`
    halvings at step size mu, evaluated at once: one gather and one
    np.vecmat against the held a^T[s] block for its rows' shared support
    s, and np.vecdot per row.  Returns (rows, support, steps, y, f,
    |dx|^2, dx . g), the last four as lists of floats, each row's with
    the bits of evaluating its trial alone (see the module docstring)."""
    x = state.x
    xn, support, _ = _halving_stack(x, g, state.lam, mu, backtracks)
    resid = np.vecmat(xn.take(support, axis=1), support_block(state.a_rows, support)) - state.b
    y = 1.0 / (np.vecdot(xn, xn) + 1.0)
    steps = xn - x
    return (xn, support, steps, y.tolist(), (y * np.vecdot(resid, resid)).tolist(),
            np.vecdot(steps, steps).tolist(), np.vecdot(steps, g).tolist())


def pg_solve(
    a: np.ndarray,
    b: np.ndarray,
    lam: float,
    iterations: int,
    ground_truth: Optional[np.ndarray] = None,
    mat: Optional[Matrix] = None,
) -> SolveResult:
    """Run the solver for a fixed iteration budget.

    The budget counts the initialization step that produces x_1, so each
    column has exactly `iterations` entries.  Backtracking retries do not
    consume budget.  mat, when given, is a's kernel.Matrix (see pg_init).
    """
    state = pg_init(a, b, lam, mat)
    require_budget(iterations, ground_truth, state.x.shape[0])
    steps = (pg_step(state) for _ in range(iterations - 1))
    return SolveResult.from_states(chain([state], steps), ground_truth)
