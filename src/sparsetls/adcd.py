"""Alternating-direction coordinate-descent baseline (AD-CD).

Minimizes ||(a + e) x - b||^2 + ||e||_F^2 + lam * ||x||_1 by alternating a
Gauss-Seidel soft-threshold sweep over the entries of x (with the
perturbation estimate e fixed) and the closed-form rank-one update

    e <- (b - a x) x^T / (||x||^2 + 1)

which is the exact minimizer over e for fixed x.  Per coordinate the
partial residual is rebuilt from scratch, skipping exact-zero entries of
x, so a sweep costs on the order of n * m * nnz(x) multiply-adds; e is
kept as an explicit dense matrix.  Both choices are deliberate: they are
what the per-iteration cost comparison against the proximal-gradient
solver is about, and the flop counter charges every rebuild.

adcd_coordinate_update is that from-scratch update, one coordinate per
call.  The sweep executes the same algorithm more cheaply, on a running
residual (the "naive update" of coordinate descent; Friedman, Hastie and
Tibshirani, J. Stat. Softw. 2010): r = b - (a + e) x is built once per
sweep and updated after every coordinate that changes.  The values
differ from the per-call update only by rounding, and r is rebuilt at
the start of every sweep, so that drift never outlives one sweep.  The
supports and the counted multiply-adds, which still charge every
from-scratch rebuild, are those of the plain algorithm.

adcd_solve returns the same columnar SolveResult as the proximal-gradient
solver, filled by the same loop.  Its cost c(x) = f + lam * ||x||_1 (the
joint objective once e is at its minimizer) reads f from the state: the
e update's residual, through kernel.quotient, gives it with no second
pass over a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Optional

import numpy as np

from .kernel import FlopCounter, quotient, require_budget, require_system, support_matvec
from .prox_solver import SolveResult


@dataclass
class AdcdState:
    x: np.ndarray       # current iterate, length n
    e_mat: np.ndarray   # current perturbation estimate, m x n
    n: int              # completed outer iterations
    f: float = math.nan  # quotient residual f(x), set by each e update
    flops: FlopCounter = field(default_factory=FlopCounter)
    # no step size, no line search: the mu and backtracks columns read 0
    mu: ClassVar[float] = 0.0
    backtracks_last: ClassVar[int] = 0


def adcd_init(m: int, n: int) -> AdcdState:
    """All-zero starting state."""
    return AdcdState(x=np.zeros(n), e_mat=np.zeros((m, n)), n=0)


def adcd_coordinate_update(
    state: AdcdState, a: np.ndarray, b: np.ndarray, lam: float, i: int
) -> float:
    """Exact minimization of the objective over coordinate i (in place).

    With column c_j = a[:, j] + e_mat[:, j], the partial residual excludes
    coordinate i and skips exact-zero entries of x:

        resid = b - sum_{j != i, x_j != 0} c_j x_j

    and the new value soft-thresholds resid . c_i at lam / 2, scaled by
    ||c_i||^2 (the boundary |resid . c_i| = lam / 2 maps to 0).  A zero
    column gets x_i = 0.
    """
    m = b.shape[0]
    x = state.x
    others = np.flatnonzero(x)
    others = others[others != i]
    resid = b - support_matvec((a + state.e_mat).T, x, others)
    col = a[:, i] + state.e_mat[:, i]
    state.flops.add(_update_madds(m, int(others.size)))
    new = _threshold(float(col @ resid), 0.5 * lam, float(col @ col))
    x[i] = new
    return new


def _update_madds(m: int, cnt: int) -> int:
    """Counted cost of one coordinate update whose partial residual runs
    over cnt other nonzero entries: 2 m cnt + m to rebuild it from
    scratch (nothing when cnt = 0) and 3 m for the two dots."""
    return 3 * m + (2 * m * cnt + m if cnt else 0)


def _threshold(rho: float, half: float, norm2: float) -> float:
    """Soft-threshold rho at half, scaled by 1 / norm2; a zero column and
    the boundary |rho| = half both give 0."""
    if norm2 == 0.0:
        return 0.0
    if rho > half:
        return (rho - half) / norm2
    if rho < -half:
        return (rho + half) / norm2
    return 0.0


def _sweep(state: AdcdState, a: np.ndarray, b: np.ndarray, lam: float) -> None:
    """In-order pass over all coordinates, on a running residual.

    The values are those of calling adcd_coordinate_update for
    i = 0..n-1, up to floating-point rounding (a test holds the two to a
    stated tolerance, with exact supports and multiply-adds); only the
    execution is cheaper.  The columns c = a + e_mat are formed once per
    sweep, since e_mat is fixed during it, as rows of a contiguous c^T.
    The full residual r = b - c x is built once, from the support, at the
    start of the sweep and then kept current:

    - a support coordinate gets rho = c_i . r + x_i ||c_i||^2, which is
      c_i . resid for the partial residual that excludes i; after the
      update r -= (new - old) c_i;
    - a zero coordinate's partial residual is r itself, so the rhos of a
      run of zero coordinates between two support entries come from one
      product with the contiguous block of their rows.  The first rho
      outside +-lam / 2 ends the run: that coordinate leaves zero, r
      changes, and the rest of the run is recomputed from the new r.

    r is rebuilt from scratch every sweep (e_mat changes between sweeps),
    so rounding drift from the updates is confined to one sweep.  The
    counted multiply-adds still charge every from-scratch rebuild of the
    partial residual and the 3m of both dots, computed from the support
    size, as the per-call update does: that is the baseline's algorithmic
    cost.
    """
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
                madds += (s - i) * _update_madds(m, nnz)
                break
            j = i + int(leave[0])
            madds += (j + 1 - i) * _update_madds(m, nnz)
            col = c_rows[j]
            new = _threshold(float(rhos[j - i]), half, float(col.dot(col)))
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
        madds += _update_madds(m, nnz - 1)
        new = _threshold(float(col.dot(r)) + old * norm2, half, norm2)
        if new != old:
            x[s] = new
            r -= (new - old) * col
            if new == 0.0:
                nnz -= 1
        start = s + 1
    state.flops.add(madds)


def adcd_step(state: AdcdState, a: np.ndarray, b: np.ndarray, lam: float) -> AdcdState:
    """One outer iteration: full in-order sweep, then the e update.

    The e update, whose residual also gives state.f, is charged
    m * nnz(x) + 2m + n + m * n multiply-adds.
    """
    m, n = a.shape
    _sweep(state, a, b, lam)
    x = state.x
    support = x.nonzero()[0]
    resid, y, state.f = quotient(a.T, b, x, support)
    state.e_mat = np.outer(-y * resid, x)
    state.flops.add(m * int(support.size) + 2 * m + n + m * n)
    state.n += 1
    return state


def adcd_solve(
    a: np.ndarray,
    b: np.ndarray,
    lam: float,
    iterations: int,
    ground_truth: Optional[np.ndarray] = None,
) -> SolveResult:
    """Run `iterations` outer steps from the zero state.

    The result has the proximal-gradient solver's columns (its mu and
    backtracks entries are zero) so per-iteration outputs line up; the
    f entries are those of the e updates.  A lam that is not positive and
    finite, or a NaN or infinity in a or b, raises ValueError before the
    first sweep.
    """
    require_system(a, b, lam)
    require_budget(iterations, ground_truth, a.shape[1])
    state = adcd_init(*a.shape)
    steps = (adcd_step(state, a, b, lam) for _ in range(iterations))
    return SolveResult.from_states(steps, lam, ground_truth)
