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
solver is about, and the flop counter charges every rebuild.  The fused
sweep executes them more cheaply (it recomputes a partial residual only
when its inputs change) with arithmetic identical to the from-scratch
rebuild, so the iterates and the counted cost are those of the plain
algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .kernel import FlopCounter, eval_cost, require_finite
from .metrics import squared_error
from .prox_solver import SolveResult, TraceRecord


@dataclass
class AdcdState:
    x: np.ndarray       # current iterate, length n
    e_mat: np.ndarray   # current perturbation estimate, m x n
    n: int              # completed outer iterations
    flops: FlopCounter = field(default_factory=FlopCounter)


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
    if others.size:
        cols = a[:, others] + state.e_mat[:, others]
        resid = b - cols @ x[others]
        state.flops.add(2 * m * int(others.size) + m)
    else:
        resid = b
    col = a[:, i] + state.e_mat[:, i]
    rho = float(col @ resid)
    norm2 = float(col @ col)
    state.flops.add(3 * m)
    half = 0.5 * lam
    if norm2 == 0.0:
        new = 0.0
    elif rho > half:
        new = (rho - half) / norm2
    elif rho < -half:
        new = (rho + half) / norm2
    else:
        new = 0.0
    x[i] = new
    return new


def _sweep(state: AdcdState, a: np.ndarray, b: np.ndarray, lam: float) -> None:
    """In-order pass over all coordinates.

    Arithmetic is identical, bit for bit, to calling adcd_coordinate_update
    for i = 0..n-1 (a test pins this); only its execution is cheaper:

    - the columns c = a + e_mat are formed once per sweep, since e_mat is
      fixed during it, with a contiguous transposed copy so that column i
      is a row view; the support columns are gathered by fancy indexing,
      which keeps the memory layout (and so the matvec bits) of the
      per-call gather;
    - the partial residual is recomputed only when its inputs change.  A
      zero coordinate's residual runs over the whole support, so
      consecutive zero coordinates share it while x is unchanged (same
      inputs, same bits); it is dropped as soon as any coordinate changes
      value.

    The counted multiply-adds still charge every from-scratch rebuild, as
    the per-call update does: that is the baseline's algorithmic cost.
    """
    m, n = a.shape
    x = state.x
    c = a + state.e_mat
    c_rows = np.ascontiguousarray(c.T)
    half = 0.5 * lam
    madds = 0
    support = x.nonzero()[0]
    shared = None  # residual over the whole support, valid while x is unchanged
    for i in range(n):
        old = float(x[i])
        if old != 0.0:
            idx = support[support != i]
            resid = None
        else:
            idx = support
            resid = shared
        cnt = idx.size
        if resid is None:
            resid = b - c[:, idx] @ x[idx] if cnt else b
            if old == 0.0:
                shared = resid
        if cnt:
            madds += 2 * m * cnt + m
        col = c_rows[i]
        rho = float(col.dot(resid))
        madds += 3 * m
        # inside the threshold the result is 0 whatever ||c_i||^2 is (a zero
        # column has rho = 0), so the norm is only needed outside it
        if rho > half or rho < -half:
            norm2 = float(col.dot(col))
            if norm2 == 0.0:
                new = 0.0
            elif rho > half:
                new = (rho - half) / norm2
            else:
                new = (rho + half) / norm2
        else:
            new = 0.0
        if new != old:
            x[i] = new
            shared = None
            if old == 0.0 or new == 0.0:
                support = x.nonzero()[0]
    state.flops.add(madds)


def adcd_step(state: AdcdState, a: np.ndarray, b: np.ndarray, lam: float) -> AdcdState:
    """One outer iteration: full in-order sweep, then the e update.

    The e update is charged m * nnz(x) + 2m + n + m * n multiply-adds.
    """
    m, n = a.shape
    _sweep(state, a, b, lam)
    x = state.x
    support = np.flatnonzero(x)
    ax = a[:, support] @ x[support] if support.size else np.zeros(m)
    resid = b - ax
    coef = 1.0 / (float(x @ x) + 1.0)
    state.e_mat = np.outer(coef * resid, x)
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

    The trace mirrors the proximal-gradient record schema (step size and
    backtrack fields are zero) so per-iteration outputs line up.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    m, n = a.shape
    if b.shape != (m,):
        raise ValueError(f"dimension mismatch: a {a.shape}, b {b.shape}")
    require_finite("a", a)
    require_finite("b", b)
    state = adcd_init(m, n)
    trace: list[TraceRecord] = []
    for _ in range(iterations):
        adcd_step(state, a, b, lam)
        cost = eval_cost(a, b, state.x, lam)
        err = None if ground_truth is None else squared_error(state.x, ground_truth)
        trace.append(
            TraceRecord(
                iteration=state.n,
                cost=cost.total,
                f=cost.f,
                mu=0.0,
                backtracks=0,
                flops=state.flops.madds,
                sq_error=err,
            )
        )
    return SolveResult(x=state.x.copy(), trace=trace)
