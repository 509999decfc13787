"""Alternating-direction coordinate-descent baseline (AD-CD).

Minimizes ||(a + e) x - b||^2 + ||e||_F^2 + lam * ||x||_1 by alternating a
Gauss-Seidel soft-threshold sweep over the entries of x (with the
perturbation estimate e fixed) and the closed-form rank-one update

    e <- (b - a x) x^T / (||x||^2 + 1)

which is the exact minimizer over e for fixed x.  As counted, per
coordinate the partial residual is rebuilt from scratch, skipping
exact-zero entries of x, so a sweep costs on the order of n * m * nnz(x)
multiply-adds, and e is formed as an explicit dense matrix.  Both choices
are deliberate: they are what the per-iteration cost comparison against
the proximal-gradient solver is about, and each step charges every
rebuild and the m * n of forming e to the state's flops.

adcd_init(a, b, lam) binds the system to the state it returns, and
adcd_step(state) reads everything from the state.  adcd_coordinate_update
is the from-scratch update, one coordinate per call, kept as the
reference the sweep is tested against.  The sweep executes the same
algorithm more cheaply:

- on a running residual (the "naive update" of coordinate descent;
  Friedman, Hastie and Tibshirani, J. Stat. Softw. 2010): r = b - (a + e) x
  is built once per sweep and updated after every coordinate that
  changes.  The values differ from the per-call update only by rounding,
  and r is rebuilt at the start of every sweep, so that drift never
  outlives one sweep;
- with e kept as its rank-one factors, e = u v^T, where v is the iterate
  at the last e update.  The column c_i = a_i + v_i u is a_i itself where
  v_i = 0, so the sweep reads a's own columns there and adds v_i u only on
  P = supp(x) + supp(v), which in a solve is the support;
- with what depends on a alone made once a solve, by adcd_init: a
  C-contiguous copy of a^T, held as a kernel.SupportRows, and its squared
  row norms a_i . a_i, from one np.vecdot.  A sweep forms the columns of
  P as one block, from a^T[P], and reads a^T and its norms themselves
  everywhere else.  It is one pass over P: each coordinate of P once,
  then the run of zero coordinates that follows it (the run ahead of P's
  first coordinate comes first), so every run is made of columns with
  v_i = 0, c_i = a_i.  a^T[P] and the layout of the runs, with the
  largest ||a_i|| of each, are made only when P changes, keyed by the
  bytes of P, as a SupportRows keys its block.  So the set-up outside the
  coordinate loop and the screen is O(|P| m), not O(n m);
- checking a run of zero coordinates exactly only where a bound cannot
  prove that none of them leaves zero (a screen in the manner of the
  strong rules of Tibshirani et al., JRSS-B 2012, but safe, so no check
  is lost; see _sweep).

None of these changes a bit in a state a solve reaches: x, e, f and the
counted multiply-adds are those of the running-residual sweep on a dense
e (a is never written during a solve, so what is kept has the bytes of
computing it again).  There each e update sets v = x, so every sweep
starts with P = supp(x).  Only a caller that writes the state can make a
coordinate of P with x_i = 0; its rho then comes from its own dot, not a
row of its run's product, so the values may differ by rounding (the
tests hold such states to a stated tolerance, with exact supports and
multiply-adds).

adcd_solve returns the same columnar SolveResult as the proximal-gradient
solver, filled by the same loop.  Its cost c(x) = f + lam * ||x||_1 (the
joint objective once e is at its minimizer) reads f from the state: the
e update's residual, through kernel.support_quotient, gives it with no
second pass over a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .kernel import (SupportRows, require_budget, require_system, support_block, support_matvec,
                     support_quotient)
from .prox_solver import SolveResult


@dataclass
class AdcdState:
    """Iterate and perturbation estimate of one system (a, b, lam), e kept
    as its rank-one factors.

    e = u v^T: each e update sets u = (b - a x) / (||x||^2 + 1) and v = x,
    so v is the iterate at the last e update (both are zero before the
    first), the same array: a caller that changes x binds a new array, as
    the steps do, rather than writing x in place.  e_mat builds the dense
    m x n matrix on demand, with the bits of the np.outer(u, v) a dense e
    update would have stored.  What the sweep and the e update read of a
    alone, rows and sq_norms, is made once by adcd_init; a must not be
    written while a state holds them.  The sweep's layout (a^T[P] and its
    runs of zero coordinates) depends only on P = supp(x) + supp(v), rows
    and sq_norms, and is kept keyed by the bytes of P.
    """

    x: np.ndarray       # current iterate, length n
    u: np.ndarray       # left factor of e, length m
    v: np.ndarray       # right factor of e, length n
    b: np.ndarray
    lam: float
    rows: SupportRows   # a C-contiguous copy of a^T, with its last support block
    sq_norms: np.ndarray  # the squared row norms of rows, a_i . a_i
    layout_key: Optional[bytes] = None  # P.tobytes() of layout
    layout: tuple = ()  # (a^T[P], cuts, runs) of the sweep from that P
    n: int = 0          # completed outer iterations
    f: float = math.nan  # quotient residual f(x), set by each e update
    flops: int = 0      # counted multiply-adds, charged by each step
    # no step size, no line search: the mu and backtracks columns read 0
    mu: ClassVar[float] = 0.0
    backtracks_last: ClassVar[int] = 0

    @property
    def e_mat(self) -> np.ndarray:
        """The perturbation estimate u v^T, m x n."""
        return np.outer(self.u, self.v)


def adcd_init(a: np.ndarray, b: np.ndarray, lam: float) -> AdcdState:
    """All-zero starting state of the system (a, b, lam).  A NaN or
    infinity in a or b, or a lam that is not positive and finite, raises
    ValueError here, before the first sweep."""
    require_system(a, b, lam)
    m, n = a.shape
    rows = np.ascontiguousarray(a.T)
    return AdcdState(
        x=np.zeros(n), u=np.zeros(m), v=np.zeros(n), b=b, lam=lam,
        rows=SupportRows(rows), sq_norms=np.vecdot(rows, rows),
    )


def adcd_coordinate_update(state: AdcdState, i: int) -> float:
    """Exact minimization of the objective over coordinate i (in place),
    for the state's system (a, b, lam) and perturbation e.

    With column c_j = a[:, j] + e_mat[:, j], the partial residual excludes
    coordinate i and skips exact-zero entries of x:

        resid = b - sum_{j != i, x_j != 0} c_j x_j

    and the new value soft-thresholds resid . c_i at lam / 2, scaled by
    ||c_i||^2 (the boundary |resid . c_i| = lam / 2 maps to 0).  A zero
    column gets x_i = 0.  The new value goes into a copy of x, which the
    state then binds, as adcd_step does: v may be the array x was.
    """
    b, x = state.b, state.x.copy()
    others = np.flatnonzero(x)
    others = others[others != i]
    c = state.rows.rows.T + state.e_mat
    resid = b - support_matvec(c.T, x, others)
    col = c[:, i]
    state.flops += _update_madds(b.shape[0], int(others.size))
    new = _threshold(float(col @ resid), 0.5 * state.lam, float(col @ col))
    x[i] = new
    state.x = x
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


def _sweep(state: AdcdState) -> None:
    """In-order pass over all coordinates, on a running residual.

    The values are those of calling adcd_coordinate_update for
    i = 0..n-1, up to floating-point rounding (a test holds the two to a
    stated tolerance, with exact supports and multiply-adds); only the
    execution is cheaper.  e = u v^T is fixed during the sweep, so each
    column c_i = a_i + v_i u is formed once.  Outside P = supp(x) + supp(v)
    that sum is a_i itself (a_ij + 0.0 = a_ij).  P's columns are one
    block, np.multiply.outer(v[P], u) with a^T[P] added in place (the bytes
    of np.outer plus the block of a SupportRows, kept with the layout),
    whose rows P's coordinates read in place.

    The pass visits each coordinate of P once, even one with x_i = 0, and
    after it the run of zero coordinates that follows it, if any; the run
    ahead of P's first coordinate is the loop's first entry.  So the zero
    runs are made of unperturbed columns and read a^T and its squared row
    norms as adcd_init made them.  In a solve P is the support (each e
    update sets v = x), so this costs nothing there.  The runs, each as
    (its index among rho0's cuts, lo, hi, its largest ||a_i||), depend on
    P alone and are made when P changes.  Each
    norm2 = c_i . c_i the sweep reads is a row of np.vecdot: of the block
    on P, and the solve's squared row norms elsewhere.  A row of np.vecdot
    has the bytes of c_i.dot(c_i) (tests/test_kernel.py::TestRowDots pins
    this).  The full residual r = b - c x is built once, from the block,
    at the start of the sweep and then kept current:

    - a coordinate of P gets rho = c_i . r + x_i norm2, which is
      c_i . resid for the partial residual that excludes i; after the
      update r -= (new - old) c_i.  Its threshold runs inline on Python
      floats (the formula of _threshold), with x_i read from one tolist()
      of x[P]: a coordinate is visited once, so until then its entry is the
      one the sweep started with, and P's new values go into x in one
      assignment at the end;
    - a zero coordinate's partial residual is r itself, so the rhos of a
      run of zero coordinates come from one product with the contiguous
      block of their rows.  The first rho outside +-lam / 2 ends the run:
      that coordinate leaves zero (and writes its own entry of x), r
      changes, and the rest of the run is recomputed from the new r.

    The charges are _update_madds over the nnz other nonzero entries (a
    zero coordinate's) and over nnz - 1 (a nonzero coordinate of P's);
    both are kept as ints and made again only when nnz changes.

    That product is skipped while a bound proves that no rho of the run
    can leave [-lam / 2, lam / 2].  With r0 the residual at the start of
    the sweep, rho0_i = |c_i . r0| (one product with a^T per sweep, whose
    outputs on the rows of P are never read) and drift = sum |d_t| ||c_t||
    over the updates r -= d_t c_t made so far, the run is quiet when

        max_run rho0 + max_run ||c_i|| * (drift + tol (drift + ||r0||))

    is below lam / 2, the two maxima per run coming from np.maximum.reduceat;
    the norms' is the square root of the run's largest norm2, which is the
    largest computed norm N_i = sqrt(norm2) since sqrt is monotone, and is
    made with the layout, since a run reads only a's norms.  The bracket
    changes only with drift, so it is computed once per update, by the
    same operations in the same order.  The
    margin covers every rounding, with u = 2^-53 and, to first order,
    gamma_k = k u, the bound of a computed length-k dot product
    (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1):

    - the run's product: |fl(c_i . r)| <= |c_i . r| + gamma_m ||c_i|| ||r||;
    - rho0's: |c_i . r0| <= rho0_i + gamma_m ||c_i|| ||r0||;
    - the updates: each moves r by -d_t c_t plus at most u ||r|| +
      2u |d_t| ||c_t||, so after at most n of them ||r - r0|| <=
      (1 + (n + 2) u) D + n u ||r0||, with D the exact drift;
    - the computed norms, ||r0|| and drift: each within (m + n + 3) u of
      the exact value, relatively.

    Summed, with N_i the computed ||c_i||, |fl(c_i . r)| <= rho0_i +
    N_i ((1 + (3m + 3n + 8) u) drift + (2m + n) u ||r0||), and
    tol = 8 (m + n + 4) u is more than twice both coefficients, which
    leaves room for the second-order terms and the four roundings of the
    screen's product term.  A computed sum below lam / 2 is at most
    lam / 2 (1 - u), which absorbs the rounding of its last addition.
    (Underflow, which needs entries below about 1e-154, is not covered; a
    NaN never passes the screen.)  So a skipped run is one the exact check
    would pass: the supports, the values and the counted multiply-adds are
    those of checking every run.

    r is rebuilt from scratch every sweep (e changes between sweeps), so
    rounding drift from the updates is confined to one sweep.  The
    counted multiply-adds still charge every from-scratch rebuild of the
    partial residual and the 3m of both dots, computed from the number of
    nonzero entries, as the per-call update does: that is the baseline's
    algorithmic cost.
    """
    n, m = state.rows.shape
    x, v, u = state.x, state.v, state.u
    a_t, sq_norms = state.rows.rows, state.sq_norms
    half = 0.5 * state.lam
    p_mask = np.logical_or(x, v)
    p = p_mask.nonzero()[0]
    key = p.tobytes()
    if key != state.layout_key:
        # from the P the sweep starts with (the entries ahead of the sweep
        # position have not changed): the cuts start each coordinate of P
        # and each zero run, as segments of rho0's reduceat; then per loop
        # entry, the leading run and the run after each coordinate of P,
        # (segment, lo, hi, largest ||a_i||), with lo = hi where none is
        cuts = (p_mask | np.concatenate(([True], p_mask[:-1]))).nonzero()[0]
        norm_max = np.sqrt(np.maximum.reduceat(sq_norms, cuts)).tolist()
        los = cuts.tolist()
        runs = [(0, 0, 0, 0.0)]
        for s, (lo, hi, in_p) in enumerate(zip(los, [*los[1:], n], p_mask[cuts].tolist())):
            if in_p:
                runs.append((s, hi, hi, 0.0))
            else:
                runs[-1] = (s, lo, hi, norm_max[s])
        state.layout_key, state.layout = key, (support_block(state.rows, p), cuts, runs)
    a_p, cuts, runs = state.layout
    block = np.multiply.outer(v[p], u)
    block += a_p
    xs = x[p]
    r = state.b - block.T @ xs
    rho0_max = np.maximum.reduceat(np.abs(a_t @ r), cuts).tolist()
    r0_norm = math.sqrt(float(r.dot(r)))
    tol = (m + n + 4) * 2.0**-50
    drift = 0.0
    screen = drift + tol * (drift + r0_norm)
    # a coordinate is visited once, so until then x's entry is the list's
    olds, norm2s = xs.tolist(), np.vecdot(block, block).tolist()
    nnz = len(olds) - olds.count(0.0)
    # the charges of a zero coordinate (nnz others) and of a nonzero one
    zero_madds, in_madds = _update_madds(m, nnz), _update_madds(m, nnz - 1)
    madds = 0
    for k, (s, i, hi, norm_hi) in enumerate(runs, -1):
        if k >= 0:
            # _threshold, inline
            col = block[k]
            old, norm2 = olds[k], norm2s[k]
            madds += in_madds if old else zero_madds
            rho = float(col.dot(r)) + old * norm2
            new = 0.0
            if norm2 != 0.0:
                if rho > half:
                    new = (rho - half) / norm2
                elif rho < -half:
                    new = (rho + half) / norm2
            if new != old:
                olds[k] = new
                step = new - old
                r -= step * col
                drift += abs(step) * math.sqrt(norm2)
                screen = drift + tol * (drift + r0_norm)
                if new == 0.0 or old == 0.0:  # nnz changes
                    nnz += 1 if new else -1
                    zero_madds, in_madds = _update_madds(m, nnz), _update_madds(m, nnz - 1)
        while i < hi and not rho0_max[s] + norm_hi * screen < half:
            rhos = a_t[i:hi] @ r
            leave = (np.abs(rhos) > half).nonzero()[0]
            if not leave.size:
                break
            j = i + int(leave[0])
            madds += (j + 1 - i) * zero_madds
            col = a_t[j]
            norm2 = float(sq_norms[j])
            new = _threshold(float(rhos[j - i]), half, norm2)
            if new != 0.0:
                x[j] = new
                r -= new * col
                drift += abs(new) * math.sqrt(norm2)
                screen = drift + tol * (drift + r0_norm)
                nnz += 1
                zero_madds, in_madds = _update_madds(m, nnz), _update_madds(m, nnz - 1)
            i = j + 1
        madds += (hi - i) * zero_madds
    x[p] = olds
    state.flops += madds


def adcd_step(state: AdcdState) -> AdcdState:
    """One outer iteration: full in-order sweep, then the e update.

    The sweep writes x in place, so the step first binds a copy of it: an
    iterate a step has returned is never written.  The e update keeps e's
    factors, u = -y (a x - b) and v = x, the array itself, which no step
    writes after this one returns it; its residual also gives state.f.
    It is charged m * nnz(x) + 2m + n + m * n multiply-adds, the m * n for
    forming e as the algorithm does.
    """
    state.x = state.x.copy()
    _sweep(state)
    x = state.x
    n, m = state.rows.shape
    support = x.nonzero()[0]
    resid, y, state.f, _ = support_quotient(state.rows, state.b, x, support)
    state.u = -y * resid
    state.v = x
    state.flops += m * int(support.size) + 2 * m + n + m * n
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
    state = adcd_init(a, b, lam)
    require_budget(iterations, ground_truth, a.shape[1])
    steps = (adcd_step(state) for _ in range(iterations))
    return SolveResult.from_states(steps, ground_truth)
