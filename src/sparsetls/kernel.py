"""Shared math kernel for both solvers.

Cost model: c(x) = f(x) + lam * ||x||_1 with the quotient residual

    f(x) = ||a x - b||^2 / (||x||^2 + 1),

the total-least-squares residual expressed through x alone.  The gradient
uses the cached products a^T a and a^T b, and exact zeros in x are skipped
(support_matvec) so the matrix-vector work scales with the support size.

What depends on a alone is made once per instance, by a Matrix: a
C-contiguous a^T for both solvers, and a^T a (PG) and the squared row
norms (AD-CD) when first read, so a solver that never reads one never
makes it.  The experiment cell runner makes one per instance and passes
it to every solve of that instance, at every lambda and by both
algorithms; a solve given none makes its own through the same
constructor.

A support gather is rows.take(s, axis=0), which has the bytes, shape and
strides of rows[s] with less of numpy's per-call cost, and support_block
is the only place that makes one.  A SupportRows holds a matrix with the
last block gathered from it, keyed by the bytes of s, which compare its
length and every index for far less than a gather costs, and gathers
again only when s changes.  A hit runs the same BLAS call on the same
bytes, so every bit is that of a fresh gather, as long as nothing writes
the matrix: each solver's init wraps the Matrix's arrays in SupportRows
of its own state, and nothing writes them.  support_quotient, the
quotient both solvers evaluate at every iterate, takes its block from
support_block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class CostEval:
    f: float        # quotient residual, >= 0
    y: float        # 1 / (||x||^2 + 1), in (0, 1]
    penalty: float  # lam * ||x||_1
    total: float    # f + penalty


def eval_cost(a: np.ndarray, b: np.ndarray, x: np.ndarray, lam: float) -> CostEval:
    """Evaluate the composite cost at x over every column of a (an oracle)."""
    require_lambda(lam)
    if a.shape[0] != b.shape[0] or a.shape[1] != x.shape[0]:
        raise ValueError(f"dimension mismatch: a {a.shape}, b {b.shape}, x {x.shape}")
    _, y, f, _ = support_quotient(SupportRows(a.T), b, x, np.arange(x.shape[0]))
    penalty = lam * float(np.abs(x).sum())
    return CostEval(f=f, y=y, penalty=penalty, total=f + penalty)


class SupportRows:
    """rows (a.T, a C-contiguous copy of it, or the symmetric a^T a) and
    block = rows[s] for the support s whose bytes are key (both None
    before the first gather).  Neither rows nor block may be written while
    held: a caller that needs modified rows (AD-CD's sweep adds v[s] u^T to
    the block) computes them into an array of its own."""

    __slots__ = ("rows", "key", "block")

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = rows
        self.key: Optional[bytes] = None
        self.block: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.rows.shape


class Matrix:
    """A matrix a with what the solvers read of a alone: a_t, a
    C-contiguous copy of a.T, and, each made when first read, ata = a^T a
    (PG's gradient) and sq_norms, the squared row norms a_i . a_i of a_t
    (AD-CD's sweep).  One is made per instance and passed to every solve
    of it; a solve given none makes its own (see matrix_of).  Nothing
    writes a or these arrays while they are held, so each has the bytes of
    computing it again: a state wraps them in SupportRows of its own."""

    def __init__(self, a: np.ndarray) -> None:
        self.a = a
        self.a_t = a.T.copy()

    @cached_property
    def ata(self) -> np.ndarray:
        return self.a.T @ self.a

    @cached_property
    def sq_norms(self) -> np.ndarray:
        return np.vecdot(self.a_t, self.a_t)


def matrix_of(a: np.ndarray, mat: Optional[Matrix]) -> Matrix:
    """mat, which must have been made from the array a itself, or a new
    Matrix(a) when mat is None; an object made from any other array, even
    one with a's bytes, raises ValueError."""
    if mat is None:
        return Matrix(a)
    if mat.a is not a:
        raise ValueError("mat was made from another array than a")
    return mat


def support_block(rows: np.ndarray | SupportRows, support: np.ndarray) -> np.ndarray:
    """rows[support], kept in rows for the next call with the same
    support when rows is a SupportRows; support is an index array from
    nonzero(), so equal supports have equal bytes.  The gather is the
    method take (the function np.take costs what indexing does), into a
    new array each time, since a caller may keep a block past the next
    gather (AD-CD's layout does).  Callers must not write the block."""
    held = rows if type(rows) is SupportRows else SupportRows(rows)
    key = support.tobytes()
    if key != held.key:
        held.block = held.rows.take(support, axis=0)
        held.key = key
    return held.block


def support_matvec(
    rows: np.ndarray | SupportRows,
    x: np.ndarray,
    support: np.ndarray,
    xs: Optional[np.ndarray] = None,
) -> np.ndarray:
    """a[:, s] @ x[s] with rows = a.T (or a C-contiguous copy), s = support.

    rows[s].T holds the values of a[:, s] in the same column-major layout,
    so it is the same BLAS call on the same bytes; from a contiguous copy
    each gathered row is one contiguous run.  rows may be a SupportRows.
    xs, when given, must be x[s] (a caller that already made it passes it).

    The product is formed as x[s].dot(rows[s]), which makes the BLAS call
    of rows[s].T @ x[s] (the same gemv on the same bytes) with less of
    numpy's per-call overhead; tests/test_kernel.py::TestRowDots pins the
    bytes, and the one exception, a single product that is a zero.
    """
    if support.size:
        return (x[support] if xs is None else xs).dot(support_block(rows, support))
    return np.zeros(rows.shape[1])


def support_quotient(
    held: SupportRows, b: np.ndarray, x: np.ndarray, support: np.ndarray
) -> tuple[np.ndarray, float, float, np.ndarray]:
    """(a x - b, y, f, x[s]) with y = 1/(||x||^2+1), f = y ||a x - b||^2
    and s = support, which must hold every nonzero of x; held keeps a.T
    (or a C-contiguous copy) and its last block.  The gather and the
    product of support_matvec in one call: each line-search trial makes
    one."""
    block = support_block(held, support)
    xs = x[support]
    ax = xs.dot(block) if support.size else np.zeros(b.shape[0])
    resid = ax - b
    y = 1.0 / (float(x.dot(x)) + 1.0)
    return resid, y, y * float(resid.dot(resid)), xs


def gradient(
    ata: np.ndarray | SupportRows,
    atb: np.ndarray,
    x: np.ndarray,
    y: float,
    f: float,
    support: Optional[np.ndarray] = None,
    xs: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gradient of the quotient residual: 2 y (a^T a x - a^T b - f x).

    ata and atb must be the cached a^T a and a^T b; y and f must be the
    values of 1/(||x||^2+1) and f(x) at this x.  The columns of ata whose
    x entry is an exact zero are skipped, so the product costs n * nnz(x)
    multiply-adds (n^2 worst case) and the remaining terms cost 3 n; the
    caller charges them (see prox_solver.pg_step).

    `support`, when given, must equal x.nonzero()[0] (the solver keeps
    it as a state invariant); it is computed here when omitted, and so is
    xs = x[support] (the accepted trial's, which pg_step passes).  ata must
    be symmetric bit for bit, as a.T @ a comes out of BLAS, so its rows
    are its columns and support_matvec gathers them directly.  ata may be
    a SupportRows over it, which keeps its block between calls.
    """
    n = x.shape[0]
    if ata.shape != (n, n) or atb.shape != (n,):
        raise ValueError(f"dimension mismatch: ata {ata.shape}, atb {atb.shape}, x {x.shape}")
    if support is None:
        support = x.nonzero()[0]
    return (2.0 * y) * (support_matvec(ata, x, support, xs) - atb - f * x)


def require_system(a: np.ndarray, b: np.ndarray, lam: float) -> None:
    """Raise ValueError unless lam is positive and finite, b has one entry
    per row of the matrix a, and neither holds a NaN or an infinity."""
    require_lambda(lam)
    if a.ndim != 2 or b.shape != (a.shape[0],):
        raise ValueError(f"dimension mismatch: a {a.shape}, b {b.shape}")
    for name, arr in (("a", a), ("b", b)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} contains non-finite values")


def require_budget(iterations: int, ground_truth: Optional[np.ndarray], n: int) -> None:
    """Raise ValueError unless iterations >= 1 and a ground truth, when
    given, has the iterate's length n (it would otherwise broadcast)."""
    require_count(iterations, "iterations")
    if ground_truth is not None and ground_truth.shape != (n,):
        raise ValueError(f"length mismatch: ({n},) vs {ground_truth.shape}")


def require_count(value: int, name: str) -> None:
    """Raise ValueError unless value >= 1; `name` (iterations, trials)
    leads the message."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


def require_lambda(lam: float) -> None:
    """Raise ValueError unless lam is a finite number above zero (a NaN
    would pass a plain `lam <= 0` test)."""
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be positive and finite, got {lam!r}")


def shrink(z: np.ndarray, t: float) -> np.ndarray:
    """Soft-threshold each entry of z by t >= 0.

    z_i - t when z_i > t, z_i + t when z_i < -t, exactly 0 when |z_i| <= t
    (the boundary |z_i| = t maps to 0).  This is the proximity operator of
    t * ||.||_1, and the only place iterates acquire exact zeros.

    Computed as z minus z clipped to [-t, t]: outside the interval that is
    the single rounding of z - t or z + t, the same bits as
    sign(z) * (|z| - t); inside it is z - z, so every zero comes out as
    +0.0, never -0.0.
    """
    return z - np.minimum(np.maximum(z, -t), t)
