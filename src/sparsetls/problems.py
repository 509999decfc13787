"""Synthetic fully-perturbed sparse recovery instances.

An instance is an underdetermined system a_true @ x_true = b_true whose
matrix and right-hand side are both observed through additive noise:
a = a_true - a_pert, b = b_true - b_pert.  Solvers only see (a, b); the
hidden truth is kept for error metrics.

Perturbation entries are i.i.d. Gaussian with variance xi / m, so columns
of a_true (unit expected norm by construction) and the perturbation share
a common scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from hashlib import sha256
from pathlib import Path

import numpy as np

from .rng import RngStream, require_u64


class Ensemble(Enum):
    GAUSSIAN = "gaussian"
    RADEMACHER = "rademacher"


@dataclass
class ScenarioConfig:
    """Dimensions and noise level of a synthetic scenario.

    n: signal length (columns), m: measurement count (rows), k: number of
    nonzeros in the ground truth.  Requires k < m < n and a seed in
    [0, 2**64).
    """

    n: int
    m: int
    k: int
    ensemble: Ensemble
    xi: float
    seed: int = 0

    def __post_init__(self) -> None:
        require_dims(self.k, self.m, self.n)
        require_xi(self.xi)
        require_u64(self.seed, "seed")


def require_dims(k: int, m: int, n: int) -> None:
    """Raise ValueError unless 0 < k < m < n."""
    if not (0 < k < m < n):
        raise ValueError(f"need 0 < k < m < n, got k={k} m={m} n={n}")


def require_xi(xi: float) -> None:
    """Raise ValueError unless xi is a finite number at or above zero (a
    NaN would pass a plain `xi < 0` test)."""
    if not (math.isfinite(xi) and xi >= 0):
        raise ValueError(f"xi must be non-negative and finite, got {xi!r}")


# stream-derivation tags; "custom" shares tag 0
SCENARIO_TAGS = {"s1": 1, "s2": 2, "custom": 0}


def scenario_config(name: str, xi: float = 0.01, seed: int = 0) -> ScenarioConfig:
    """The two named benchmark scenarios."""
    if name == "s1":
        return ScenarioConfig(n=40, m=20, k=5, ensemble=Ensemble.GAUSSIAN, xi=xi, seed=seed)
    if name == "s2":
        return ScenarioConfig(n=200, m=80, k=20, ensemble=Ensemble.RADEMACHER, xi=xi, seed=seed)
    raise ValueError(f"unknown scenario {name!r} (expected 's1' or 's2')")


@dataclass
class ProblemInstance:
    """One synthetic instance: hidden truth plus the observed pair.

    a_true @ x_true == b_true; a = a_true - a_pert and b = b_true - b_pert
    hold exactly as generated.
    """

    a_true: np.ndarray   # m x n unperturbed system matrix
    x_true: np.ndarray   # n sparse ground truth, unit l2 norm
    b_true: np.ndarray   # m unperturbed right-hand side
    a_pert: np.ndarray   # m x n matrix perturbation
    b_pert: np.ndarray   # m right-hand-side perturbation
    a: np.ndarray        # observed matrix
    b: np.ndarray        # observed right-hand side


def gaussian_matrix(m: int, n: int, variance: float, rng: RngStream) -> np.ndarray:
    """m x n matrix of i.i.d. zero-mean Gaussians with the given variance."""
    if variance < 0:
        raise ValueError("variance must be non-negative")
    scale = math.sqrt(variance)
    return scale * rng.normal_block(m * n).reshape(m, n)


def rademacher_matrix(m: int, n: int, rng: RngStream) -> np.ndarray:
    """m x n matrix with entries exactly +-1/sqrt(m), fair sign per entry."""
    w = rng.u64_block(m * n)
    mag = 1.0 / math.sqrt(m)
    return np.where((w >> np.uint64(63)) == 0, mag, -mag).reshape(m, n)


def sparse_signal(n: int, k: int, rng: RngStream) -> np.ndarray:
    """Unit-norm vector with a uniformly random k-subset support.

    Support comes from a partial Fisher-Yates shuffle; values are standard
    normal, redrawn on the (measure-zero) event of an exact zero so the
    nonzero count is exactly k, then the vector is scaled to unit l2 norm.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k} n={n}")
    pool = list(range(n))
    for i in range(k):
        j = i + rng.below(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    support = sorted(pool[:k])
    vals = rng.normal_block(k)
    while True:
        dead = vals == 0.0
        if not dead.any():
            break
        vals[dead] = rng.normal_block(int(dead.sum()))
    vals /= math.sqrt(float(vals @ vals))
    x = np.zeros(n)
    x[support] = vals
    return x


def generate_instance(cfg: ScenarioConfig, rng: RngStream) -> ProblemInstance:
    """Draw one instance; consumes the stream in a fixed order.

    Draw order is part of the format: system matrix, signal, matrix
    perturbation, rhs perturbation.  With a shared stream, instances for
    different xi differ only in perturbation scale (common random numbers).
    """
    m, n = cfg.m, cfg.n
    if cfg.ensemble is Ensemble.GAUSSIAN:
        a_true = gaussian_matrix(m, n, 1.0 / m, rng)
    else:
        a_true = rademacher_matrix(m, n, rng)
    x_true = sparse_signal(n, cfg.k, rng)
    b_true = a_true @ x_true
    pert_var = cfg.xi / m
    a_pert = gaussian_matrix(m, n, pert_var, rng)
    b_pert = math.sqrt(pert_var) * rng.normal_block(m)
    return ProblemInstance(
        a_true=a_true,
        x_true=x_true,
        b_true=b_true,
        a_pert=a_pert,
        b_pert=b_pert,
        a=a_true - a_pert,
        b=b_true - b_pert,
    )


def instance_digest(inst: ProblemInstance) -> str:
    """SHA-256 over all instance arrays; equal digests mean equal instances."""
    h = sha256()
    for arr in (inst.a_true, inst.x_true, inst.b_true, inst.a_pert, inst.b_pert, inst.a, inst.b):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@dataclass
class InstanceHeader:
    """Scalar metadata stored on the first line of an instance file."""

    m: int
    n: int
    k: int
    xi: float
    seed: int


def _fmt_row(row: np.ndarray) -> str:
    return " ".join(f"{v:.17g}" for v in row)


# the blocks of an instance file, in file order: (label, ProblemInstance
# field); the other fields follow from the identities b_true = b + b_pert
# and a = a_true - a_pert
_BLOCKS = (("A_o", "a_true"), ("x_o", "x_true"), ("E_o", "a_pert"), ("e_o", "b_pert"), ("b", "b"))


def save_instance(inst: ProblemInstance, cfg: ScenarioConfig, path: str | Path) -> None:
    """Write the text dump: header line, then one labeled value block per
    entry of _BLOCKS, one text row per matrix row.

    Values carry 17 significant digits, enough to round-trip float64
    exactly.  Only the independent arrays are stored; the loader rebuilds
    the observed matrix and the clean rhs from the defining identities.
    """
    lines = [f"PCS1 {cfg.m} {cfg.n} {cfg.k} {cfg.xi:.17g} {cfg.seed}"]
    for label, field in _BLOCKS:
        lines.append(label)
        lines.extend(_fmt_row(r) for r in np.atleast_2d(getattr(inst, field)))
    Path(path).write_text("\n".join(lines) + "\n")


def _read_block(
    lines: list[str], pos: int, label: str, shape: tuple[int, ...], path: str | Path
) -> tuple[np.ndarray, int]:
    """Parse the block `label` starting at line index pos into an array of
    `shape` (one text row per matrix row) and return it with the index of
    the line after the block; ValueError on any mismatch."""
    rows, cols = (shape[0], shape[1]) if len(shape) == 2 else (1, shape[0])
    if pos >= len(lines) or lines[pos] != label:
        raise ValueError(f"{path}: expected block {label!r} at line {pos + 1}")
    if pos + rows >= len(lines):
        raise ValueError(f"{path}: block {label!r} is truncated (needs {rows} rows)")
    data = np.empty((rows, cols))
    for r in range(rows):
        lineno = pos + r + 2
        try:
            values = [float(v) for v in lines[pos + 1 + r].split()]
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from exc
        if len(values) != cols:
            raise ValueError(
                f"{path}: line {lineno}: block {label!r} needs {cols} values per row, got {len(values)}"
            )
        data[r] = values
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: block {label!r} contains non-finite values")
    return data.reshape(shape), pos + 1 + rows


def load_instance(path: str | Path) -> tuple[ProblemInstance, InstanceHeader]:
    """Read an instance file written by save_instance.

    Strict: the header must give 0 < k < m < n, a finite xi >= 0 and a
    seed in [0, 2**64), as a ScenarioConfig requires; the blocks must come
    in the order of _BLOCKS, each with the shape the header gives (A_o and
    E_o m x n, x_o n, e_o and b m); every value must be finite, x_o must
    have exactly k nonzero entries, and nothing but blank lines may follow
    the last block.  Any violation, including a truncated file, raises
    ValueError.
    """
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("PCS1 "):
        raise ValueError(f"{path}: not an instance file (missing PCS1 header)")
    fields = lines[0].split()
    if len(fields) != 6:
        raise ValueError(f"{path}: malformed header line")
    try:
        header = InstanceHeader(
            m=int(fields[1]), n=int(fields[2]), k=int(fields[3]),
            xi=float(fields[4]), seed=int(fields[5]),
        )
        require_dims(header.k, header.m, header.n)
        require_xi(header.xi)
        require_u64(header.seed, "seed")
    except ValueError as exc:
        raise ValueError(f"{path}: header: {exc}") from exc
    m, n = header.m, header.n

    pos = 1
    blocks: dict[str, np.ndarray] = {}
    for label, field in _BLOCKS:
        shape = {"x_true": (n,), "b_pert": (m,), "b": (m,)}.get(field, (m, n))
        blocks[field], pos = _read_block(lines, pos, label, shape, path)
    for lineno in range(pos, len(lines)):
        if lines[lineno].strip():
            raise ValueError(f"{path}: unexpected data after the last block at line {lineno + 1}")

    nnz = int(np.count_nonzero(blocks["x_true"]))
    if nnz != header.k:
        raise ValueError(f"{path}: block 'x_o' has {nnz} nonzero entries, the header k={header.k}")
    b_true, a = blocks["b"] + blocks["b_pert"], blocks["a_true"] - blocks["a_pert"]
    return ProblemInstance(**blocks, b_true=b_true, a=a), header
