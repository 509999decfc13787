"""Reconstruction-quality and support-detection measures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SupportErrors:
    false_negatives: int  # true nonzeros estimated as exact zero
    false_positives: int  # true zeros estimated as nonzero


def squared_error(x_hat: np.ndarray, x_true: np.ndarray) -> float:
    """Squared l2 distance ||x_hat - x_true||^2."""
    if x_hat.shape != x_true.shape:
        raise ValueError(f"length mismatch: {x_hat.shape} vs {x_true.shape}")
    d = x_hat - x_true
    return float(d @ d)


def support_errors(x_hat: np.ndarray, x_true: np.ndarray) -> SupportErrors:
    """Count support misses; zero means exact binary zero, no threshold.

    Both solvers produce zeros only through soft-thresholding, so an
    epsilon-free comparison is well-defined.
    """
    if x_hat.shape != x_true.shape:
        raise ValueError(f"length mismatch: {x_hat.shape} vs {x_true.shape}")
    hat_zero = x_hat == 0.0
    true_zero = x_true == 0.0
    fn = int(np.count_nonzero(~true_zero & hat_zero))
    fp = int(np.count_nonzero(true_zero & ~hat_zero))
    return SupportErrors(false_negatives=fn, false_positives=fp)
