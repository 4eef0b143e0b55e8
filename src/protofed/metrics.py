"""Evaluation metrics over integer class predictions, plus the per-round record."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "RoundRecord",
    "accuracy",
    "rmse_mae",
    "macro_f1",
    "average_accuracy",
]


@dataclass(frozen=True)
class RoundRecord:
    """Everything a round leaves behind.

    Loss components are means over the round's participants; metrics are
    computed on the global test pool (or per-client pools for personal
    models). wall_time and the payload bytes are bookkeeping only and are
    deliberately left out of the deterministic CSV serialization:
    bytes_down went to each selected client, bytes_up came back from
    each, in ``selected`` order.
    """

    round_idx: int
    selected: tuple[int, ...]
    ce: float
    distill: float
    align: float
    proto: float
    acc: float
    rmse: float
    mae: float
    macro_f1: float
    wall_time: float
    bytes_down: int
    bytes_up: tuple[int, ...]


def _paired(preds, labels) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(preds, dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)
    if p.ndim != 1 or p.shape != y.shape:
        raise ValueError(f"predictions {p.shape} and labels {y.shape} must be equal-length vectors")
    if p.size == 0:
        raise ValueError("metrics need at least one prediction")
    return p, y


def accuracy(preds, labels) -> float:
    p, y = _paired(preds, labels)
    return float(np.mean(p == y))


def rmse_mae(preds, labels) -> tuple[float, float]:
    """Root-mean-square and mean-absolute error over class indices."""
    p, y = _paired(preds, labels)
    diff = (p - y).astype(np.float64)
    return float(np.sqrt(np.mean(diff**2))), float(np.mean(np.abs(diff)))


def macro_f1(preds, labels, num_classes: int) -> float:
    """Unweighted mean of per-class F1; a class with no true and no
    predicted samples contributes 0 (conservative convention)."""
    p, y = _paired(preds, labels)
    if num_classes < 1:
        raise ValueError("num_classes must be >= 1")
    if min(p.min(), y.min()) < 0 or max(p.max(), y.max()) >= num_classes:
        raise ValueError("class index outside [0, num_classes)")
    scores = []
    for c in range(num_classes):
        tp = int(np.sum((p == c) & (y == c)))
        fp = int(np.sum((p == c) & (y != c)))
        fn = int(np.sum((p != c) & (y == c)))
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom else 0.0)
    return float(np.mean(scores))


def average_accuracy(per_round_acc: Sequence[float]) -> float:
    """Mean of the per-round global test accuracies over a whole run."""
    arr = np.asarray(per_round_acc, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("need at least one round accuracy")
    return float(np.mean(arr))
