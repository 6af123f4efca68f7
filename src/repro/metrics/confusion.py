"""Confusion-matrix utilities."""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["confusion_matrix", "binary_confusion_counts"]


def confusion_matrix(
    y_true: np.ndarray, y_pred: np.ndarray, num_classes: Optional[int] = None
) -> np.ndarray:
    """Return the ``(num_classes, num_classes)`` confusion matrix.

    Rows index the true class, columns the predicted class.
    """
    y_true = np.asarray(y_true, dtype=np.int64).reshape(-1)
    y_pred = np.asarray(y_pred, dtype=np.int64).reshape(-1)
    if y_true.shape != y_pred.shape:
        raise ValueError(
            f"y_true and y_pred lengths differ: {len(y_true)} vs {len(y_pred)}"
        )
    if num_classes is None:
        num_classes = int(max(y_true.max(initial=-1), y_pred.max(initial=-1)) + 1)
    if y_true.size and (y_true.min() < 0 or y_pred.min() < 0):
        raise ValueError("class indices must be non-negative")
    if y_true.size and (y_true.max() >= num_classes or y_pred.max() >= num_classes):
        raise ValueError("class index exceeds num_classes")
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(matrix, (y_true, y_pred), 1)
    return matrix


def binary_confusion_counts(y_true: np.ndarray, y_pred: np.ndarray) -> dict:
    """TP/TN/FP/FN counts for binary labels where 1 = attack, 0 = normal.

    Follows the paper's Section V-B convention: TP counts attacks flagged as
    attacks, FP counts normal records flagged as attacks.
    """
    y_true = np.asarray(y_true, dtype=np.int64).reshape(-1)
    y_pred = np.asarray(y_pred, dtype=np.int64).reshape(-1)
    if y_true.shape != y_pred.shape:
        raise ValueError(
            f"y_true and y_pred lengths differ: {len(y_true)} vs {len(y_pred)}"
        )
    invalid = set(np.unique(np.concatenate([y_true, y_pred]))) - {0, 1}
    if invalid:
        raise ValueError(f"binary labels must be 0/1, found {sorted(invalid)}")
    return {
        "tp": int(np.sum((y_true == 1) & (y_pred == 1))),
        "tn": int(np.sum((y_true == 0) & (y_pred == 0))),
        "fp": int(np.sum((y_true == 0) & (y_pred == 1))),
        "fn": int(np.sum((y_true == 1) & (y_pred == 0))),
    }
