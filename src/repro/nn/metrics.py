"""Training-time metrics reported by ``Model.fit`` and ``Model.evaluate``.

These are lightweight numpy computations on predictions; the richer
intrusion-detection metrics (detection rate, false-alarm rate) live in
:mod:`repro.metrics`.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

__all__ = ["categorical_accuracy", "get_metric"]


def categorical_accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of samples whose argmax prediction matches the one-hot target."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    return float(np.mean(np.argmax(y_true, axis=-1) == np.argmax(y_pred, axis=-1)))


_REGISTRY: Dict[str, Callable[[np.ndarray, np.ndarray], float]] = {
    "accuracy": categorical_accuracy,
    "categorical_accuracy": categorical_accuracy,
}


def get_metric(identifier: str) -> Callable[[np.ndarray, np.ndarray], float]:
    """Resolve a metric from its name."""
    try:
        return _REGISTRY[identifier]
    except KeyError as exc:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown metric {identifier!r}; known metrics: {known}") from exc
