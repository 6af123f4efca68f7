"""One-hot class targets: the networks' ``(n, n_classes)`` training targets,
also used by the classical baselines."""

from __future__ import annotations

import numpy as np

__all__ = ["one_hot"]


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode an integer vector into a ``(n, num_classes)`` float array."""
    indices = np.asarray(indices, dtype=np.int64).reshape(-1)
    if indices.size and (indices.min() < 0 or indices.max() >= num_classes):
        raise ValueError(
            f"indices must be in [0, {num_classes}), got range "
            f"[{indices.min()}, {indices.max()}]"
        )
    encoded = np.zeros((len(indices), num_classes))
    encoded[np.arange(len(indices)), indices] = 1.0
    return encoded
