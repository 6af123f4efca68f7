"""Loss functions for training :mod:`repro.nn` models.

Each loss is a small class with a ``__call__(y_true, y_pred)`` method that
returns a scalar :class:`~repro.nn.tensor.Tensor` so gradients flow back into
the model.  ``y_true`` is always a plain numpy array; ``y_pred`` is the model's
output tensor.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor, clip, log, reduce_mean, reduce_sum

__all__ = ["Loss", "CategoricalCrossentropy", "get_loss"]

_EPSILON = 1e-7


class Loss:
    """Base class for losses; subclasses implement :meth:`call`."""

    name = "loss"

    def __call__(self, y_true: np.ndarray, y_pred: Tensor) -> Tensor:
        return self.call(np.asarray(y_true), as_tensor(y_pred))

    def call(self, y_true: np.ndarray, y_pred: Tensor) -> Tensor:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class CategoricalCrossentropy(Loss):
    """Cross-entropy of probability predictions against one-hot targets."""

    name = "categorical_crossentropy"

    def call(self, y_true: np.ndarray, y_pred: Tensor) -> Tensor:
        if y_true.shape != y_pred.shape:
            raise ValueError(
                f"shape mismatch: targets {y_true.shape} vs predictions {y_pred.shape}"
            )
        probabilities = clip(y_pred, _EPSILON, 1.0 - _EPSILON)
        per_sample = reduce_sum(as_tensor(y_true) * log(probabilities) * -1.0, axis=-1)
        return reduce_mean(per_sample)


_REGISTRY = {"categorical_crossentropy": CategoricalCrossentropy}


def get_loss(identifier: str) -> Loss:
    """Resolve a loss from its name."""
    try:
        return _REGISTRY[identifier]()
    except KeyError as exc:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown loss {identifier!r}; known losses: {known}") from exc
