"""Pooling layers: max pooling and global average pooling."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import tensor as ops
from ..inference import raw_max_pool1d
from ..tensor import Tensor
from .base import Layer

__all__ = ["MaxPooling1D", "GlobalAveragePooling1D"]


class MaxPooling1D(Layer):
    """Max pooling over the time axis of ``(batch, steps, channels)`` inputs.

    The window strides by its own size with ``"same"`` padding, so the
    output has ``ceil(steps / pool_size)`` steps.  The paper's plain block
    uses this after the convolution to "select the most active neurons"
    before the recurrent stage.
    """

    def __init__(self, pool_size: int = 2, name: Optional[str] = None) -> None:
        super().__init__(name=name)
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        self.pool_size = int(pool_size)

    def call(self, inputs: Tensor, training: bool = False) -> Tensor:
        return ops.max_pool1d(inputs, self.pool_size)

    def fast_call(self, inputs: np.ndarray) -> np.ndarray:
        return raw_max_pool1d(inputs, self.pool_size)


class GlobalAveragePooling1D(Layer):
    """Average over the whole time axis, producing ``(batch, channels)``.

    Both Pelican and the plain comparison networks use this to collapse the
    block stack's output before the dense classification layer.
    """

    def call(self, inputs: Tensor, training: bool = False) -> Tensor:
        return ops.global_average_pool1d(inputs)

    def fast_call(self, inputs: np.ndarray) -> np.ndarray:
        return inputs.mean(axis=1)
