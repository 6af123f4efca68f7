"""Merge layers: the residual ``Add`` and a ``Concatenate`` helper.

``Add`` is the heart of the residual block — the shortcut taken from the block
input (the first BN output in the paper's Fig. 4(b)) is summed element-wise
with the block's transformation output.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .. import tensor as ops
from ..tensor import Tensor
from .base import Layer

__all__ = ["Add", "Concatenate"]


class Add(Layer):
    """Element-wise sum of a list of equally-shaped tensors."""

    def call(self, inputs: Sequence[Tensor], training: bool = False) -> Tensor:
        if not isinstance(inputs, (list, tuple)) or len(inputs) < 2:
            raise ValueError("Add expects a list of at least two input tensors")
        shapes = {tuple(t.shape) for t in inputs}
        if len(shapes) != 1:
            raise ValueError(f"Add requires identical input shapes, got {sorted(shapes)}")
        total = inputs[0]
        for tensor in inputs[1:]:
            total = total + tensor
        return total

    def fast_call(self, inputs: Sequence[np.ndarray]) -> np.ndarray:
        if not isinstance(inputs, (list, tuple)) or len(inputs) < 2:
            raise ValueError("Add expects a list of at least two input tensors")
        shapes = {tuple(x.shape) for x in inputs}
        if len(shapes) != 1:
            raise ValueError(f"Add requires identical input shapes, got {sorted(shapes)}")
        total = inputs[0]
        for array in inputs[1:]:
            total = total + array
        return total


class Concatenate(Layer):
    """Concatenate tensors along a given axis (default: the channel axis)."""

    def __init__(self, axis: int = -1, name: Optional[str] = None) -> None:
        super().__init__(name=name)
        self.axis = axis

    def call(self, inputs: Sequence[Tensor], training: bool = False) -> Tensor:
        if not isinstance(inputs, (list, tuple)) or len(inputs) < 2:
            raise ValueError("Concatenate expects a list of at least two input tensors")
        return ops.concatenate(list(inputs), axis=self.axis)

    def fast_call(self, inputs: Sequence[np.ndarray]) -> np.ndarray:
        if not isinstance(inputs, (list, tuple)) or len(inputs) < 2:
            raise ValueError("Concatenate expects a list of at least two input tensors")
        return np.concatenate(list(inputs), axis=self.axis)
