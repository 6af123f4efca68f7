"""The residual merge layer, ``Add``.

``Add`` is the heart of the residual block — the shortcut taken from the block
input (the first BN output in the paper's Fig. 4(b)) is summed element-wise
with the block's transformation output.
"""

from __future__ import annotations

from typing import Sequence

from ..tensor import Tensor
from .base import Layer

__all__ = ["Add"]


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
