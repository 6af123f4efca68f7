"""1-D convolution layer (channels-last), the spatial feature extractor of Pelican."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import tensor as ops
from ..inference import get_raw_activation, raw_conv1d
from ..tensor import Tensor
from .base import Layer
from .core import get_activation

__all__ = ["Conv1D"]


class Conv1D(Layer):
    """1-D convolution over ``(batch, steps, channels)`` inputs.

    Stride 1 with ``"same"`` padding (the paper's setting, which keeps the
    time dimension), a Glorot-uniform kernel and a zero-initialised bias.

    Parameters
    ----------
    filters:
        Number of output channels.  In the paper this equals the number of
        post-encoding input features (196 for UNSW-NB15, 121 for NSL-KDD) so
        the residual shortcut's ``add`` has matching shapes.
    kernel_size:
        Length of the convolution window (10 in the paper).
    activation:
        Optional activation applied to the convolution output (ReLU in the
        paper's plain block).

    Built on a 1-step input (the paper's shape), the layer stores only the
    tap that reads the real step, index ``(kernel_size - 1) // 2``, as a
    ``(1, in_channels, filters)`` kernel.  Every other tap reads only zero
    padding, so it adds nothing to the output and never gets a gradient: a
    kernel-1 convolution over that tap is exactly the full convolution.
    The tap is sliced from a kernel drawn at the full shape, so the initial
    values (and the Glorot fans) are those of the full kernel.  Inputs of
    more than one step keep the full ``(kernel_size, in_channels, filters)``
    kernel.
    """

    def __init__(
        self,
        filters: int,
        kernel_size: int,
        activation: Optional[str] = None,
        name: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(name=name, seed=seed)
        if filters <= 0 or kernel_size <= 0:
            raise ValueError("filters and kernel_size must be positive")
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        self.activation = get_activation(activation)
        self.activation_raw = get_raw_activation(activation)
        self.kernel: Optional[Tensor] = None
        self.bias: Optional[Tensor] = None

    def build(self, input_shape: Tuple[int, ...]) -> None:
        if len(input_shape) != 3:
            raise ValueError(
                f"Conv1D expects (batch, steps, channels) inputs, got {input_shape}"
            )
        in_channels = input_shape[-1]
        live = None
        if input_shape[1] == 1 and self.kernel_size > 1:
            # Only the centre tap reads the one real step; the others see
            # only zero padding.  Keep that tap as a kernel-1 convolution.
            tap = (self.kernel_size - 1) // 2
            live = slice(tap, tap + 1)
        self.kernel = self.add_parameter(
            "kernel",
            (self.kernel_size, in_channels, self.filters),
            "glorot_uniform",
            live=live,
        )
        self.bias = self.add_parameter("bias", (self.filters,), "zeros")

    def _one_step(self) -> bool:
        """Built on 1 step: the kernel holds only the centre tap."""
        return self.kernel.shape[0] < self.kernel_size

    def call(self, inputs: Tensor, training: bool = False) -> Tensor:
        self._check_steps(inputs.shape[1], self._one_step())
        return self.activation(ops.conv1d(inputs, self.kernel, self.bias))

    def fast_call(self, inputs: np.ndarray) -> np.ndarray:
        self._check_steps(inputs.shape[1], self._one_step())
        weights = self.fast_arrays(inputs.dtype)
        outputs = raw_conv1d(inputs, weights["kernel"], weights["bias"])
        return self.activation_raw(outputs)  # in place on the fresh output
