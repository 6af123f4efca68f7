"""Core layers: Dense, Dropout, Reshape.

These correspond directly to the Keras layers the paper's implementation was
composed of (the "Dense" classifier head, the Dropout regulariser, and the
Reshape used to keep data dimensions consistent between the convolutional and
recurrent stages).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from .. import tensor as ops
from ..inference import get_raw_activation
from ..tensor import Tensor
from .base import Layer

__all__ = ["Dense", "Dropout", "Reshape", "get_activation"]

#: The fast ``Dense`` kernel multiplies by at least this many columns, the
#: extra ones zero and sliced off before the activation.  OpenBLAS sums a
#: narrower GEMM's outputs in an order that depends on the row count, so a
#: record's float32 scores would otherwise depend on the batch it is in.
_MIN_FAST_COLUMNS = 8

_ACTIVATIONS = {
    "linear": lambda x: x,
    "relu": ops.relu,
    "softmax": ops.softmax,
}


def get_activation(identifier: Optional[str]) -> Callable[[Tensor], Tensor]:
    """Resolve an activation function from its name (``None`` is linear)."""
    if identifier is None:
        return _ACTIVATIONS["linear"]
    try:
        return _ACTIVATIONS[identifier]
    except KeyError as exc:
        known = ", ".join(sorted(_ACTIVATIONS))
        raise ValueError(
            f"unknown activation {identifier!r}; known activations: {known}"
        ) from exc


class Dense(Layer):
    """Fully-connected layer: ``output = activation(inputs @ kernel + bias)``.

    The kernel is Glorot-uniform and the bias starts at zero.

    Parameters
    ----------
    units:
        Output dimensionality.
    activation:
        Name of an activation applied to the affine output.
    """

    def __init__(
        self,
        units: int,
        activation: Optional[str] = None,
        name: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(name=name, seed=seed)
        if units <= 0:
            raise ValueError("units must be a positive integer")
        self.units = int(units)
        self.activation = get_activation(activation)
        self.activation_raw = get_raw_activation(activation)
        self.kernel: Optional[Tensor] = None
        self.bias: Optional[Tensor] = None

    def build(self, input_shape: Tuple[int, ...]) -> None:
        input_dim = input_shape[-1]
        self.kernel = self.add_parameter(
            "kernel", (input_dim, self.units), "glorot_uniform"
        )
        self.bias = self.add_parameter("bias", (self.units,), "zeros")

    def call(self, inputs: Tensor, training: bool = False) -> Tensor:
        outputs = ops.matmul(inputs, self.kernel) + self.bias
        return self.activation(outputs)

    def fast_call(self, inputs: np.ndarray) -> np.ndarray:
        weights = self.fast_arrays(inputs.dtype)
        kernel, bias = weights["kernel"], weights["bias"]
        if self.units >= _MIN_FAST_COLUMNS:
            outputs = inputs @ kernel
            outputs += bias
        else:
            padded = np.zeros((kernel.shape[0], _MIN_FAST_COLUMNS), kernel.dtype)
            padded[:, : self.units] = kernel
            outputs = (inputs @ padded)[..., : self.units] + bias
        return self.activation_raw(outputs)


class Dropout(Layer):
    """Inverted dropout; active only when ``training`` is True.

    The paper uses a high rate (0.6) to counter overfitting on the small
    intrusion-detection datasets.
    """

    def __init__(self, rate: float, name: Optional[str] = None, seed: Optional[int] = None) -> None:
        super().__init__(name=name, seed=seed)
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = float(rate)

    def call(self, inputs: Tensor, training: bool = False) -> Tensor:
        if not training or self.rate == 0.0:
            return inputs
        return ops.dropout(inputs, self.rate, rng=self.rng)

    def fast_call(self, inputs: np.ndarray) -> np.ndarray:
        return inputs


class Reshape(Layer):
    """Reshape the non-batch dimensions to ``target_shape``.

    In the paper's blocks this restores the ``(timesteps, features)`` layout
    after the GRU collapses the time axis.
    """

    def __init__(self, target_shape: Tuple[int, ...], name: Optional[str] = None) -> None:
        super().__init__(name=name)
        self.target_shape = tuple(int(d) for d in target_shape)

    def call(self, inputs: Tensor, training: bool = False) -> Tensor:
        self._check_size(inputs.shape)
        return ops.reshape(inputs, (inputs.shape[0], *self.target_shape))

    def fast_call(self, inputs: np.ndarray) -> np.ndarray:
        self._check_size(inputs.shape)
        return inputs.reshape(inputs.shape[0], *self.target_shape)

    def _check_size(self, shape: Tuple[int, ...]) -> None:
        expected = int(np.prod(self.target_shape))
        actual = int(np.prod(shape[1:]))
        if expected != actual:
            raise ValueError(
                f"cannot reshape input with {actual} features per sample into "
                f"{self.target_shape} ({expected} features)"
            )
