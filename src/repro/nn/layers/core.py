"""Core layers: Dense, Activation, Dropout, Flatten, Reshape.

These correspond directly to the Keras layers the paper's implementation was
composed of (the "Dense" classifier head, the ReLU activations after the
convolutions, the Dropout regulariser, and the Reshape used to keep data
dimensions consistent between the convolutional and recurrent stages).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, Union

import numpy as np

from .. import tensor as ops
from ..inference import get_raw_activation
from ..initializers import Initializer
from ..tensor import Tensor
from .base import Layer

__all__ = ["Dense", "Activation", "Dropout", "Flatten", "Reshape", "get_activation"]

_ACTIVATIONS = {
    "linear": lambda x: x,
    "relu": ops.relu,
    "sigmoid": ops.sigmoid,
    "hard_sigmoid": ops.hard_sigmoid,
    "tanh": ops.tanh,
    "softmax": ops.softmax,
}


def get_activation(identifier: Union[str, Callable, None]) -> Callable[[Tensor], Tensor]:
    """Resolve an activation function from its name (or pass a callable through)."""
    if identifier is None:
        return _ACTIVATIONS["linear"]
    if callable(identifier):
        return identifier
    try:
        return _ACTIVATIONS[identifier]
    except KeyError as exc:
        known = ", ".join(sorted(_ACTIVATIONS))
        raise ValueError(
            f"unknown activation {identifier!r}; known activations: {known}"
        ) from exc


class Dense(Layer):
    """Fully-connected layer: ``output = activation(inputs @ kernel + bias)``.

    Parameters
    ----------
    units:
        Output dimensionality.
    activation:
        Name of an activation applied to the affine output.
    use_bias:
        Whether to add a bias vector.
    """

    def __init__(
        self,
        units: int,
        activation: Union[str, Callable, None] = None,
        use_bias: bool = True,
        kernel_initializer: Union[str, Initializer] = "glorot_uniform",
        name: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(name=name, seed=seed)
        if units <= 0:
            raise ValueError("units must be a positive integer")
        self.units = int(units)
        self.activation = get_activation(activation)
        self.activation_raw = get_raw_activation(activation)
        self.use_bias = use_bias
        self.kernel_initializer = kernel_initializer
        self.kernel: Optional[Tensor] = None
        self.bias: Optional[Tensor] = None

    def build(self, input_shape: Tuple[int, ...]) -> None:
        input_dim = input_shape[-1]
        self.kernel = self.add_parameter(
            "kernel", (input_dim, self.units), self.kernel_initializer
        )
        if self.use_bias:
            self.bias = self.add_parameter("bias", (self.units,), "zeros")

    def call(self, inputs: Tensor, training: bool = False) -> Tensor:
        outputs = ops.matmul(inputs, self.kernel)
        if self.use_bias:
            outputs = outputs + self.bias
        return self.activation(outputs)

    def fast_call(self, inputs: np.ndarray) -> np.ndarray:
        weights = self.fast_arrays(inputs.dtype)
        outputs = inputs @ weights["kernel"]
        if self.use_bias:
            outputs += weights["bias"]
        return self.activation_raw(outputs)


class Activation(Layer):
    """Standalone activation layer (e.g. the ReLU after each residual add)."""

    def __init__(self, activation: Union[str, Callable], name: Optional[str] = None) -> None:
        super().__init__(name=name)
        self.activation = get_activation(activation)
        self.activation_raw = get_raw_activation(activation)

    def call(self, inputs: Tensor, training: bool = False) -> Tensor:
        return self.activation(inputs)

    def fast_call(self, inputs: np.ndarray) -> np.ndarray:
        # The raw kernels work in place, so give them a copy; the dtype is
        # the one the allocating formula would produce (float32 stays).
        return self.activation_raw(inputs.astype(np.result_type(inputs, 0.0)))


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


class Flatten(Layer):
    """Flatten everything except the batch dimension."""

    def call(self, inputs: Tensor, training: bool = False) -> Tensor:
        batch = inputs.shape[0]
        return ops.reshape(inputs, (batch, -1))

    def fast_call(self, inputs: np.ndarray) -> np.ndarray:
        return inputs.reshape(inputs.shape[0], -1)


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
