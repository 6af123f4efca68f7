"""Recurrent layers: GRU (used by Pelican/LuNet) and LSTM (used by baselines).

The gate formulations follow the Keras conventions the paper relied on:
``tanh`` candidate activation and ``hard_sigmoid`` recurrent (gate) activation,
Glorot-uniform input kernels and orthogonal recurrent kernels.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .. import tensor as ops
from ..inference import get_raw_activation
from ..tensor import Tensor
from .base import Layer
from .core import get_activation

__all__ = ["GRU", "LSTM", "SimpleRNN"]


class _RecurrentBase(Layer):
    """Shared plumbing for recurrent layers operating on (batch, steps, features)."""

    def __init__(
        self,
        units: int,
        activation: Union[str, Callable] = "tanh",
        recurrent_activation: Union[str, Callable] = "hard_sigmoid",
        return_sequences: bool = False,
        name: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(name=name, seed=seed)
        if units <= 0:
            raise ValueError("units must be a positive integer")
        self.units = int(units)
        self.activation = get_activation(activation)
        self.activation_raw = get_raw_activation(activation)
        self.recurrent_activation = get_activation(recurrent_activation)
        self.recurrent_activation_raw = get_raw_activation(recurrent_activation)
        self.return_sequences = return_sequences

    def _validate_input(self, input_shape: Tuple[int, ...]) -> int:
        if len(input_shape) != 3:
            raise ValueError(
                f"{type(self).__name__} expects (batch, steps, features) inputs, "
                f"got {input_shape}"
            )
        return input_shape[-1]

    def _stack_outputs(self, outputs: List[Tensor]) -> Tensor:
        if self.return_sequences:
            return ops.stack(outputs, axis=1)
        return outputs[-1]


class GRU(_RecurrentBase):
    """Gated recurrent unit.

    Gate equations (Keras ``reset_after=False`` convention)::

        z_t = sigma(x_t W_z + h_{t-1} U_z + b_z)
        r_t = sigma(x_t W_r + h_{t-1} U_r + b_r)
        c_t = tanh(x_t W_c + (r_t * h_{t-1}) U_c + b_c)
        h_t = z_t * h_{t-1} + (1 - z_t) * c_t

    where ``sigma`` is the hard sigmoid by default.
    """

    def build(self, input_shape: Tuple[int, ...]) -> None:
        input_dim = self._validate_input(input_shape)
        self.kernel = self.add_parameter(
            "kernel", (input_dim, 3 * self.units), "glorot_uniform"
        )
        self.recurrent_kernel = self.add_parameter(
            "recurrent_kernel", (self.units, 3 * self.units), "orthogonal"
        )
        self.bias = self.add_parameter("bias", (3 * self.units,), "zeros")

    def call(self, inputs: Tensor, training: bool = False) -> Tensor:
        batch, steps, _ = inputs.shape
        units = self.units
        hidden = ops.as_tensor(np.zeros((batch, units)))
        outputs: List[Tensor] = []
        for step in range(steps):
            x_t = inputs[:, step, :]
            gates_x = ops.matmul(x_t, self.kernel) + self.bias
            gates_h = ops.matmul(hidden, self.recurrent_kernel)
            update = self.recurrent_activation(
                gates_x[:, 0:units] + gates_h[:, 0:units]
            )
            reset = self.recurrent_activation(
                gates_x[:, units:2 * units] + gates_h[:, units:2 * units]
            )
            candidate = self.activation(
                gates_x[:, 2 * units:3 * units]
                + reset * gates_h[:, 2 * units:3 * units]
            )
            hidden = update * hidden + (1.0 - update) * candidate
            outputs.append(hidden)
        return self._stack_outputs(outputs)

    def fast_call(self, inputs: np.ndarray) -> np.ndarray:
        batch, steps, _ = inputs.shape
        units = self.units
        kernel = self.kernel.data
        recurrent_kernel = self.recurrent_kernel.data
        bias = self.bias.data
        hidden: Optional[np.ndarray] = None  # None encodes the all-zero initial state
        outputs: List[np.ndarray] = []
        for step in range(steps):
            x_t = inputs[:, step, :]
            if hidden is None:
                # h_0 == 0, so the recurrent matmul contributes exactly zero
                # and the reset gate, which only scales gates_h, is moot:
                # multiply only the update-gate and candidate column views.
                update = self.recurrent_activation_raw(
                    x_t @ kernel[:, 0:units] + bias[0:units]
                )
                candidate = self.activation_raw(
                    x_t @ kernel[:, 2 * units:3 * units] + bias[2 * units:3 * units]
                )
                hidden = (1.0 - update) * candidate
            else:
                gates_x = x_t @ kernel + bias
                gates_h = hidden @ recurrent_kernel
                update = self.recurrent_activation_raw(
                    gates_x[:, 0:units] + gates_h[:, 0:units]
                )
                reset = self.recurrent_activation_raw(
                    gates_x[:, units:2 * units] + gates_h[:, units:2 * units]
                )
                candidate = self.activation_raw(
                    gates_x[:, 2 * units:3 * units]
                    + reset * gates_h[:, 2 * units:3 * units]
                )
                hidden = update * hidden + (1.0 - update) * candidate
            if self.return_sequences:
                outputs.append(hidden)
        return np.stack(outputs, axis=1) if self.return_sequences else hidden


class LSTM(_RecurrentBase):
    """Long short-term memory layer (the recurrent core of the LSTM baseline).

    Gate equations::

        i_t = sigma(x_t W_i + h_{t-1} U_i + b_i)
        f_t = sigma(x_t W_f + h_{t-1} U_f + b_f)
        o_t = sigma(x_t W_o + h_{t-1} U_o + b_o)
        c_t = f_t * c_{t-1} + i_t * tanh(x_t W_c + h_{t-1} U_c + b_c)
        h_t = o_t * tanh(c_t)
    """

    def build(self, input_shape: Tuple[int, ...]) -> None:
        input_dim = self._validate_input(input_shape)
        self.kernel = self.add_parameter(
            "kernel", (input_dim, 4 * self.units), "glorot_uniform"
        )
        self.recurrent_kernel = self.add_parameter(
            "recurrent_kernel", (self.units, 4 * self.units), "orthogonal"
        )
        self.bias = self.add_parameter("bias", (4 * self.units,), "zeros")

    def call(self, inputs: Tensor, training: bool = False) -> Tensor:
        batch, steps, _ = inputs.shape
        units = self.units
        hidden = ops.as_tensor(np.zeros((batch, units)))
        cell = ops.as_tensor(np.zeros((batch, units)))
        outputs: List[Tensor] = []
        for step in range(steps):
            x_t = inputs[:, step, :]
            gates = (
                ops.matmul(x_t, self.kernel)
                + ops.matmul(hidden, self.recurrent_kernel)
                + self.bias
            )
            input_gate = self.recurrent_activation(gates[:, 0:units])
            forget_gate = self.recurrent_activation(gates[:, units:2 * units])
            candidate = self.activation(gates[:, 2 * units:3 * units])
            output_gate = self.recurrent_activation(gates[:, 3 * units:4 * units])
            cell = forget_gate * cell + input_gate * candidate
            hidden = output_gate * self.activation(cell)
            outputs.append(hidden)
        return self._stack_outputs(outputs)

    def fast_call(self, inputs: np.ndarray) -> np.ndarray:
        batch, steps, _ = inputs.shape
        units = self.units
        kernel = self.kernel.data
        recurrent_kernel = self.recurrent_kernel.data
        bias = self.bias.data
        hidden: Optional[np.ndarray] = None  # None encodes the all-zero initial state
        cell: Optional[np.ndarray] = None
        outputs: List[np.ndarray] = []
        for step in range(steps):
            gates = inputs[:, step, :] @ kernel
            if hidden is not None:
                gates = gates + hidden @ recurrent_kernel
            gates = gates + bias
            input_gate = self.recurrent_activation_raw(gates[:, 0:units])
            forget_gate = self.recurrent_activation_raw(gates[:, units:2 * units])
            candidate = self.activation_raw(gates[:, 2 * units:3 * units])
            output_gate = self.recurrent_activation_raw(gates[:, 3 * units:4 * units])
            cell = input_gate * candidate if cell is None else forget_gate * cell + input_gate * candidate
            hidden = output_gate * self.activation_raw(cell)
            if self.return_sequences:
                outputs.append(hidden)
        return np.stack(outputs, axis=1) if self.return_sequences else hidden


class SimpleRNN(_RecurrentBase):
    """Vanilla (Elman) recurrent layer, provided for completeness and ablations."""

    def build(self, input_shape: Tuple[int, ...]) -> None:
        input_dim = self._validate_input(input_shape)
        self.kernel = self.add_parameter(
            "kernel", (input_dim, self.units), "glorot_uniform"
        )
        self.recurrent_kernel = self.add_parameter(
            "recurrent_kernel", (self.units, self.units), "orthogonal"
        )
        self.bias = self.add_parameter("bias", (self.units,), "zeros")

    def call(self, inputs: Tensor, training: bool = False) -> Tensor:
        batch, steps, _ = inputs.shape
        hidden = ops.as_tensor(np.zeros((batch, self.units)))
        outputs: List[Tensor] = []
        for step in range(steps):
            x_t = inputs[:, step, :]
            hidden = self.activation(
                ops.matmul(x_t, self.kernel)
                + ops.matmul(hidden, self.recurrent_kernel)
                + self.bias
            )
            outputs.append(hidden)
        return self._stack_outputs(outputs)

    def fast_call(self, inputs: np.ndarray) -> np.ndarray:
        batch, steps, _ = inputs.shape
        kernel = self.kernel.data
        recurrent_kernel = self.recurrent_kernel.data
        bias = self.bias.data
        hidden: Optional[np.ndarray] = None  # None encodes the all-zero initial state
        outputs: List[np.ndarray] = []
        for step in range(steps):
            preact = inputs[:, step, :] @ kernel
            if hidden is not None:
                preact = preact + hidden @ recurrent_kernel
            hidden = self.activation_raw(preact + bias)
            if self.return_sequences:
                outputs.append(hidden)
        return np.stack(outputs, axis=1) if self.return_sequences else hidden
