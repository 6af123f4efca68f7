"""Recurrent layers: GRU (used by Pelican/LuNet) and LSTM (used by baselines).

The gate formulations follow the Keras conventions the paper relied on:
``tanh`` candidate activation and ``hard_sigmoid`` recurrent (gate) activation,
Glorot-uniform input kernels and orthogonal recurrent kernels.  Both
activations are fixed: the Pelican block's folded gate kernel
(:meth:`repro.core.blocks.PlainBlock.inference_arrays`) assumes them.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .. import tensor as ops
from ..inference import raw_hard_sigmoid, raw_tanh
from ..tensor import Tensor
from .base import Layer

__all__ = ["GRU", "LSTM"]


class _RecurrentBase(Layer):
    """Shared plumbing for recurrent layers operating on (batch, steps, features)."""

    def __init__(
        self,
        units: int,
        return_sequences: bool = False,
        name: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(name=name, seed=seed)
        if units <= 0:
            raise ValueError("units must be a positive integer")
        self.units = int(units)
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

    where ``sigma`` is the hard sigmoid.  On more than one step
    the layer stores the Keras layout: ``kernel`` ``(input_dim, 3 * units)``
    and ``bias`` ``(3 * units,)`` with columns ``[z | r | c]``, plus the
    orthogonal ``recurrent_kernel`` ``(units, 3 * units)``.

    Built on a 1-step input (the paper's shape) it stores only
    ``kernel`` ``(input_dim, 2 * units)`` and ``bias`` ``(2 * units,)``
    with columns ``[z | c]``, and no recurrent kernel.  That is exact: the
    state starts at zero, so ``h_0 U`` is zero, the reset gate only scales
    that zero, and ``h_1 = (1 - z_1) * c_1``.  The dropped columns and the
    recurrent kernel never reach the output and never get a gradient.  The
    kept columns are sliced from a kernel drawn at the full
    ``(input_dim, 3 * units)`` shape, so the initial values (and the Glorot
    fans) are those of the full kernel.  The tape multiplies them in the
    full layout, with zero ``r`` columns put back: BLAS blocks a GEMM by
    its shape, so the sums run in the full layer's order and the trained
    weights equal the full layer's live slices bit for bit.
    """

    def build(self, input_shape: Tuple[int, ...]) -> None:
        input_dim = self._validate_input(input_shape)
        units = self.units
        if input_shape[1] == 1:
            self.kernel = self.add_parameter(
                "kernel",
                (input_dim, 3 * units),
                "glorot_uniform",
                live=(slice(None), np.r_[0:units, 2 * units:3 * units]),
            )
            self.bias = self.add_parameter("bias", (2 * units,), "zeros")
            return
        self.kernel = self.add_parameter(
            "kernel", (input_dim, 3 * units), "glorot_uniform"
        )
        self.recurrent_kernel = self.add_parameter(
            "recurrent_kernel", (units, 3 * units), "orthogonal"
        )
        self.bias = self.add_parameter("bias", (3 * units,), "zeros")

    def _one_step(self) -> bool:
        """Built on 1 step: the kernel holds only the ``[z | c]`` columns."""
        return self.kernel.shape[1] == 2 * self.units

    def call(self, inputs: Tensor, training: bool = False) -> Tensor:
        batch, steps, _ = inputs.shape
        one_step = self._one_step()
        self._check_steps(steps, one_step)
        units = self.units
        kernel, bias = self.kernel, self.bias
        if one_step:
            # Multiply [z | 0 | c], the full layout's GEMM shapes, so that
            # every sum runs in the full layer's order (see the docstring).
            zeros = np.zeros((kernel.shape[0], units))
            kernel = ops.concatenate(
                [kernel[:, 0:units], zeros, kernel[:, units:]], axis=1
            )
            bias = ops.concatenate([bias[0:units], zeros[0], bias[units:]], axis=0)
        hidden: Optional[Tensor] = None  # None encodes the all-zero initial state
        outputs: List[Tensor] = []
        for step in range(steps):
            x_t = inputs[:, step, :]
            gates_x = ops.matmul(x_t, kernel) + bias
            if hidden is None:
                # h_0 == 0, so gates_h is exactly zero and the reset gate,
                # which only scales it, is moot (as in fast_call).  The later
                # steps, if any, give the recurrent kernel its gradient.
                update = ops.hard_sigmoid(gates_x[:, 0:units])
                candidate = ops.tanh(gates_x[:, 2 * units:3 * units])
                hidden = (1.0 - update) * candidate
            else:
                gates_h = ops.matmul(hidden, self.recurrent_kernel)
                update = ops.hard_sigmoid(
                    gates_x[:, 0:units] + gates_h[:, 0:units]
                )
                reset = ops.hard_sigmoid(
                    gates_x[:, units:2 * units] + gates_h[:, units:2 * units]
                )
                candidate = ops.tanh(
                    gates_x[:, 2 * units:3 * units]
                    + reset * gates_h[:, 2 * units:3 * units]
                )
                hidden = update * hidden + (1.0 - update) * candidate
            outputs.append(hidden)
        return self._stack_outputs(outputs)

    def fast_call(self, inputs: np.ndarray) -> np.ndarray:
        batch, steps, _ = inputs.shape
        self._check_steps(steps, self._one_step())
        units = self.units
        weights = self.fast_arrays(inputs.dtype)
        kernel = weights["kernel"]
        bias = weights["bias"]
        hidden: Optional[np.ndarray] = None  # None encodes the all-zero initial state
        outputs: List[np.ndarray] = []
        for step in range(steps):
            x_t = inputs[:, step, :]
            if hidden is None:
                # h_0 == 0, so the recurrent matmul contributes exactly zero
                # and the reset gate, which only scales gates_h, is moot:
                # multiply only the update-gate and candidate column views
                # (the candidate is the last ``units`` columns in both
                # layouts).  Both products are fresh, so everything after
                # runs in place.
                update = x_t @ kernel[:, 0:units]
                update += bias[0:units]
                update = raw_hard_sigmoid(update)
                candidate = x_t @ kernel[:, -units:]
                candidate += bias[-units:]
                candidate = raw_tanh(candidate)
                hidden = np.subtract(1.0, update, out=update)
                hidden *= candidate
            else:
                gates_x = x_t @ kernel + bias
                gates_h = hidden @ weights["recurrent_kernel"]
                update = raw_hard_sigmoid(
                    gates_x[:, 0:units] + gates_h[:, 0:units]
                )
                reset = raw_hard_sigmoid(
                    gates_x[:, units:2 * units] + gates_h[:, units:2 * units]
                )
                candidate = raw_tanh(
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
            input_gate = ops.hard_sigmoid(gates[:, 0:units])
            forget_gate = ops.hard_sigmoid(gates[:, units:2 * units])
            candidate = ops.tanh(gates[:, 2 * units:3 * units])
            output_gate = ops.hard_sigmoid(gates[:, 3 * units:4 * units])
            cell = forget_gate * cell + input_gate * candidate
            hidden = output_gate * ops.tanh(cell)
            outputs.append(hidden)
        return self._stack_outputs(outputs)

    def fast_call(self, inputs: np.ndarray) -> np.ndarray:
        batch, steps, _ = inputs.shape
        units = self.units
        weights = self.fast_arrays(inputs.dtype)
        kernel = weights["kernel"]
        recurrent_kernel = weights["recurrent_kernel"]
        bias = weights["bias"]
        hidden: Optional[np.ndarray] = None  # None encodes the all-zero initial state
        cell: Optional[np.ndarray] = None
        outputs: List[np.ndarray] = []
        for step in range(steps):
            gates = inputs[:, step, :] @ kernel
            if hidden is not None:
                gates += hidden @ recurrent_kernel
            gates += bias
            input_gate = raw_hard_sigmoid(gates[:, 0:units])
            forget_gate = raw_hard_sigmoid(gates[:, units:2 * units])
            candidate = raw_tanh(gates[:, 2 * units:3 * units])
            output_gate = raw_hard_sigmoid(gates[:, 3 * units:4 * units])
            cell = input_gate * candidate if cell is None else forget_gate * cell + input_gate * candidate
            # cell is carried to the next step; the raw kernel works in place.
            hidden = output_gate * raw_tanh(cell.copy())
            if self.return_sequences:
                outputs.append(hidden)
        return np.stack(outputs, axis=1) if self.return_sequences else hidden
