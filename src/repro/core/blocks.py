"""The paper's building blocks (Fig. 4).

* :class:`PlainBlock` — Fig. 4(a): BN → Conv1D(ReLU) → MaxPooling → BN →
  GRU(tanh, hard-sigmoid) → Reshape → Dropout.  This is the LuNet-style block
  the paper's plain networks are stacked from, and contributes four parameter
  layers (two BN, one Conv, one GRU).
* :class:`ResidualBlock` — Fig. 4(b): the same stack wrapped with an identity
  shortcut taken from the *output of the first BN layer* and merged with an
  element-wise Add at the end of the block.

For the paper's configuration (1 time-step inputs, ``filters ==
recurrent_units == input features``) the shortcut is a pure identity.  For
other shapes the block inserts a projection (1x1 convolution and/or temporal
average) so the Add still type-checks — the standard ResNet "option B"
shortcut — and documents that this adds one parameter layer.

Three paths run a block:

* **Training on one step** (``training=True``, a 1-step input, no shortcut
  projection — every Pelican, plain and residual network of the paper)
  runs the whole block as *one* tape node.  Its forward runs the block's
  numpy arithmetic inline and its backward is the composed chain's
  backward inlined, so gradients, trained weights and batch-norm moving
  statistics are bit-identical to the composed chain's.  Bench-scale
  training is chaotic (a round-off difference grows about tenfold per
  step), so the node keeps these rules:

  - every product has the tape's GEMM shape, including the GRU's
    zero-padded ``[z | 0 | c]`` full-layout kernel and bias, both ways;
  - every reduction is the tape's call on an array of the same shape
    (:func:`~repro.nn.tensor._unbroadcast`, ``mean``, ``sum``);
  - a value with several consumers sums their gradients in the order the
    tape's traversal does (in a batch norm: the normalization's term,
    then the square's two; on the block input: the ``"input"`` shortcut,
    then the centring, then the mean);
  - the dropout mask is the same draw from the dropout layer's generator,
    and the moving statistics move through
    :meth:`~repro.nn.layers.BatchNormalization.update_moving_statistics`.

  In-place arithmetic stands in for a fresh array only where the values
  are the same bits.
* **Any other tape call** (inference mode, several steps, a projection
  shortcut) runs the composed chain of sublayer calls.  It is also the
  oracle the fused node is tested against.
* **Serving** runs :meth:`PlainBlock.fast_call`, with no tape at all.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..nn.inference import weights_epoch
from ..nn.layers import (
    GRU,
    Add,
    BatchNormalization,
    Conv1D,
    Dropout,
    Layer,
    MaxPooling1D,
    Reshape,
)
from ..nn.tensor import (
    Tensor,
    _make_result,
    _unbroadcast,
    global_average_pool1d,
    reshape,
)

__all__ = ["PlainBlock", "ResidualBlock", "parameter_layers_per_block"]

#: Parameter layers contributed by one block: BN, Conv1D, BN, GRU.
PARAMETER_LAYERS_PER_BLOCK = 4


def parameter_layers_per_block() -> int:
    """Number of parameter (weight-bearing) layers in one block."""
    return PARAMETER_LAYERS_PER_BLOCK


def _norm_forward(
    norm: BatchNormalization, values: np.ndarray
) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
    """A training-mode batch norm's tape arithmetic on a ``(batch, 1, C)`` array.

    Moves the moving statistics and returns the output with what
    :func:`_norm_backward` reads.
    """
    norm.update_moving_statistics(values)
    mean = values.mean(axis=(0, 1), keepdims=True)
    centered = values + mean * -1.0
    variance = (centered * centered).mean(axis=(0, 1), keepdims=True)
    shifted = variance + norm.epsilon
    inv_std = shifted ** -0.5
    normalized = centered * inv_std
    outputs = normalized * norm.gamma.data
    outputs += norm.beta.data
    return outputs, (centered, shifted, inv_std, normalized, norm.gamma.data)


def _norm_backward(
    grad: np.ndarray,
    saved: Tuple[np.ndarray, ...],
    input_grad: bool,
    prior: Optional[np.ndarray] = None,
) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """The tape's backward through a training-mode batch norm.

    Returns the gradients of the input (``None`` unless ``input_grad``),
    gamma and beta.  ``prior`` is a gradient the input received before the
    norm's own two terms (the ``"input"`` shortcut's).
    """
    centered, shifted, inv_std, normalized, gamma = saved
    grad_gamma = _unbroadcast(grad * normalized, gamma.shape)
    grad_beta = _unbroadcast(grad, gamma.shape)
    if not input_grad:
        return None, grad_gamma, grad_beta
    count = centered.shape[0] * centered.shape[1]
    grad_centered = grad * gamma
    grad_inv_std = _unbroadcast(grad_centered * centered, inv_std.shape)
    grad_centered *= inv_std
    grad_square = centered * (grad_inv_std * -0.5 * shifted ** -1.5 / count)
    # The square's two factors each add the same term, after the
    # normalization's.
    grad_centered += grad_square
    grad_centered += grad_square
    grad_mean = _unbroadcast(grad_centered, inv_std.shape) * -1.0 / count
    grad_values = grad_centered if prior is None else prior + grad_centered
    grad_values += grad_mean
    return grad_values, grad_gamma, grad_beta


def _live_columns(grad: np.ndarray, units: int) -> np.ndarray:
    """The stored ``[z | c]`` columns of a full-layout ``[z | r | c]`` gradient.

    The tape sums the zero-padded gradients of the two slices it took from
    the stored parameter, so each column is ``0 + g``.
    """
    live = np.empty(grad.shape[:-1] + (2 * units,))
    np.add(grad[..., 0:units], 0.0, out=live[..., 0:units])
    np.add(grad[..., 2 * units:], 0.0, out=live[..., units:])
    return live


class PlainBlock(Layer):
    """Fig. 4(a): the plain CNN+GRU block.

    Parameters
    ----------
    filters:
        Number of convolution filters.
    kernel_size:
        Convolution window length (10 in Table I).
    recurrent_units:
        GRU hidden size.
    dropout_rate:
        Dropout applied at the end of the block (0.6 in Table I).
    pool_size:
        Max-pooling window (the paper keeps the default of 2; with the
        1-time-step inputs this is effectively a no-op, as in the original).
    """

    def __init__(
        self,
        filters: int,
        kernel_size: int,
        recurrent_units: int,
        dropout_rate: float = 0.6,
        pool_size: int = 2,
        name: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(name=name, seed=seed)
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        self.recurrent_units = int(recurrent_units)
        self.dropout_rate = float(dropout_rate)
        self.pool_size = int(pool_size)

        self.input_norm = self.register(BatchNormalization(name=f"{self.name}/bn_in"))
        self.convolution = self.register(
            Conv1D(
                filters=self.filters,
                kernel_size=self.kernel_size,
                activation="relu",
                name=f"{self.name}/conv",
            )
        )
        self.pooling = self.register(
            MaxPooling1D(pool_size=self.pool_size, name=f"{self.name}/pool")
        )
        self.recurrent_norm = self.register(
            BatchNormalization(name=f"{self.name}/bn_rec")
        )
        self.recurrent = self.register(
            GRU(
                units=self.recurrent_units,
                return_sequences=False,
                name=f"{self.name}/gru",
            )
        )
        self.reshape = self.register(
            Reshape((1, self.recurrent_units), name=f"{self.name}/reshape")
        )
        self.dropout = self.register(
            Dropout(self.dropout_rate, name=f"{self.name}/dropout")
        )
        # (weights epoch, stacked gate arrays) — see inference_arrays.
        self._gates: Optional[Tuple[int, Dict[str, np.ndarray]]] = None

    # ------------------------------------------------------------------ #
    def build(self, input_shape: Tuple[int, ...]) -> None:
        """Build every parameter sub-layer from the block input shape.

        The internal shapes are fully determined by the input, so building
        eagerly (instead of letting each sub-layer build inside its first
        forward) makes ``count_params()`` and weight serialization stable
        from build time on.  Weight values are unaffected: every layer draws
        from its own generator created at construction.
        """
        if len(input_shape) != 3:
            raise ValueError(
                f"{type(self).__name__} expects (batch, steps, channels) inputs, "
                f"got {input_shape}"
            )
        batch, steps, _ = input_shape
        pooled_steps = max(int(np.ceil(steps / self.pooling.pool_size)), 1)
        stages = (
            (self.input_norm, input_shape),
            (self.convolution, input_shape),
            (self.recurrent_norm, (batch, pooled_steps, self.filters)),
            (self.recurrent, (batch, pooled_steps, self.filters)),
        )
        for layer, shape in stages:
            if not layer.built:
                layer.build(shape)
                layer.built = True

    def transform(self, inputs: Tensor, training: bool) -> Tuple[Tensor, Tensor]:
        """Run the block and also return the first BN output (the shortcut source)."""
        normalized = self.input_norm(inputs, training=training)
        features = self.convolution(normalized, training=training)
        features = self.pooling(features, training=training)
        features = self.recurrent_norm(features, training=training)
        features = self.recurrent(features, training=training)
        features = self.reshape(features, training=training)
        features = self.dropout(features, training=training)
        return features, normalized

    def call(self, inputs: Tensor, training: bool = False) -> Tensor:
        if self._fuses(inputs, training):
            return self._training_step(inputs, shortcut_from=None)
        outputs, _ = self.transform(inputs, training)
        return outputs

    def _fuses(self, inputs: Tensor, training: bool) -> bool:
        """Whether :meth:`call` runs the block as one training node."""
        return (
            training
            and inputs.ndim == 3
            and inputs.shape[1] == 1
            and self.convolution.kernel.shape[0] == 1
            and self.recurrent._one_step()
        )

    def _training_step(self, inputs: Tensor, shortcut_from: Optional[str]) -> Tensor:
        """The block on one step in training mode, as one tape node.

        Bit-identical to the composed chain (see the module docstring).
        ``shortcut_from`` is ``None`` for the plain block, else the
        residual block's shortcut source, an identity on this path.
        """
        values = inputs.data
        batch, _, channels = values.shape
        units = self.recurrent_units
        conv, gru, dropout = self.convolution, self.recurrent, self.dropout
        input_grad = inputs.requires_grad or bool(inputs._parents)

        normalized, norm_in = _norm_forward(self.input_norm, values)
        # The convolution keeps only its centre tap: one GEMM, then the bias
        # and the ReLU in place.  One-step max pooling is the identity.
        conv_kernel = conv.kernel.data
        columns = normalized[:, 0:1, :].reshape(batch, channels)
        features = (columns @ conv_kernel[0]).reshape(batch, 1, self.filters)
        features += conv.bias.data
        np.maximum(features, 0.0, out=features)
        recurrent_in, norm_rec = _norm_forward(self.recurrent_norm, features)

        # The GRU on its zero state, multiplied in the full [z | 0 | c] layout.
        zeros = np.zeros((gru.kernel.shape[0], units))
        kernel = np.concatenate(
            [gru.kernel.data[:, 0:units], zeros, gru.kernel.data[:, units:]], axis=1
        )
        bias = np.concatenate(
            [gru.bias.data[0:units], zeros[0], gru.bias.data[units:]], axis=0
        )
        step_in = recurrent_in[:, 0, :]
        gates = step_in @ kernel
        gates += bias
        update_in = gates[:, 0:units]
        update = 0.2 * update_in
        update += 0.5
        np.clip(update, 0.0, 1.0, out=update)
        candidate = np.tanh(gates[:, 2 * units:3 * units])
        keep = update * -1.0
        keep += 1.0
        outputs = (keep * candidate).reshape(batch, 1, units)
        mask = None
        if dropout.rate > 0.0:
            mask = (dropout.rng.random(outputs.shape) >= dropout.rate) / (
                1.0 - dropout.rate
            )
            outputs *= mask
        if shortcut_from is not None:
            outputs += normalized if shortcut_from == "bn" else values

        def backward(grad: np.ndarray):
            grad_hidden = grad if mask is None else grad * mask
            grad_hidden = grad_hidden.reshape(batch, units)
            # The gates' gradient, [update | 0 | candidate]: the tape sums the
            # zero-padded gradients of the two slices it took, so each part
            # is 0 + g (a -0.0 becomes 0.0).
            grad_gates = np.empty(gates.shape)
            grad_update = np.multiply(grad_hidden, candidate, out=grad_gates[:, 0:units])
            grad_update *= -1.0  # through 1 - z
            grad_update *= 0.2  # the hard sigmoid's slope
            grad_update *= (update_in > -2.5) & (update_in < 2.5)
            grad_update += 0.0
            grad_gates[:, units:2 * units] = 0.0
            grad_candidate = np.multiply(
                grad_hidden, keep, out=grad_gates[:, 2 * units:]
            )
            grad_candidate *= 1.0 - candidate ** 2
            grad_candidate += 0.0
            grad_step_in = grad_gates @ np.swapaxes(kernel, -1, -2)
            grad_kernel = np.swapaxes(step_in, -1, -2) @ grad_gates
            grad_bias = _unbroadcast(grad_gates, bias.shape)
            grad_gru_kernel = _live_columns(grad_kernel, units)
            grad_gru_bias = _live_columns(grad_bias, units)

            grad_features, grad_gamma_rec, grad_beta_rec = _norm_backward(
                grad_step_in.reshape(batch, 1, self.filters), norm_rec, True
            )
            grad_features *= features > 0.0  # after the ReLU: the same mask
            grad_conv_kernel = np.zeros(conv_kernel.shape)
            grad_rows = grad_features[:, 0:1, :].reshape(batch, self.filters)
            np.matmul(columns.T, grad_rows, out=grad_conv_kernel[0])
            grad_normalized = (grad_rows @ conv_kernel[0].T).reshape(
                batch, 1, channels
            )
            grad_conv_bias = grad_features.sum(axis=(0, 1))
            if shortcut_from == "bn":
                grad_normalized += grad
            grad_values, grad_gamma_in, grad_beta_in = _norm_backward(
                grad_normalized,
                norm_in,
                input_grad,
                prior=grad if shortcut_from == "input" else None,
            )
            return (
                grad_values,
                grad_gamma_in,
                grad_beta_in,
                grad_conv_kernel,
                grad_conv_bias,
                grad_gamma_rec,
                grad_beta_rec,
                grad_gru_kernel,
                grad_gru_bias,
            )

        parameters = (
            self.input_norm.gamma,
            self.input_norm.beta,
            conv.kernel,
            conv.bias,
            self.recurrent_norm.gamma,
            self.recurrent_norm.beta,
            gru.kernel,
            gru.bias,
        )
        return _make_result(outputs, (inputs, *parameters), backward)

    def inference_arrays(self) -> Dict[str, np.ndarray]:
        """The GRU's two live gates on one step, with the second BN folded in.

        On one step the GRU's state starts at zero, so its output is
        ``(1 - z) * c`` with ``z = clip(0.2 (y K_z + b_z) + 0.5, 0, 1)``,
        ``c = tanh(y K_c + b_c)`` and ``y = x s + t`` the second batch
        norm's folded affine map.  Everything before the clip and the tanh
        is affine, and ``1 - clip(u, 0, 1) == clip(1 - u, 0, 1)``, so both
        gates come from one stacked product ``x @ kernel + bias``::

            kernel[0] = -0.2 diag(s) K_z    bias[0] = 0.5 - 0.2 (t K_z + b_z)
            kernel[1] =      diag(s) K_c    bias[1] =        t K_c + b_c

        and ``(1 - z) * c == clip(gates[0], 0, 1) * tanh(gates[1])``.  The
        float64 fold is cached per weights epoch, like the batch norm's
        (see :meth:`BatchNormalization.folded_constants`); ``fast_arrays``
        casts it once per ``(epoch, dtype)``.  Empty until the GRU is built.
        """
        if not self.recurrent.built:
            return {}
        epoch = weights_epoch()
        gates = self._gates
        if gates is None or gates[0] != epoch:
            scale, shift = self.recurrent_norm.folded_constants()
            units = self.recurrent_units
            kernel = self.recurrent.kernel.data
            bias = self.recurrent.bias.data
            # The update and candidate columns, in either GRU layout.
            stacked = np.stack([kernel[:, :units], kernel[:, -units:]])
            stacked_bias = shift @ stacked + np.stack([bias[:units], bias[-units:]])
            stacked *= scale[:, None]
            stacked[0] *= -0.2
            stacked_bias[0] *= -0.2
            stacked_bias[0] += 0.5
            gates = (epoch, {"kernel": stacked, "bias": stacked_bias[:, None, :]})
            self._gates = gates
        return gates[1]

    def fast_transform(self, inputs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Graph-free :meth:`transform` (inference semantics, raw ndarrays).

        ``inputs`` is only read.  Every later array is one the block just
        allocated.  On one step (the paper's shape) max pooling returns the
        convolution's GEMM output as is, and the second batch norm and the
        GRU run as one stacked ``(2, batch, units)`` product with the
        folded gate arrays of :meth:`inference_arrays`: the update gate's
        clip and the candidate's tanh run in place on its two contiguous
        halves, and their product is the output.  On more steps the second
        batch norm runs in place on the pooled output and the GRU runs its
        own :meth:`~repro.nn.layers.recurrent.GRU.fast_call`.  Dropout is a
        no-op at inference.
        """
        folded = self.input_norm.fast_arrays(inputs.dtype)
        normalized = inputs * folded["scale"]
        normalized += folded["shift"]
        features = self.convolution.fast_call(normalized)
        features = self.pooling.fast_call(features)
        batch, steps, _ = features.shape
        if steps == 1:
            folded = self.fast_arrays(features.dtype)
            gates = features[:, 0] @ folded["kernel"]
            gates += folded["bias"]
            keep = np.clip(gates[0], 0.0, 1.0, out=gates[0])
            keep *= np.tanh(gates[1], out=gates[1])
            return keep.reshape(batch, 1, self.recurrent_units), normalized
        folded = self.recurrent_norm.fast_arrays(features.dtype)
        features *= folded["scale"]
        features += folded["shift"]
        features = self.recurrent.fast_call(features)
        return features.reshape(batch, 1, self.recurrent_units), normalized

    def fast_call(self, inputs: np.ndarray) -> np.ndarray:
        outputs, _ = self.fast_transform(inputs)
        return outputs

    def parameter_layer_count(self) -> int:
        """Parameter layers contributed by this block."""
        return PARAMETER_LAYERS_PER_BLOCK


class ResidualBlock(PlainBlock):
    """Fig. 4(b): the plain block wrapped with a shortcut from the first BN output.

    Parameters
    ----------
    shortcut_from:
        ``"bn"`` (paper's design, Fig. 4(b)) takes the shortcut from the first
        BN output; ``"input"`` takes it from the raw block input.  The
        alternative is exercised by the shortcut-placement ablation bench.
    """

    def __init__(
        self,
        filters: int,
        kernel_size: int,
        recurrent_units: int,
        dropout_rate: float = 0.6,
        pool_size: int = 2,
        shortcut_from: str = "bn",
        name: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(
            filters=filters,
            kernel_size=kernel_size,
            recurrent_units=recurrent_units,
            dropout_rate=dropout_rate,
            pool_size=pool_size,
            name=name,
            seed=seed,
        )
        if shortcut_from not in ("bn", "input"):
            raise ValueError("shortcut_from must be 'bn' or 'input'")
        self.shortcut_from = shortcut_from
        self.merge = self.register(Add(name=f"{self.name}/add"))
        self._projection: Optional[Conv1D] = None

    def build(self, input_shape: Tuple[int, ...]) -> None:
        """Create the shortcut projection eagerly when the shapes demand one.

        The projection used to be created lazily inside the first forward
        pass, so a block that was serialized or ``count_params()``-ed before
        that silently omitted it.  Building it here (the shortcut source
        always has the block input's channel count) keeps parameter counts
        and round-tripped weights stable from build time on.
        """
        super().build(input_shape)
        channels = input_shape[-1]
        if channels != self.recurrent_units:
            projection = self._ensure_projection()
            if not projection.built:
                projection.build((input_shape[0], 1, channels))
                projection.built = True

    def _ensure_projection(self) -> Conv1D:
        if self._projection is None:
            self._projection = self.register(
                Conv1D(
                    filters=self.recurrent_units,
                    kernel_size=1,
                    name=f"{self.name}/shortcut_proj",
                )
            )
        return self._projection

    def _project_shortcut(self, shortcut: Tensor, training: bool) -> Tensor:
        """Match the shortcut's shape to the block output ``(batch, 1, units)``."""
        batch, steps, channels = shortcut.shape
        if steps != 1:
            shortcut = reshape(
                global_average_pool1d(shortcut), (batch, 1, channels)
            )
        if channels != self.recurrent_units:
            shortcut = self._ensure_projection()(shortcut, training=training)
        return shortcut

    def call(self, inputs: Tensor, training: bool = False) -> Tensor:
        if self._fuses(inputs, training) and inputs.shape[2] == self.recurrent_units:
            return self._training_step(inputs, shortcut_from=self.shortcut_from)
        outputs, normalized = self.transform(inputs, training)
        shortcut_source = normalized if self.shortcut_from == "bn" else inputs
        shortcut = self._project_shortcut(shortcut_source, training)
        return self.merge([outputs, shortcut], training=training)

    def fast_call(self, inputs: np.ndarray) -> np.ndarray:
        outputs, normalized = self.fast_transform(inputs)
        shortcut = normalized if self.shortcut_from == "bn" else inputs
        batch, steps, channels = shortcut.shape
        if steps != 1:
            shortcut = shortcut.mean(axis=1).reshape(batch, 1, channels)
        if channels != self.recurrent_units:
            shortcut = self._ensure_projection().fast_forward(shortcut)
        outputs += shortcut
        return outputs

    def parameter_layer_count(self) -> int:
        """Parameter layers contributed by this block (plus any projection)."""
        base = PARAMETER_LAYERS_PER_BLOCK
        return base + (1 if self._projection is not None else 0)
