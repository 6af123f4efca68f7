"""Batch normalization.

The paper applies BN before both the convolution and the GRU in every block to
"reduce the internal covariate shift" and, crucially for Pelican, the residual
shortcut is taken from the output of the block's first BN layer.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .. import tensor as ops
from ..inference import fold_batch_norm, invalidate_weight_caches, weights_epoch
from ..tensor import Tensor
from .base import Layer

__all__ = ["BatchNormalization"]


class BatchNormalization(Layer):
    """Normalize activations to zero mean / unit variance per channel.

    During training the batch statistics are used and exponential moving
    averages are maintained; during inference the moving averages are used.
    """

    #: Momentum of the moving-average update.  Lower than Keras' 0.99
    #: because the scaled-down experiments take far fewer optimizer steps
    #: than the paper's full runs; the moving statistics are also seeded
    #: from the first training batch for the same reason.
    momentum = 0.9
    #: Added to the variance for numerical stability.
    epsilon = 1e-3

    def __init__(self, name: Optional[str] = None, seed: Optional[int] = None) -> None:
        super().__init__(name=name, seed=seed)
        self.gamma: Optional[Tensor] = None
        self.beta: Optional[Tensor] = None
        # (weights epoch, scale, shift) — see repro.nn.inference.
        self._folded: Optional[Tuple[int, np.ndarray, np.ndarray]] = None

    def build(self, input_shape: Tuple[int, ...]) -> None:
        channels = input_shape[-1]
        self.gamma = self.add_parameter("gamma", (channels,), "ones")
        self.beta = self.add_parameter("beta", (channels,), "zeros")
        self.add_buffer("moving_mean", np.zeros(channels))
        self.add_buffer("moving_variance", np.ones(channels))
        self._moving_stats_initialized = False

    def update_moving_statistics(self, values: np.ndarray) -> None:
        """Blend one training batch's per-channel statistics into the moving ones.

        The first batch ever seen seeds the moving statistics.  Both the
        training-mode :meth:`call` and the fused training node of a Pelican
        block (:mod:`repro.core.blocks`) update them through this method.
        """
        reduce_axes = tuple(range(values.ndim - 1))
        batch_mean = values.mean(axis=reduce_axes)
        batch_variance = values.var(axis=reduce_axes)
        if not self._moving_stats_initialized:
            # Seed the moving statistics with the first batch so inference
            # is sensible even after very few training steps.
            self._buffers["moving_mean"] = batch_mean.copy()
            self._buffers["moving_variance"] = batch_variance.copy()
            self._moving_stats_initialized = True
        self._buffers["moving_mean"] = (
            self.momentum * self._buffers["moving_mean"]
            + (1.0 - self.momentum) * batch_mean
        )
        self._buffers["moving_variance"] = (
            self.momentum * self._buffers["moving_variance"]
            + (1.0 - self.momentum) * batch_variance
        )
        # The moving statistics feed the fast path's folded constants.
        invalidate_weight_caches()

    def call(self, inputs: Tensor, training: bool = False) -> Tensor:
        reduce_axes = tuple(range(inputs.ndim - 1))
        if training:
            self.update_moving_statistics(inputs.data)
            # Normalisation must participate in the autodiff graph, so the
            # statistics are recomputed with tensor ops here.
            mean = ops.reduce_mean(inputs, axis=reduce_axes, keepdims=True)
            centered = inputs - mean
            variance = ops.reduce_mean(centered * centered, axis=reduce_axes, keepdims=True)
            normalized = centered * ops.power(variance + self.epsilon, -0.5)
        else:
            mean = self._buffers["moving_mean"]
            variance = self._buffers["moving_variance"]
            normalized = (inputs - mean) * ((variance + self.epsilon) ** -0.5)
        return normalized * self.gamma + self.beta

    def set_buffers(self, buffers) -> int:
        """Load moving statistics and mark them as seeded.

        Restored statistics come from a trained model, so the next training
        batch must blend into them with the usual momentum instead of
        overwriting them the way the first-ever batch does.
        """
        consumed = super().set_buffers(buffers)
        if consumed:
            self._moving_stats_initialized = True
        return consumed

    def folded_constants(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cached ``(scale, shift)`` of the inference-mode normalization.

        Re-derived only when the global weights epoch has moved since the
        last call (optimizer step, weight load, training-mode statistics
        update).  Concurrent callers may race to recompute, but the result
        is identical either way, so the worst case is duplicated work.
        """
        epoch = weights_epoch()
        folded = self._folded
        if folded is None or folded[0] != epoch:
            scale, shift = fold_batch_norm(
                self.gamma.data,
                self.beta.data,
                self._buffers["moving_mean"],
                self._buffers["moving_variance"],
                self.epsilon,
            )
            folded = (epoch, scale, shift)
            self._folded = folded
        return folded[1], folded[2]

    def inference_arrays(self) -> Dict[str, np.ndarray]:
        """The folded ``scale`` and ``shift`` (see :meth:`folded_constants`)."""
        scale, shift = self.folded_constants()
        return {"scale": scale, "shift": shift}

    def fast_call(self, inputs: np.ndarray) -> np.ndarray:
        folded = self.fast_arrays(inputs.dtype)
        outputs = inputs * folded["scale"]
        outputs += folded["shift"]
        return outputs
