"""Graph-free inference kernels — the ``Model.predict(..., fast=True)`` path.

The autodiff :class:`~repro.nn.tensor.Tensor` pays for its flexibility on
every operation: a wrapper object, a ``float64`` coercion and a backward
closure are allocated even under :class:`~repro.nn.tensor.no_grad`.  For a
serving workload that only ever runs the forward pass, none of that is
needed.  This module provides *raw* numpy kernels with the exact same
numerics as the tape ops, and every layer exposes a ``fast_call`` method
built on them (see :meth:`repro.nn.layers.base.Layer.fast_call`).

The fast-path contract:

* raw ``numpy.ndarray`` in, raw ``numpy.ndarray`` out — no ``Tensor`` graph
  nodes are constructed anywhere on the path, and ``float32`` inputs are
  accepted as-is (the tape path would silently upcast them);
* inference semantics only: dropout is a no-op and batch normalization uses
  its moving statistics, exactly like the tape path with ``training=False``;
* outputs match the tape path to float64 round-off, not bitwise: the
  kernels apply the same formulas but sum in a different order (up to
  ~2e-14 on a trained 10-block Pelican).  The tests assert 1e-6 against the
  tape, and the serving tests assert identical confusion counts on every
  execution model.  The only deliberate algebraic changes are exact ones:
  zero-padding contributions, all-zero initial recurrent states and, on that
  zero state, the GRU's reset-gate columns (the gate only scales the zero
  recurrent term) are skipped instead of multiplied out.

Layers without a specialised ``fast_call`` transparently fall back to the
tape path under ``no_grad``, so custom layers keep working.

Derived-constant caching
------------------------

Some fast kernels use constants *derived* from the weights — batch
normalization folds ``(gamma, beta, moving_mean, moving_variance)`` into a
single scale and shift.  Re-deriving them on every batch is wasted work in a
serving loop where the weights never change between requests.  The module
keeps a global, monotonically increasing **weights epoch**; layers cache
their derived constants tagged with the epoch and recompute only after the
epoch moves.  Everything that mutates weights bumps it:
:meth:`repro.nn.optimizers.Optimizer.step`, :meth:`repro.nn.layers.base.Layer.set_weights`
and the training-mode batch-norm forward (which updates the moving
statistics).  The counter is process-global and only ever increments, so
concurrent serving workers at worst recompute once — never serve stale
constants after training resumed.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Tuple, Union

import numpy as np

from . import tensor as ops
from .tensor import no_grad, same_padding1d

__all__ = [
    "RAW_ACTIVATIONS",
    "get_raw_activation",
    "raw_conv1d",
    "raw_max_pool1d",
    "raw_batch_norm",
    "fold_batch_norm",
    "weights_epoch",
    "invalidate_weight_caches",
]


# ---------------------------------------------------------------------- #
# Weights epoch — invalidation for cached derived constants
# ---------------------------------------------------------------------- #
_weights_epoch = 0
_weights_epoch_lock = threading.Lock()


def weights_epoch() -> int:
    """Current weights epoch; caches tagged with an older value are stale."""
    return _weights_epoch


def invalidate_weight_caches() -> int:
    """Bump the weights epoch and return it.

    Called by every code path that mutates network weights (optimizer steps,
    weight loading, training-mode batch-norm statistics updates) so that the
    fast path's cached derived constants are re-derived on the next batch.
    """
    global _weights_epoch
    with _weights_epoch_lock:
        _weights_epoch += 1
        return _weights_epoch


# ---------------------------------------------------------------------- #
# Raw activations (same formulas as the tape ops in repro.nn.tensor)
# ---------------------------------------------------------------------- #
def _raw_linear(x: np.ndarray) -> np.ndarray:
    return x


def _raw_relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _raw_sigmoid(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))


def _raw_hard_sigmoid(x: np.ndarray) -> np.ndarray:
    return np.clip(0.2 * x + 0.5, 0.0, 1.0)


def _raw_tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def _raw_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


RAW_ACTIVATIONS = {
    "linear": _raw_linear,
    "relu": _raw_relu,
    "sigmoid": _raw_sigmoid,
    "hard_sigmoid": _raw_hard_sigmoid,
    "tanh": _raw_tanh,
    "softmax": _raw_softmax,
}

#: Tape-op -> raw-kernel mapping, so layers constructed with a callable from
#: ``repro.nn.tensor`` (rather than a name) still get the fast kernel.
_TENSOR_OP_TO_RAW = {
    ops.relu: _raw_relu,
    ops.sigmoid: _raw_sigmoid,
    ops.hard_sigmoid: _raw_hard_sigmoid,
    ops.tanh: _raw_tanh,
    ops.softmax: _raw_softmax,
}


def get_raw_activation(
    identifier: Union[str, Callable, None]
) -> Callable[[np.ndarray], np.ndarray]:
    """Resolve the raw-ndarray counterpart of an activation identifier.

    Unknown callables are wrapped so they run on the tape path under
    ``no_grad`` — slower, but the fast path stays correct for custom
    activations.
    """
    if identifier is None:
        return _raw_linear
    if isinstance(identifier, str):
        try:
            return RAW_ACTIVATIONS[identifier]
        except KeyError as exc:
            known = ", ".join(sorted(RAW_ACTIVATIONS))
            raise ValueError(
                f"unknown activation {identifier!r}; known activations: {known}"
            ) from exc
    if identifier in _TENSOR_OP_TO_RAW:
        return _TENSOR_OP_TO_RAW[identifier]

    def fallback(x: np.ndarray) -> np.ndarray:
        with no_grad():
            return identifier(ops.as_tensor(x)).data

    return fallback


# ---------------------------------------------------------------------- #
# Raw window kernels
# ---------------------------------------------------------------------- #
def raw_conv1d(
    x: np.ndarray,
    kernel: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    padding: str = "same",
) -> np.ndarray:
    """1-D convolution over ``(batch, steps, channels)`` without tape nodes.

    Computes :func:`repro.nn.tensor.conv1d`'s forward pass as a sum of
    per-tap 2-D matmuls that skip the zero-padded region entirely.  For the
    paper's 1-time-step inputs this reduces the contraction from
    ``kernel_size * channels`` to ``channels`` rows.  The padding rows
    contribute exactly zero, but the shorter sums round differently from the
    tape's single im2col product, so the two agree to float64 round-off, not
    bitwise.
    """
    kernel_size, in_channels, out_channels = kernel.shape
    batch, steps, channels = x.shape
    if channels != in_channels:
        raise ValueError(
            f"conv1d expected {in_channels} input channels, got {channels}"
        )
    if padding == "same":
        pad_left, pad_right = same_padding1d(steps, kernel_size, stride)
    elif padding == "valid":
        pad_left = pad_right = 0
    else:
        raise ValueError(f"unknown padding mode: {padding!r}")

    padded_steps = steps + pad_left + pad_right
    out_steps = (padded_steps - kernel_size) // stride + 1

    shape = (batch, out_steps, out_channels)
    output: Optional[np.ndarray] = None
    for tap in range(kernel_size):
        # Input index feeding output step t through this tap: t*stride + tap - pad_left.
        first_in = tap - pad_left
        t_min = -(first_in // stride) if first_in < 0 else 0  # ceil(-first_in/stride)
        t_max = (steps - 1 - first_in) // stride  # largest t with index < steps
        if t_max < 0:
            continue
        t_max = min(t_max, out_steps - 1)
        if t_max < t_min:
            continue
        in_start = t_min * stride + first_in
        in_stop = t_max * stride + first_in + 1
        rows = t_max + 1 - t_min
        # One 2-D GEMM over batch * rows: a 3-D operand would make numpy run
        # one small product per record.  reshape copies only a strided slice.
        taps = x[:, in_start:in_stop:stride, :].reshape(batch * rows, channels)
        product = (taps @ kernel[tap]).reshape(batch, rows, out_channels)
        if output is None:
            if rows == out_steps:
                output = product
                continue
            output = np.zeros(shape, dtype=np.result_type(x, kernel))
        output[:, t_min:t_max + 1, :] += product
    if output is None:
        output = np.zeros(shape, dtype=np.result_type(x, kernel))
    if bias is not None:
        output += bias
    return output


def raw_max_pool1d(
    x: np.ndarray,
    pool_size: int = 2,
    stride: Optional[int] = None,
    padding: str = "same",
) -> np.ndarray:
    """1-D max pooling over ``(batch, steps, channels)`` without tape nodes."""
    if stride is None:
        stride = pool_size
    batch, steps, channels = x.shape
    if padding == "same":
        pad_left, pad_right = same_padding1d(steps, pool_size, stride)
    elif padding == "valid":
        pad_left = pad_right = 0
    else:
        raise ValueError(f"unknown padding mode: {padding!r}")

    padded_steps = steps + pad_left + pad_right
    out_steps = (padded_steps - pool_size) // stride + 1
    if steps == 1 and out_steps == 1:
        # Every window covers the single real step (padding is -inf).
        return x
    x_padded = np.pad(
        x, ((0, 0), (pad_left, pad_right), (0, 0)), constant_values=-np.inf
    )
    strides = x_padded.strides
    windows = np.lib.stride_tricks.as_strided(
        x_padded,
        shape=(batch, out_steps, pool_size, channels),
        strides=(strides[0], strides[1] * stride, strides[1], strides[2]),
        writeable=False,
    )
    return windows.max(axis=2)


def fold_batch_norm(
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    variance: np.ndarray,
    epsilon: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold inference-mode batch norm into ``(scale, shift)``.

    ``BN(x) == x * scale + shift`` exactly; layers cache the pair tagged with
    :func:`weights_epoch` so the square root is paid once per weight state
    instead of once per served batch.
    """
    scale = gamma / np.sqrt(variance + epsilon)
    return scale, beta - mean * scale


def raw_batch_norm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    variance: np.ndarray,
    epsilon: float,
) -> np.ndarray:
    """Inference-mode batch norm folded into one scale and one shift."""
    scale, shift = fold_batch_norm(gamma, beta, mean, variance, epsilon)
    return x * scale + shift
