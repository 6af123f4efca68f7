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
  nodes are constructed anywhere on the path;
* the computation runs in the input's dtype.  float32 is the served dtype:
  :meth:`~repro.preprocessing.pipeline.IDSPreprocessor.transform_inputs`
  emits it, ``Model.predict`` keeps it, and every layer then reads float32 copies of its weights
  (:meth:`~repro.nn.layers.base.Layer.fast_arrays`) and returns float32.
  On a trained 10-block Pelican that stays within 1e-5 of the float64
  tape (3.2e-6 measured on a flood stream, no verdict flipped).  Any
  other input dtype reads the stored float64 arrays (or their per-epoch
  folds) themselves, with no copy, so float64 input is the oracle below;
* inference semantics only: dropout is a no-op and batch normalization uses
  its moving statistics, exactly like the tape path with ``training=False``;
* float64 outputs match the tape path to float64 round-off, not bitwise (up to
  ~2e-14 on a trained 10-block Pelican).  The tests assert 1e-6 against the
  tape, and the serving tests assert identical confusion counts on every
  execution model.  Both paths run the same parameters and make the same
  exact algebraic shortcuts: the convolution sums one GEMM per live tap
  on both (zero-padding taps are skipped, see
  :func:`repro.nn.tensor.conv1d_forward`; a 1-step ``Conv1D`` stores only
  its live tap), and on the GRU's all-zero initial state both skip the
  recurrent matmul and the reset gate, which only scales that zero term
  (a 1-step ``GRU`` stores no recurrent kernel and no reset columns at
  all).  The fast LSTM skips its zero-state matmul too; its tape op
  still multiplies it out, which is also exact.  The remaining round-off
  comes from GEMM blocking (on the zero state the fast GRU multiplies the
  update and candidate column views; the tape multiplies the whole Keras
  layout, with zero reset columns on 1 step, so that it trains bit for bit
  like the full layer), from batch norm folded into one scale and shift,
  and, in a Pelican block on one step, from the second batch norm and the
  hard sigmoid's affine part folded into one stacked update/candidate
  kernel and bias (:meth:`repro.core.blocks.PlainBlock.inference_arrays`),
  which sums ``x (diag(s) K)`` where the tape sums ``(x s + t) K``.

Ownership rule: a fast kernel writes only into arrays it allocated.  The
raw ``relu``, ``hard_sigmoid`` and ``tanh`` kernels overwrite and return
their argument (``linear`` returns it untouched; ``softmax`` allocates), so
a layer hands them only a GEMM output or another temporary it just created,
and copies first when the array is not its own (the LSTM copies its
carried cell state).  No ``fast_call`` ever writes into its input, so the
caller's array survives the forward pass unchanged.  Batch normalization
runs as ``out = x * scale; out += shift`` with the folded constants from
:func:`fold_batch_norm`.  A block on one step multiplies its pooled
convolution output by its stacked, folded gate kernel into one fresh
``(2, batch, units)`` array and runs the bias add, the update gate's clip,
the candidate's tanh and their product in place on it; a residual block
then adds its shortcut in place on that product.

Every layer defines its own ``fast_call``; there is no tape fallback.

Derived-constant caching
------------------------

Some fast kernels use constants *derived* from the weights — batch
normalization folds ``(gamma, beta, moving_mean, moving_variance)`` into a
single scale and shift, and the float32 path reads float32 copies of every
weight.  Re-deriving them on every batch is wasted work in a serving loop
where the weights never change between requests.  The module keeps a
global, monotonically increasing **weights epoch**; layers cache their
derived constants tagged with the epoch and recompute only after the epoch
moves.  The folded batch norm and a block's folded gates are cached per
epoch in float64; the float32 copies (of the weights, or of those float64
folds) are cached per ``(epoch, dtype)``, one per layer.  Everything that
mutates weights bumps it:
:meth:`repro.nn.optimizers.Optimizer.step`, :meth:`repro.nn.layers.base.Layer.set_weights`
and the training-mode batch-norm forward (which updates the moving
statistics).  The counter is process-global and only ever increments, so
concurrent serving workers at worst recompute once — never serve stale
constants after training resumed.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Tuple

import numpy as np

from . import tensor as ops
from .tensor import same_padding1d

__all__ = [
    "RAW_ACTIVATIONS",
    "get_raw_activation",
    "raw_hard_sigmoid",
    "raw_tanh",
    "raw_conv1d",
    "raw_max_pool1d",
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
# Raw activations (same formulas as the tape ops in repro.nn.tensor).
# relu, hard_sigmoid and tanh overwrite and return their argument.
# ---------------------------------------------------------------------- #
def _raw_linear(x: np.ndarray) -> np.ndarray:
    return x


def _raw_relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0, out=x)


def raw_hard_sigmoid(x: np.ndarray) -> np.ndarray:
    """The recurrent layers' gate activation, in place."""
    x *= 0.2
    x += 0.5
    return np.clip(x, 0.0, 1.0, out=x)


def raw_tanh(x: np.ndarray) -> np.ndarray:
    """The recurrent layers' candidate activation, in place."""
    return np.tanh(x, out=x)


def _raw_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


#: The activations a ``Dense`` or ``Conv1D`` can name.
RAW_ACTIVATIONS = {
    "linear": _raw_linear,
    "relu": _raw_relu,
    "softmax": _raw_softmax,
}


def get_raw_activation(identifier: Optional[str]) -> Callable[[np.ndarray], np.ndarray]:
    """Resolve the raw-ndarray counterpart of an activation name (``None`` is linear)."""
    if identifier is None:
        return _raw_linear
    try:
        return RAW_ACTIVATIONS[identifier]
    except KeyError as exc:
        known = ", ".join(sorted(RAW_ACTIVATIONS))
        raise ValueError(
            f"unknown activation {identifier!r}; known activations: {known}"
        ) from exc


# ---------------------------------------------------------------------- #
# Raw window kernels
# ---------------------------------------------------------------------- #
def raw_conv1d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """1-D ``"same"`` convolution over ``(batch, steps, channels)`` without tape nodes.

    The same per-tap 2-D GEMMs as the tape's :func:`repro.nn.tensor.conv1d`
    (see :func:`repro.nn.tensor.conv1d_forward`), which skip the zero-padded
    region entirely.  The paper's 1-step ``Conv1D`` passes its one stored
    tap, so the contraction is ``channels`` rows instead of
    ``kernel_size * channels``.  The result is always a fresh array (the
    bias is added in place), so callers own it.
    """
    return ops.conv1d_forward(x, kernel, bias)[0]


def raw_max_pool1d(x: np.ndarray, pool_size: int) -> np.ndarray:
    """1-D ``"same"`` max pooling, stride ``pool_size``, without tape nodes."""
    batch, steps, channels = x.shape
    if steps == 1:
        # The one window covers the single real step (padding is -inf).
        return x
    pad_left, pad_right = same_padding1d(steps, pool_size, pool_size)
    out_steps = (steps + pad_left + pad_right - pool_size) // pool_size + 1
    x_padded = np.pad(
        x, ((0, 0), (pad_left, pad_right), (0, 0)), constant_values=-np.inf
    )
    strides = x_padded.strides
    windows = np.lib.stride_tricks.as_strided(
        x_padded,
        shape=(batch, out_steps, pool_size, channels),
        strides=(strides[0], strides[1] * pool_size, strides[1], strides[2]),
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

