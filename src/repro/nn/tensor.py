"""Reverse-mode automatic differentiation over numpy arrays.

This module is the foundation of the :mod:`repro.nn` framework.  It provides a
:class:`Tensor` class that wraps a ``numpy.ndarray`` and records the operations
applied to it so that gradients can be computed with a single call to
:meth:`Tensor.backward`.

The design follows the classic define-by-run tape approach: every operation
returns a new :class:`Tensor` whose ``_backward`` closure knows how to push the
incoming gradient to the operation's inputs.  ``backward()`` walks the tape in
reverse topological order and accumulates gradients into ``Tensor.grad``.

Broadcasting is supported for the elementwise operations; gradients flowing
into a broadcast input are summed back down to the input's original shape by
:func:`_unbroadcast`.

Where a tensor feeds several ops, ``backward()`` sums their gradients in the
order its traversal reaches them (``existing + parent_grad``).  A tensor
keeps a first gradient without copying it when the producing closure (or
that sum) just allocated it; a view, a broadcast, the caller's seed array
or an array another tensor already keeps is copied.

Not every node is one primitive op.  In training mode on one time step a
Pelican block (:mod:`repro.core.blocks`) is a single node built with
:func:`_make_result`: its forward inlines the block's numpy arithmetic and
its backward inlines the backward closures of the ops it replaces, with
the same GEMM shapes, the same reduction calls and the same summation order,
so its gradients are bit-identical to the composed ops'.  Every other call
composes the primitive ops below.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

__all__ = [
    "Tensor",
    "as_tensor",
    "add",
    "mul",
    "matmul",
    "relu",
    "hard_sigmoid",
    "tanh",
    "exp",
    "log",
    "softmax",
    "concatenate",
    "stack",
    "no_grad",
    "same_padding1d",
    "conv1d_forward",
]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting.

    When an operand of shape ``shape`` was broadcast up to the shape of
    ``grad`` during the forward pass, the gradient of that operand is the sum
    of ``grad`` over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were size 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class _GradMode(threading.local):
    """Per-thread switch used by :func:`no_grad` to disable tape recording.

    Thread-local so that concurrent inference threads (the serving worker
    pool) entering and leaving ``no_grad`` at different times cannot
    re-enable taping — or leave it disabled — for each other.
    """

    enabled = True


_grad_mode = _GradMode()


class no_grad:
    """Context manager that disables gradient recording.

    Useful for inference passes (``model.predict``) where building the
    backward graph would only waste memory.  The switch is per-thread.
    """

    def __enter__(self) -> "no_grad":
        self._previous = _grad_mode.enabled
        _grad_mode.enabled = False
        return self

    def __exit__(self, *exc_info) -> None:
        _grad_mode.enabled = self._previous


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float64`` by default so that the
        framework's gradient checks are numerically trustworthy.
    requires_grad:
        Whether gradients should be accumulated into this tensor during
        :meth:`backward`.
    name:
        Optional human-readable label used in ``repr`` and error messages.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_backward", "_parents")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------ #
    # Basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return (
            f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{label})"
        )

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------ #
    # Gradient plumbing
    # ------------------------------------------------------------------ #
    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def _accumulate_grad(self, grad: np.ndarray, owned: bool) -> None:
        """Add ``grad`` to this tensor's gradient.

        A first gradient is kept as is when ``owned`` (the caller vouches
        that no other tensor or closure holds the array) and copied
        otherwise.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = grad if owned else np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.  For
            scalar tensors it defaults to ``1.0``.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient is only supported "
                    f"for scalar tensors, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).astype(np.float64)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        # Arrays some tensor already keeps as its gradient, and the caller's.
        claimed = {id(grad)}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            # Keep a gradient without copying it only when a backward closure
            # (or a sum of contributions) just allocated it: not a view or a
            # broadcast (they have a base), and not an array an earlier node
            # kept, which an op like ``add`` hands on to its parents as is.
            owned = (
                type(node_grad) is np.ndarray
                and node_grad.base is None
                and node_grad.dtype == np.float64
                and id(node_grad) not in claimed
            )
            node._accumulate_grad(node_grad, owned)
            if node.grad is node_grad:
                claimed.add(id(node_grad))
            if node._backward is None:
                continue
            parent_grads = node._backward(node_grad)
            for parent, parent_grad in zip(node._parents, parent_grads):
                if parent_grad is None:
                    continue
                if not (parent.requires_grad or parent._parents):
                    continue
                existing = grads.get(id(parent))
                if existing is None:
                    grads[id(parent)] = parent_grad
                else:
                    grads[id(parent)] = existing + parent_grad

    # ------------------------------------------------------------------ #
    # Operator overloads
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        return add(self, other)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return add(other, self)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return add(self, mul(other, -1.0))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return add(other, mul(self, -1.0))

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return mul(self, other)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return mul(other, self)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return mul(self, power(other, -1.0))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return mul(other, power(self, -1.0))

    def __neg__(self) -> "Tensor":
        return mul(self, -1.0)

    def __pow__(self, exponent: float) -> "Tensor":
        return power(self, exponent)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return matmul(self, other)

    def __getitem__(self, index) -> "Tensor":
        return getitem(self, index)

    # ------------------------------------------------------------------ #
    # Convenience methods mirroring the functional API
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        return transpose(self, axes)

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def exp(self) -> "Tensor":
        return exp(self)

    def log(self) -> "Tensor":
        return log(self)


def as_tensor(value: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already a tensor)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


def _make_result(
    data: np.ndarray,
    parents: Tuple[Tensor, ...],
    backward: Callable[[np.ndarray], Tuple[Optional[np.ndarray], ...]],
) -> Tensor:
    """Build an op result tensor, attaching the tape entry when recording."""
    result = Tensor(data)
    if _grad_mode.enabled and any(p.requires_grad or p._parents for p in parents):
        result._parents = parents
        result._backward = backward
        result.requires_grad = any(p.requires_grad for p in parents)
    return result


# ---------------------------------------------------------------------- #
# Elementwise arithmetic
# ---------------------------------------------------------------------- #
def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise, broadcasting addition."""
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def backward(grad: np.ndarray):
        return _unbroadcast(grad, a.shape), _unbroadcast(grad, b.shape)

    return _make_result(data, (a, b), backward)


def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise, broadcasting multiplication."""
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def backward(grad: np.ndarray):
        return (
            _unbroadcast(grad * b.data, a.shape),
            _unbroadcast(grad * a.data, b.shape),
        )

    return _make_result(data, (a, b), backward)


def power(a: ArrayLike, exponent: float) -> Tensor:
    """Elementwise power with a constant exponent."""
    a = as_tensor(a)
    data = a.data ** exponent

    def backward(grad: np.ndarray):
        return (grad * exponent * a.data ** (exponent - 1.0),)

    return _make_result(data, (a,), backward)


def exp(a: ArrayLike) -> Tensor:
    """Elementwise exponential."""
    a = as_tensor(a)
    data = np.exp(a.data)

    def backward(grad: np.ndarray):
        return (grad * data,)

    return _make_result(data, (a,), backward)


def log(a: ArrayLike) -> Tensor:
    """Elementwise natural logarithm."""
    a = as_tensor(a)
    data = np.log(a.data)

    def backward(grad: np.ndarray):
        return (grad / a.data,)

    return _make_result(data, (a,), backward)


def clip(a: ArrayLike, low: float, high: float) -> Tensor:
    """Clamp values to ``[low, high]``; gradient is passed only inside the range."""
    a = as_tensor(a)
    data = np.clip(a.data, low, high)

    def backward(grad: np.ndarray):
        mask = (a.data >= low) & (a.data <= high)
        return (grad * mask,)

    return _make_result(data, (a,), backward)


# ---------------------------------------------------------------------- #
# Activations
# ---------------------------------------------------------------------- #
def relu(a: ArrayLike) -> Tensor:
    """Rectified linear unit."""
    a = as_tensor(a)
    data = np.maximum(a.data, 0.0)

    def backward(grad: np.ndarray):
        return (grad * (a.data > 0.0),)

    return _make_result(data, (a,), backward)


def hard_sigmoid(a: ArrayLike) -> Tensor:
    """Piecewise-linear sigmoid approximation used as the GRU recurrent activation.

    Matches the Keras definition ``max(0, min(1, 0.2 * x + 0.5))``.
    """
    a = as_tensor(a)
    data = np.clip(0.2 * a.data + 0.5, 0.0, 1.0)

    def backward(grad: np.ndarray):
        inside = (a.data > -2.5) & (a.data < 2.5)
        return (grad * 0.2 * inside,)

    return _make_result(data, (a,), backward)


def tanh(a: ArrayLike) -> Tensor:
    """Hyperbolic tangent."""
    a = as_tensor(a)
    data = np.tanh(a.data)

    def backward(grad: np.ndarray):
        return (grad * (1.0 - data ** 2),)

    return _make_result(data, (a,), backward)


def softmax(a: ArrayLike, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (numerically stabilised by max subtraction)."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    data = exps / exps.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray):
        dot = (grad * data).sum(axis=axis, keepdims=True)
        return (data * (grad - dot),)

    return _make_result(data, (a,), backward)


# ---------------------------------------------------------------------- #
# Linear algebra
# ---------------------------------------------------------------------- #
def matmul(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Matrix product supporting 2-D operands (and batched left operands)."""
    a, b = as_tensor(a), as_tensor(b)
    data = a.data @ b.data

    def backward(grad: np.ndarray):
        grad_a = grad @ np.swapaxes(b.data, -1, -2)
        grad_b = np.swapaxes(a.data, -1, -2) @ grad
        return _unbroadcast(grad_a, a.shape), _unbroadcast(grad_b, b.shape)

    return _make_result(data, (a, b), backward)


# ---------------------------------------------------------------------- #
# Reductions
# ---------------------------------------------------------------------- #
def reduce_sum(a: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:
    """Sum over ``axis`` (all elements when ``axis`` is None)."""
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad: np.ndarray):
        if axis is None:
            return (np.broadcast_to(grad, a.shape).astype(np.float64),)
        grad_expanded = grad
        if not keepdims:
            grad_expanded = np.expand_dims(grad, axis=axis)
        return (np.broadcast_to(grad_expanded, a.shape).astype(np.float64),)

    return _make_result(data, (a,), backward)


def reduce_mean(a: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:
    """Mean over ``axis`` (all elements when ``axis`` is None)."""
    a = as_tensor(a)
    data = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.data.size
    elif isinstance(axis, tuple):
        count = int(np.prod([a.shape[ax] for ax in axis]))
    else:
        count = a.shape[axis]

    def backward(grad: np.ndarray):
        if axis is None:
            return (np.broadcast_to(grad / count, a.shape).astype(np.float64),)
        grad_expanded = grad
        if not keepdims:
            grad_expanded = np.expand_dims(grad, axis=axis)
        return (
            np.broadcast_to(grad_expanded / count, a.shape).astype(np.float64),
        )

    return _make_result(data, (a,), backward)


# ---------------------------------------------------------------------- #
# Shape manipulation
# ---------------------------------------------------------------------- #
def reshape(a: ArrayLike, shape: Tuple[int, ...]) -> Tensor:
    """Reshape without copying data."""
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def backward(grad: np.ndarray):
        return (grad.reshape(a.shape),)

    return _make_result(data, (a,), backward)


def transpose(a: ArrayLike, axes: Optional[Sequence[int]] = None) -> Tensor:
    """Permute tensor axes (reverse order when ``axes`` is None)."""
    a = as_tensor(a)
    data = np.transpose(a.data, axes)

    def backward(grad: np.ndarray):
        if axes is None:
            return (np.transpose(grad),)
        inverse = np.argsort(axes)
        return (np.transpose(grad, inverse),)

    return _make_result(data, (a,), backward)


def _is_basic_index(index) -> bool:
    """Whether ``index`` is numpy basic indexing (ints, slices, ``...``, ``None``).

    A basic index reads every source element at most once, so its gradient
    can be assigned; fancy (array or boolean) indices may repeat elements.
    """
    items = index if isinstance(index, tuple) else (index,)
    return all(
        isinstance(item, (int, np.integer, slice, type(None), type(Ellipsis)))
        and not isinstance(item, (bool, np.bool_))
        for item in items
    )


def getitem(a: ArrayLike, index) -> Tensor:
    """Tensor indexing/slicing.

    The gradient of a basic slice is assigned into zeros; a fancy index
    scatters it with ``add.at`` so that repeated elements accumulate.
    """
    a = as_tensor(a)
    data = a.data[index]
    basic = _is_basic_index(index)

    def backward(grad: np.ndarray):
        full = np.zeros_like(a.data)
        if basic:
            full[index] = grad
        else:
            np.add.at(full, index, grad)
        return (full,)

    return _make_result(data, (a,), backward)


def concatenate(tensors: Sequence[ArrayLike], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    boundaries = np.cumsum(sizes)[:-1]

    def backward(grad: np.ndarray):
        return tuple(np.split(grad, boundaries, axis=axis))

    return _make_result(data, tuple(tensors), backward)


def stack(tensors: Sequence[ArrayLike], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray):
        slices = np.split(grad, len(tensors), axis=axis)
        return tuple(np.squeeze(s, axis=axis) for s in slices)

    return _make_result(data, tuple(tensors), backward)


# ---------------------------------------------------------------------- #
# Convolution and pooling primitives (1-D, channels-last)
# ---------------------------------------------------------------------- #
def same_padding1d(steps: int, window: int, stride: int) -> Tuple[int, int]:
    """Keras-style ``"same"`` padding for a 1-D window op.

    Returns ``(pad_left, pad_right)`` such that the output length equals
    ``ceil(steps / stride)``.  Shared by the graph ops below and the raw
    inference kernels in :mod:`repro.nn.inference`.
    """
    out_steps = int(np.ceil(steps / stride))
    pad_total = max((out_steps - 1) * stride + window - steps, 0)
    pad_left = pad_total // 2
    return pad_left, pad_total - pad_left


def conv1d_forward(
    x: np.ndarray, kernel: np.ndarray, bias: np.ndarray
) -> Tuple[np.ndarray, list]:
    """Raw stride-1 ``"same"`` 1-D convolution as one 2-D GEMM per live tap.

    Shared by the tape op :func:`conv1d` and the inference kernel
    :func:`repro.nn.inference.raw_conv1d`.  A tap is live when it reads real
    input for at least one output step; taps that see only the zero padding
    are skipped (kernel 10 over 3 steps has two such taps).  Every output
    has at least one live tap.  The paper's 1-step
    :class:`~repro.nn.layers.Conv1D` stores only its live tap, so it runs
    here as a kernel-1 convolution with no padding.  Returns the output
    and, per live tap, ``(tap, out_start, out_stop, in_start, in_stop,
    columns)``: output steps ``out_start:out_stop`` read input steps
    ``in_start:in_stop``, gathered into the ``(batch * rows, channels)``
    matrix ``columns``.
    """
    kernel_size, in_channels, out_channels = kernel.shape
    batch, steps, channels = x.shape
    if channels != in_channels:
        raise ValueError(
            f"conv1d expected {in_channels} input channels, got {channels}"
        )
    pad_left, _ = same_padding1d(steps, kernel_size, 1)

    output: Optional[np.ndarray] = None
    live = []
    for tap in range(kernel_size):
        # Input index feeding output step t through this tap: t + tap - pad_left.
        first_in = tap - pad_left
        t_min = max(-first_in, 0)
        t_max = min(steps - 1 - first_in, steps - 1)
        if t_max < t_min:
            continue
        in_start = t_min + first_in
        in_stop = t_max + first_in + 1
        rows = t_max + 1 - t_min
        # One 2-D GEMM over batch * rows: a 3-D operand would make numpy run
        # one small product per record.  reshape copies only a partial slice.
        columns = x[:, in_start:in_stop, :].reshape(batch * rows, channels)
        live.append((tap, t_min, t_max + 1, in_start, in_stop, columns))
        product = (columns @ kernel[tap]).reshape(batch, rows, out_channels)
        if output is None:
            if rows == steps:
                output = product
                continue
            output = np.zeros(
                (batch, steps, out_channels), dtype=np.result_type(x, kernel)
            )
        output[:, t_min:t_max + 1, :] += product
    output += bias
    return output, live


def conv1d(x: ArrayLike, kernel: ArrayLike, bias: ArrayLike) -> Tensor:
    """Stride-1 ``"same"`` 1-D convolution over a ``(batch, steps, in_channels)`` input.

    ``kernel`` has shape ``(kernel_size, in_channels, out_channels)`` and
    ``bias`` ``(out_channels,)``; the output keeps the input's steps.

    Forward and backward touch only the live taps (see
    :func:`conv1d_forward`): the zero padding contributes nothing to the
    output or to ``grad_x``, and a tap that sees only padding gets an
    exact-zero kernel gradient.  A kernel-1 convolution (the paper's
    1-step :class:`~repro.nn.layers.Conv1D`) is one GEMM each way.
    """
    x, kernel, bias = as_tensor(x), as_tensor(kernel), as_tensor(bias)
    data, live = conv1d_forward(x.data, kernel.data, bias.data)
    batch, steps, in_channels = x.shape
    out_channels = kernel.shape[2]

    def backward(grad: np.ndarray):
        grad_x: Optional[np.ndarray] = None
        grad_kernel = np.zeros(kernel.shape)
        for tap, out_start, out_stop, in_start, in_stop, columns in live:
            rows = out_stop - out_start
            grad_rows = grad[:, out_start:out_stop, :].reshape(batch * rows, out_channels)
            np.matmul(columns.T, grad_rows, out=grad_kernel[tap])
            grad_taps = (grad_rows @ kernel.data[tap].T).reshape(batch, rows, in_channels)
            if grad_x is None:
                if rows == steps:
                    grad_x = grad_taps
                    continue
                grad_x = np.zeros(x.shape)
            grad_x[:, in_start:in_stop, :] += grad_taps
        return grad_x, grad_kernel, grad.sum(axis=(0, 1))

    return _make_result(data, (x, kernel, bias), backward)


def max_pool1d(x: ArrayLike, pool_size: int) -> Tensor:
    """1-D ``"same"`` max pooling, stride ``pool_size``, over ``(batch, steps, channels)``."""
    x = as_tensor(x)
    batch, steps, channels = x.shape
    if steps == 1:
        # The one window covers the single real step (padding is -inf).
        return x
    pad_left, pad_right = same_padding1d(steps, pool_size, pool_size)
    padded_steps = steps + pad_left + pad_right
    out_steps = (padded_steps - pool_size) // pool_size + 1
    x_padded = np.pad(
        x.data, ((0, 0), (pad_left, pad_right), (0, 0)), constant_values=-np.inf
    )
    strides = x_padded.strides
    windows = np.lib.stride_tricks.as_strided(
        x_padded,
        shape=(batch, out_steps, pool_size, channels),
        strides=(strides[0], strides[1] * pool_size, strides[1], strides[2]),
        writeable=False,
    )
    data = windows.max(axis=2)
    argmax = windows.argmax(axis=2)

    def backward(grad: np.ndarray):
        grad_padded = np.zeros((batch, padded_steps, channels))
        batch_idx, channel_idx = np.meshgrid(
            np.arange(batch), np.arange(channels), indexing="ij"
        )
        for step in range(out_steps):
            positions = step * pool_size + argmax[:, step, :]
            np.add.at(
                grad_padded,
                (batch_idx, positions, channel_idx),
                grad[:, step, :],
            )
        return (grad_padded[:, pad_left:pad_left + steps, :],)

    return _make_result(data, (x,), backward)


def global_average_pool1d(x: ArrayLike) -> Tensor:
    """Average over the time axis of a ``(batch, steps, channels)`` input."""
    return reduce_mean(as_tensor(x), axis=1)


def dropout(x: ArrayLike, rate: float, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: zero activations with probability ``rate`` and rescale."""
    x = as_tensor(x)
    if rate <= 0.0:
        return x
    if rate >= 1.0:
        raise ValueError("dropout rate must be < 1")
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    data = x.data * mask

    def backward(grad: np.ndarray):
        return (grad * mask,)

    return _make_result(data, (x,), backward)
