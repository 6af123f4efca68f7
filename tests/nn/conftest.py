"""Shared fixtures for the ``repro.nn`` tests.

``conv1d_oracle`` is an independent reference for the 1-D convolution: the
textbook zero-pad + im2col formulation, with one GEMM over every tap
(padding included) forward and a per-output-step scatter backward.  The
library's tape op and inference kernel both skip the padding-only taps, so
they are checked against this rather than against each other.

``max_pool1d_oracle`` is the same for ``"same"`` max pooling with stride
``pool_size``: one window at a time over the real steps only, with each
window's upstream gradient routed to its arg-max.
"""

import numpy as np
import pytest


def im2col1d(x, kernel_size, stride):
    """Turn ``(batch, steps, channels)`` into ``(batch, out_steps, kernel*channels)``."""
    batch, steps, channels = x.shape
    out_steps = (steps - kernel_size) // stride + 1
    strides = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(batch, out_steps, kernel_size, channels),
        strides=(strides[0], strides[1] * stride, strides[1], strides[2]),
        writeable=False,
    )
    return windows.reshape(batch, out_steps, kernel_size * channels)


def padding1d(steps, kernel_size, stride, padding):
    """Keras ``"same"``/``"valid"`` padding as ``(left, right)``."""
    if padding == "valid":
        return 0, 0
    out_steps = -(-steps // stride)
    total = max((out_steps - 1) * stride + kernel_size - steps, 0)
    return total // 2, total - total // 2


def pad_im2col_conv1d(x, kernel, bias, stride, padding, grad=None):
    """Forward output and ``(grad_x, grad_kernel, grad_bias)`` for upstream ``grad``.

    ``grad`` defaults to ones (the gradient of ``output.sum()``).
    """
    kernel_size, in_channels, out_channels = kernel.shape
    batch, steps, _ = x.shape
    pad_left, pad_right = padding1d(steps, kernel_size, stride, padding)
    x_padded = np.pad(x, ((0, 0), (pad_left, pad_right), (0, 0)))
    columns = im2col1d(x_padded, kernel_size, stride)
    kernel_matrix = kernel.reshape(kernel_size * in_channels, out_channels)
    output = columns @ kernel_matrix + bias
    if grad is None:
        grad = np.ones(output.shape)

    out_steps = output.shape[1]
    grad_columns = (grad @ kernel_matrix.T).reshape(
        batch, out_steps, kernel_size, in_channels
    )
    grad_x_padded = np.zeros(x_padded.shape)
    for step in range(out_steps):
        start = step * stride
        grad_x_padded[:, start:start + kernel_size, :] += grad_columns[:, step]
    grad_x = grad_x_padded[:, pad_left:pad_left + steps, :]
    grad_kernel = (
        columns.reshape(-1, kernel_size * in_channels).T
        @ grad.reshape(-1, out_channels)
    ).reshape(kernel.shape)
    return output, grad_x, grad_kernel, grad.sum(axis=(0, 1))


@pytest.fixture
def conv1d_oracle():
    return pad_im2col_conv1d


def naive_max_pool1d(x, pool_size, grad=None):
    """Forward output and ``grad_x`` for upstream ``grad`` (ones by default)."""
    batch, steps, channels = x.shape
    pad_left, _ = padding1d(steps, pool_size, pool_size, "same")
    out_steps = -(-steps // pool_size)
    if grad is None:
        grad = np.ones((batch, out_steps, channels))
    output = np.empty((batch, out_steps, channels))
    grad_x = np.zeros(x.shape)
    for step in range(out_steps):
        start = step * pool_size - pad_left
        low, high = max(start, 0), min(start + pool_size, steps)
        window = x[:, low:high, :]
        output[:, step] = window.max(axis=1)
        winner = low + window.argmax(axis=1)
        for b in range(batch):
            for c in range(channels):
                grad_x[b, winner[b, c], c] += grad[b, step, c]
    return output, grad_x


@pytest.fixture
def max_pool1d_oracle():
    return naive_max_pool1d
