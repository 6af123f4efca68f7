"""Numerical gradient checking utilities.

Used by the test suite to confirm that every op's analytic backward pass
matches a central-difference approximation — the usual way to keep a
hand-written autodiff engine honest.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

import numpy as np

from .tensor import Tensor

__all__ = ["numerical_gradient", "check_gradient"]


def numerical_gradient(
    func: Callable[[Sequence[Tensor]], Tensor],
    inputs: Sequence[Tensor],
    index: int,
    epsilon: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of ``func(inputs).sum()`` w.r.t. ``inputs[index]``."""
    target = inputs[index]
    data = target.data
    gradient = np.zeros(data.shape)
    # Index the array itself: for a non-contiguous array (the orthogonal
    # initializer returns a transposed view) reshape(-1) is a copy, and
    # perturbing it would leave the tensor unchanged.
    for position in np.ndindex(data.shape):
        original = data[position]
        data[position] = original + epsilon
        upper = float(func(inputs).data.sum())
        data[position] = original - epsilon
        lower = float(func(inputs).data.sum())
        data[position] = original
        gradient[position] = (upper - lower) / (2.0 * epsilon)
    return gradient


def check_gradient(
    func: Callable[[Sequence[Tensor]], Tensor],
    inputs: Sequence[Tensor],
    tolerance: float = 1e-4,
    epsilon: float = 1e-5,
) -> Tuple[bool, float]:
    """Compare analytic and numerical gradients for every input that requires grad.

    Returns
    -------
    (ok, max_error):
        ``ok`` is True when the maximum relative error over all checked inputs
        is below ``tolerance``.
    """
    for tensor in inputs:
        tensor.zero_grad()
    output = func(inputs)
    output.sum().backward()

    max_error = 0.0
    for index, tensor in enumerate(inputs):
        if not tensor.requires_grad:
            continue
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        numeric = numerical_gradient(func, inputs, index, epsilon=epsilon)
        scale = max(np.abs(numeric).max(), np.abs(analytic).max(), 1.0)
        error = float(np.abs(numeric - analytic).max() / scale)
        max_error = max(max_error, error)
    return max_error < tolerance, max_error
