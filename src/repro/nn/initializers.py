"""Weight initialization schemes.

The schemes mirror the Keras defaults the paper's implementation relied on:
Glorot-uniform for convolution/dense kernels, orthogonal matrices for
recurrent kernels and zeros for biases.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

__all__ = ["zeros", "ones", "glorot_uniform", "orthogonal", "get_initializer"]

Shape = Tuple[int, ...]
Initializer = Callable[[Shape, np.random.Generator], np.ndarray]


def _fan_in_out(shape: Shape) -> Tuple[int, int]:
    """Compute fan-in/fan-out for dense, conv and recurrent kernel shapes."""
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    # Convolution kernels: (kernel_size, in_channels, out_channels).
    receptive_field = int(np.prod(shape[:-2]))
    return shape[-2] * receptive_field, shape[-1] * receptive_field


def zeros(shape: Shape, rng: np.random.Generator) -> np.ndarray:
    """All-zeros initializer (the conventional bias initializer)."""
    return np.zeros(shape)


def ones(shape: Shape, rng: np.random.Generator) -> np.ndarray:
    """All-ones initializer (used for batch-norm scale parameters)."""
    return np.ones(shape)


def glorot_uniform(shape: Shape, rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initializer (Keras default for kernels)."""
    fan_in, fan_out = _fan_in_out(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def orthogonal(shape: Shape, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal initializer (Keras default for recurrent kernels)."""
    if len(shape) < 2:
        raise ValueError("orthogonal initializer requires at least a 2-D shape")
    rows = shape[0]
    cols = int(np.prod(shape[1:]))
    flat = rng.normal(0.0, 1.0, size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return q[:rows, :cols].reshape(shape)


_REGISTRY: Dict[str, Initializer] = {
    "zeros": zeros,
    "ones": ones,
    "glorot_uniform": glorot_uniform,
    "orthogonal": orthogonal,
}


def get_initializer(identifier: str) -> Initializer:
    """Resolve an initializer from its name."""
    try:
        return _REGISTRY[identifier]
    except KeyError as exc:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown initializer {identifier!r}; known initializers: {known}"
        ) from exc
