"""Gradient-descent optimizers.

The paper trains every network with RMSprop; SGD and Adam are the other two
arms of the optimizer ablation bench.

An optimizer updates :class:`~repro.nn.tensor.Tensor` parameters in place using
the gradients accumulated by ``backward()``.  State (momenta, running averages)
is keyed by parameter identity.
"""

from __future__ import annotations

from typing import Dict, Iterable, Union

import numpy as np

from .inference import invalidate_weight_caches
from .tensor import Tensor

__all__ = [
    "Optimizer",
    "SGD",
    "RMSprop",
    "Adam",
    "get_optimizer",
]


class Optimizer:
    """Base optimizer handling parameter registration and per-parameter state.

    Parameters
    ----------
    learning_rate:
        Step size used by the parameter update rule.
    """

    def __init__(self, learning_rate: float = 0.01) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = float(learning_rate)
        self.iterations = 0
        self._state: Dict[int, Dict[str, np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    def _slot(self, parameter: Tensor) -> Dict[str, np.ndarray]:
        slot = self._state.get(id(parameter))
        if slot is None:
            slot = {}
            self._state[id(parameter)] = slot
        return slot

    def step(self, parameters: Iterable[Tensor]) -> None:
        """Apply one update to every parameter that has a gradient."""
        for parameter in parameters:
            if not parameter.requires_grad or parameter.grad is None:
                continue
            self._update(parameter)
        self.iterations += 1
        # The weights changed: constants the inference fast path derived from
        # them (folded batch norm) must be recomputed on the next batch.
        invalidate_weight_caches()

    def zero_grad(self, parameters: Iterable[Tensor]) -> None:
        """Clear the gradients of all parameters."""
        for parameter in parameters:
            parameter.zero_grad()

    def _update(self, parameter: Tensor) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(learning_rate={self.learning_rate})"


class SGD(Optimizer):
    """Plain stochastic gradient descent."""

    def _update(self, parameter: Tensor) -> None:
        parameter.data -= self.learning_rate * parameter.grad


class RMSprop(Optimizer):
    """RMSprop (Tieleman & Hinton) — the optimizer used throughout the paper."""

    def __init__(
        self,
        learning_rate: float = 0.001,
        rho: float = 0.9,
        epsilon: float = 1e-7,
    ) -> None:
        super().__init__(learning_rate)
        self.rho = rho
        self.epsilon = epsilon

    def _update(self, parameter: Tensor) -> None:
        """``a = rho a + (1 - rho) g^2; p -= lr g / (sqrt(a) + eps)``, in place.

        Each in-place step computes the same products and sums as the
        expression, so the update is the same bits.
        """
        grad = parameter.grad
        slot = self._slot(parameter)
        average = slot.get("average")
        if average is None:
            average = slot["average"] = np.zeros_like(parameter.data)
        average *= self.rho
        square = grad * grad
        square *= 1.0 - self.rho
        average += square
        denominator = np.sqrt(average, out=square)
        denominator += self.epsilon
        step = grad * self.learning_rate
        step /= denominator
        parameter.data -= step


class Adam(Optimizer):
    """Adam optimizer with bias-corrected first and second moments."""

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta_1: float = 0.9,
        beta_2: float = 0.999,
        epsilon: float = 1e-7,
    ) -> None:
        super().__init__(learning_rate)
        self.beta_1 = beta_1
        self.beta_2 = beta_2
        self.epsilon = epsilon

    def _update(self, parameter: Tensor) -> None:
        grad = parameter.grad
        slot = self._slot(parameter)
        m = slot.get("m")
        v = slot.get("v")
        if m is None:
            m = np.zeros_like(parameter.data)
            v = np.zeros_like(parameter.data)
        timestep = self.iterations + 1
        m = self.beta_1 * m + (1.0 - self.beta_1) * grad
        v = self.beta_2 * v + (1.0 - self.beta_2) * grad ** 2
        slot["m"], slot["v"] = m, v
        m_hat = m / (1.0 - self.beta_1 ** timestep)
        v_hat = v / (1.0 - self.beta_2 ** timestep)
        parameter.data -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


_REGISTRY = {
    "sgd": SGD,
    "rmsprop": RMSprop,
    "adam": Adam,
}


def get_optimizer(identifier: Union[str, Optimizer], **kwargs) -> Optimizer:
    """Resolve an optimizer from a name (with kwargs) or pass an instance through."""
    if isinstance(identifier, Optimizer):
        return identifier
    try:
        return _REGISTRY[identifier.lower()](**kwargs)
    except KeyError as exc:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown optimizer {identifier!r}; known optimizers: {known}"
        ) from exc
