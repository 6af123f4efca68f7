"""Neural baselines of Table V: MLP, CNN and LSTM classifiers.

Each wraps a small :mod:`repro.nn` network behind the common
:class:`BaseClassifier` interface so the comparative-study harness can train
and evaluate them exactly like the classical models.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..nn.layers import (
    LSTM,
    BatchNormalization,
    Conv1D,
    Dense,
    Dropout,
    GlobalAveragePooling1D,
    MaxPooling1D,
)
from ..nn.models import Sequential
from ..nn.optimizers import RMSprop
from ..preprocessing.encoding import one_hot
from .base import BaseClassifier

__all__ = ["MLPClassifier", "CNNClassifier", "LSTMClassifier"]


class _NeuralClassifier(BaseClassifier):
    """Shared training loop for the neural baselines."""

    def __init__(
        self,
        epochs: int = 15,
        batch_size: int = 128,
        learning_rate: float = 0.005,
        seed: Optional[int] = 0,
    ) -> None:
        super().__init__()
        if epochs <= 0 or batch_size <= 0 or learning_rate <= 0:
            raise ValueError("epochs, batch_size and learning_rate must be positive")
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.learning_rate = float(learning_rate)
        self.seed = seed
        self.network: Optional[Sequential] = None

    # Hooks ------------------------------------------------------------- #
    def _build(self, n_features: int, n_classes: int) -> Sequential:
        raise NotImplementedError

    def _shape_inputs(self, features: np.ndarray) -> np.ndarray:
        """Default: flat ``(n, features)`` inputs (overridden by CNN/LSTM)."""
        return features

    # BaseClassifier hooks ---------------------------------------------- #
    def _fit(self, features: np.ndarray, labels: np.ndarray) -> None:
        n_classes = int(labels.max()) + 1
        self.network = self._build(features.shape[1], n_classes)
        self.network.compile(
            optimizer=RMSprop(learning_rate=self.learning_rate),
            loss="categorical_crossentropy",
            metrics=["accuracy"],
        )
        self.network.fit(
            self._shape_inputs(features),
            one_hot(labels, n_classes),
            epochs=self.epochs,
            batch_size=self.batch_size,
            verbose=0,
        )

    def _predict_proba(self, features: np.ndarray) -> np.ndarray:
        if self.network is None:
            raise RuntimeError("network has not been fitted")
        return self.network.predict(self._shape_inputs(features))


class MLPClassifier(_NeuralClassifier):
    """Multi-layer perceptron on the flat encoded features.

    Two hidden ReLU layers with dropout — the classic feed-forward baseline
    of the paper's Table V (ACC 84.00 % on UNSW-NB15).
    """

    name = "mlp"

    def __init__(
        self,
        hidden_units: Sequence[int] = (128, 64),
        dropout_rate: float = 0.3,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if not hidden_units:
            raise ValueError("hidden_units must contain at least one layer size")
        self.hidden_units = tuple(int(u) for u in hidden_units)
        self.dropout_rate = float(dropout_rate)

    def _build(self, n_features: int, n_classes: int) -> Sequential:
        network = Sequential(name="mlp", seed=self.seed)
        for units in self.hidden_units:
            network.add(Dense(units, activation="relu"))
            if self.dropout_rate > 0:
                network.add(Dropout(self.dropout_rate))
        network.add(Dense(n_classes, activation="softmax"))
        return network


class CNNClassifier(_NeuralClassifier):
    """Plain convolutional network (spatial features only)."""

    name = "cnn"

    def __init__(
        self,
        filters: int = 64,
        kernel_size: int = 10,
        dropout_rate: float = 0.3,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        self.dropout_rate = float(dropout_rate)

    def _shape_inputs(self, features: np.ndarray) -> np.ndarray:
        return features[:, np.newaxis, :]

    def _build(self, n_features: int, n_classes: int) -> Sequential:
        network = Sequential(name="cnn", seed=self.seed)
        network.add(Conv1D(self.filters, self.kernel_size, activation="relu"))
        network.add(MaxPooling1D(pool_size=2))
        network.add(BatchNormalization())
        network.add(Conv1D(self.filters, self.kernel_size, activation="relu"))
        network.add(GlobalAveragePooling1D())
        if self.dropout_rate > 0:
            network.add(Dropout(self.dropout_rate))
        network.add(Dense(n_classes, activation="softmax"))
        return network


class LSTMClassifier(_NeuralClassifier):
    """Recurrent network (temporal features only)."""

    name = "lstm"

    def __init__(self, units: int = 64, dropout_rate: float = 0.3, **kwargs) -> None:
        super().__init__(**kwargs)
        self.units = int(units)
        self.dropout_rate = float(dropout_rate)

    def _shape_inputs(self, features: np.ndarray) -> np.ndarray:
        return features[:, np.newaxis, :]

    def _build(self, n_features: int, n_classes: int) -> Sequential:
        network = Sequential(name="lstm", seed=self.seed)
        network.add(LSTM(self.units, return_sequences=False))
        if self.dropout_rate > 0:
            network.add(Dropout(self.dropout_rate))
        network.add(Dense(n_classes, activation="softmax"))
        return network
