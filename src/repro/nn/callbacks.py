"""Training callbacks: history recording, early stopping and LR scheduling."""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

__all__ = ["Callback", "History", "EarlyStopping", "LearningRateScheduler", "CallbackList"]


class Callback:
    """Base class; subclasses override the hooks they care about."""

    def set_model(self, model) -> None:
        self.model = model

    def on_train_begin(self, logs: Optional[Dict[str, float]] = None) -> None:
        pass

    def on_train_end(self, logs: Optional[Dict[str, float]] = None) -> None:
        pass

    def on_epoch_begin(self, epoch: int, logs: Optional[Dict[str, float]] = None) -> None:
        pass

    def on_epoch_end(self, epoch: int, logs: Optional[Dict[str, float]] = None) -> None:
        pass


class History(Callback):
    """Accumulate per-epoch metric values into ``history`` (a dict of lists)."""

    def on_train_begin(self, logs: Optional[Dict[str, float]] = None) -> None:
        self.history: Dict[str, List[float]] = {}
        self.epochs: List[int] = []

    def on_epoch_end(self, epoch: int, logs: Optional[Dict[str, float]] = None) -> None:
        logs = logs or {}
        self.epochs.append(epoch)
        for key, value in logs.items():
            self.history.setdefault(key, []).append(float(value))


class EarlyStopping(Callback):
    """Stop training when a monitored metric stops improving.

    Parameters
    ----------
    monitor:
        Name of the metric to watch (e.g. ``"val_loss"``).
    patience:
        Number of epochs with no improvement before stopping.
    min_delta:
        Minimum change that counts as an improvement.
    mode:
        ``"min"`` (losses) or ``"max"`` (accuracies).
    restore_best_weights:
        Whether to roll the model back to the best epoch's weights.
    """

    def __init__(
        self,
        monitor: str = "val_loss",
        patience: int = 5,
        min_delta: float = 0.0,
        mode: str = "min",
        restore_best_weights: bool = False,
    ) -> None:
        if mode not in ("min", "max"):
            raise ValueError("mode must be 'min' or 'max'")
        self.monitor = monitor
        self.patience = patience
        self.min_delta = abs(min_delta)
        self.mode = mode
        self.restore_best_weights = restore_best_weights

    def on_train_begin(self, logs: Optional[Dict[str, float]] = None) -> None:
        self.best = np.inf if self.mode == "min" else -np.inf
        self.wait = 0
        self.stopped_epoch: Optional[int] = None
        self.best_weights = None

    def _improved(self, value: float) -> bool:
        if self.mode == "min":
            return value < self.best - self.min_delta
        return value > self.best + self.min_delta

    def on_epoch_end(self, epoch: int, logs: Optional[Dict[str, float]] = None) -> None:
        logs = logs or {}
        value = logs.get(self.monitor)
        if value is None:
            return
        if self._improved(value):
            self.best = value
            self.wait = 0
            if self.restore_best_weights:
                self.best_weights = self.model.get_weights()
        else:
            self.wait += 1
            if self.wait >= self.patience:
                self.stopped_epoch = epoch
                self.model.stop_training = True

    def on_train_end(self, logs: Optional[Dict[str, float]] = None) -> None:
        if self.restore_best_weights and self.best_weights is not None:
            self.model.set_weights(self.best_weights)


class LearningRateScheduler(Callback):
    """Adjust the optimizer's learning rate with a ``schedule(epoch, lr)`` function."""

    def __init__(self, schedule) -> None:
        self.schedule = schedule

    def on_epoch_begin(self, epoch: int, logs: Optional[Dict[str, float]] = None) -> None:
        new_rate = float(self.schedule(epoch, self.model.optimizer.learning_rate))
        if new_rate <= 0:
            raise ValueError("learning-rate schedule produced a non-positive rate")
        self.model.optimizer.learning_rate = new_rate


class CallbackList:
    """Dispatch hook calls to a list of callbacks."""

    def __init__(self, callbacks: Optional[List[Callback]], model) -> None:
        self.callbacks = list(callbacks or [])
        for callback in self.callbacks:
            callback.set_model(model)

    def on_train_begin(self, logs=None) -> None:
        for callback in self.callbacks:
            callback.on_train_begin(logs)

    def on_train_end(self, logs=None) -> None:
        for callback in self.callbacks:
            callback.on_train_end(logs)
            # Drop the model reference: the model keeps its History, so the
            # pair would otherwise be a cycle only the cyclic collector frees.
            callback.set_model(None)

    def on_epoch_begin(self, epoch: int, logs=None) -> None:
        for callback in self.callbacks:
            callback.on_epoch_begin(epoch, logs)

    def on_epoch_end(self, epoch: int, logs=None) -> None:
        for callback in self.callbacks:
            callback.on_epoch_end(epoch, logs)
