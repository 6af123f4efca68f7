"""Keras-style model containers: :class:`Sequential` built on :class:`Model`.

A model is a stack (or composition) of layers plus a training loop.  The API
mirrors the subset of Keras the paper's implementation used: ``compile`` with
an optimizer/loss/metrics, ``fit`` with shuffled batches and optional
validation data (returning a :class:`History`), ``evaluate`` and ``predict``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .layers.base import Layer
from .losses import Loss, get_loss
from .metrics import get_metric
from .optimizers import Optimizer, get_optimizer
from .tensor import Tensor, no_grad

__all__ = ["History", "Model", "Sequential"]


@dataclass
class History:
    """Per-epoch training record filled and returned by :meth:`Model.fit`.

    ``history`` maps each log name (``loss``, the metrics, and their
    ``val_`` counterparts) to one value per epoch; ``epochs`` lists the
    epoch indices.
    """

    history: Dict[str, List[float]] = field(default_factory=dict)
    epochs: List[int] = field(default_factory=list)


class Model(Layer):
    """Base model providing the compile/fit/evaluate/predict training loop.

    Subclasses implement :meth:`call` (and optionally :meth:`build`) exactly
    like a layer; the paper's network builders produce :class:`Sequential`
    instances but the composite Pelican blocks are plain layers that can be
    embedded in either.

    ``seed`` determines the whole model: the shuffle generator of
    :meth:`fit` takes the first spawned child of its seed sequence, and
    every layer added without a seed the next one, in the order added (see
    :meth:`~repro.nn.layers.base.Layer.register`).  ``seed=None`` draws
    fresh entropy once, here; a model that registers this one re-derives it.
    """

    def __init__(self, name: Optional[str] = None, seed: Optional[int] = None) -> None:
        super().__init__(name=name, seed=seed)
        if seed is None:
            self._derive(np.random.SeedSequence())
        self.optimizer: Optional[Optimizer] = None
        self.loss: Optional[Loss] = None
        self.metric_fns: Dict[str, callable] = {}
        self.history: Optional[History] = None

    def _derive(self, sequence: np.random.SeedSequence) -> None:
        self._shuffle_rng = np.random.default_rng(sequence.spawn(1)[0])
        super()._derive(sequence)

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    def compile(
        self,
        optimizer: Union[str, Optimizer] = "rmsprop",
        loss: str = "categorical_crossentropy",
        metrics: Optional[Sequence[str]] = None,
    ) -> None:
        """Configure the optimizer, and the loss and training metrics by name."""
        self.optimizer = get_optimizer(optimizer)
        self.loss = get_loss(loss)
        self.metric_fns = {name: get_metric(name) for name in metrics or []}

    # ------------------------------------------------------------------ #
    # Training loop
    # ------------------------------------------------------------------ #
    def _iterate_batches(
        self,
        x: np.ndarray,
        y: np.ndarray,
        batch_size: int,
    ) -> Iterable[Tuple[np.ndarray, np.ndarray]]:
        indices = np.arange(len(x))
        self._shuffle_rng.shuffle(indices)
        for start in range(0, len(x), batch_size):
            batch = indices[start:start + batch_size]
            yield x[batch], y[batch]

    def train_on_batch(self, x: np.ndarray, y: np.ndarray) -> Dict[str, float]:
        """Run one forward/backward pass and apply an optimizer step."""
        if self.optimizer is None or self.loss is None:
            raise RuntimeError("the model must be compiled before training")
        predictions = self(x, training=True)
        # Listed after the forward pass, which builds a lazily built model.
        parameters = self.parameters()
        self.optimizer.zero_grad(parameters)
        loss_value = self.loss(y, predictions)
        loss_value.backward()
        self.optimizer.step(parameters)
        # Release the gradients (a third of a network's memory): the next
        # step zeroes them anyway.
        self.optimizer.zero_grad(parameters)
        logs = {"loss": float(loss_value.data)}
        for name, function in self.metric_fns.items():
            logs[name] = function(y, predictions.data)
        return logs

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 1,
        batch_size: int = 32,
        validation_data: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        verbose: int = 0,
    ) -> History:
        """Train the model and return the per-epoch :class:`History`.

        Each epoch runs the shuffled training set in ``batch_size`` batches,
        then evaluates ``validation_data`` (if given) into ``val_`` logs.
        ``verbose=1`` prints one line per epoch.
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if len(x) != len(y):
            raise ValueError(f"x and y lengths differ: {len(x)} vs {len(y)}")
        if len(x) == 0:
            # Catch this up front: zero batches would otherwise surface as an
            # opaque "Weights sum to zero" ZeroDivisionError from np.average.
            raise ValueError("cannot fit on empty data")
        if epochs <= 0 or batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")

        history = self.history = History()
        for epoch in range(epochs):
            epoch_start = time.time()
            batch_losses: List[float] = []
            batch_metrics: Dict[str, List[float]] = {name: [] for name in self.metric_fns}
            batch_sizes: List[int] = []

            for batch_x, batch_y in self._iterate_batches(x, y, batch_size):
                logs = self.train_on_batch(batch_x, batch_y)
                batch_losses.append(logs["loss"])
                batch_sizes.append(len(batch_x))
                for name in self.metric_fns:
                    batch_metrics[name].append(logs[name])

            weights = np.asarray(batch_sizes, dtype=np.float64)
            epoch_logs = {"loss": float(np.average(batch_losses, weights=weights))}
            for name, values in batch_metrics.items():
                epoch_logs[name] = float(np.average(values, weights=weights))

            if validation_data is not None:
                validation_logs = self.evaluate(
                    validation_data[0], validation_data[1], batch_size=batch_size
                )
                epoch_logs.update({f"val_{k}": v for k, v in validation_logs.items()})

            history.epochs.append(epoch)
            for key, value in epoch_logs.items():
                history.history.setdefault(key, []).append(float(value))
            if verbose:
                elapsed = time.time() - epoch_start
                rendered = " - ".join(f"{k}: {v:.4f}" for k, v in epoch_logs.items())
                print(f"Epoch {epoch + 1}/{epochs} [{elapsed:.1f}s] {rendered}")
        return history

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    def predict(
        self, x: np.ndarray, batch_size: int = 256, fast: bool = False
    ) -> np.ndarray:
        """Forward pass in inference mode, returning a numpy array.

        With ``fast=True`` the batches run through the graph-free inference
        path (:meth:`~repro.nn.layers.base.Layer.fast_call`): no autodiff
        tape nodes are built and the layers use raw-numpy kernels.  The
        contract is exact inference equivalence — dropout is a no-op and
        batch norm uses moving statistics on both paths.

        The fast path computes in its input's dtype when that is float32
        (the served dtype:
        :meth:`~repro.preprocessing.pipeline.IDSPreprocessor.transform_inputs`
        emits it) and returns float32 probabilities, within ~1e-5 of float64.
        Every other input — float64, integers, or any input to the tape —
        is cast to float64, and then the fast path is the float64 oracle:
        it matches the tape to float64 round-off (well within 1e-6).
        Every layer defines its own fast kernel; there is no tape fallback.

        Empty inputs return a correctly shaped ``(0, ...)`` array instead of
        crashing downstream ``argmax`` calls — empty batches are routine in
        a streaming service.
        """
        x = np.asarray(x)
        if not (fast and x.dtype == np.float32):
            x = x.astype(np.float64, copy=False)
        if len(x) == 0:
            return self._predict_empty(x).astype(x.dtype, copy=False)
        outputs: List[np.ndarray] = []
        with no_grad():
            for start in range(0, len(x), batch_size):
                batch = x[start:start + batch_size]
                if fast:
                    # A 1-row product runs as a matrix-vector kernel, which
                    # sums in another order: a lone row is scored beside a
                    # copy of itself, so its output is the one any larger
                    # batch gives it.
                    rows = batch if len(batch) > 1 else np.concatenate([batch, batch])
                    outputs.append(np.asarray(self.fast_forward(rows))[: len(batch)])
                else:
                    outputs.append(self(batch, training=False).data)
        return np.concatenate(outputs, axis=0)

    def _predict_empty(self, x: np.ndarray) -> np.ndarray:
        """Shape-correct prediction for a zero-record batch."""
        if x.ndim >= 2:
            # The feature dimensions are present, so a (possibly building)
            # forward pass yields the exact output shape.
            with no_grad():
                return self(x, training=False).data
        width = self._inferred_output_width()
        if width is None:
            raise ValueError(
                "cannot infer the output shape for an empty input without "
                "feature dimensions on an unbuilt model; pass an array shaped "
                "(0, ...features) or build the model first"
            )
        return np.zeros((0, width))

    def _inferred_output_width(self) -> Optional[int]:
        """Output width taken from the last ``units``-bearing (sub-)layer."""

        def walk(layer: Layer) -> Optional[int]:
            for sublayer in reversed(layer.sublayers):
                width = walk(sublayer)
                if width is not None:
                    return width
            units = getattr(layer, "units", None)
            return int(units) if units else None

        return walk(self)

    def predict_classes(
        self, x: np.ndarray, batch_size: int = 256, fast: bool = False
    ) -> np.ndarray:
        """Argmax class predictions (empty inputs yield an empty int array)."""
        return np.argmax(self.predict(x, batch_size=batch_size, fast=fast), axis=-1)

    def evaluate(
        self, x: np.ndarray, y: np.ndarray, batch_size: int = 256
    ) -> Dict[str, float]:
        """Compute loss and metrics on held-out data (inference mode)."""
        if self.loss is None:
            raise RuntimeError("the model must be compiled before evaluation")
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if len(x) == 0:
            raise ValueError("cannot evaluate on empty data")
        losses: List[float] = []
        sizes: List[int] = []
        predictions: List[np.ndarray] = []
        with no_grad():
            for start in range(0, len(x), batch_size):
                batch_x = x[start:start + batch_size]
                batch_y = y[start:start + batch_size]
                batch_pred = self(batch_x, training=False)
                losses.append(float(self.loss(batch_y, batch_pred).data))
                sizes.append(len(batch_x))
                predictions.append(batch_pred.data)
        merged = np.concatenate(predictions, axis=0)
        logs = {"loss": float(np.average(losses, weights=sizes))}
        for name, function in self.metric_fns.items():
            logs[name] = function(y, merged)
        return logs

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def summary(self) -> str:
        """Return a printable summary of the model's layers and parameter counts."""
        lines = [f"Model: {self.name}", "-" * 60]
        for layer in self.sublayers:
            lines.append(f"{layer.name:<40s} params: {layer.count_params():>10,d}")
        lines.append("-" * 60)
        lines.append(f"Total trainable parameters: {self.count_params():,d}")
        return "\n".join(lines)


class Sequential(Model):
    """A linear stack of layers, built lazily on the first input."""

    def __init__(
        self,
        layers: Optional[Sequence[Layer]] = None,
        name: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(name=name, seed=seed)
        for layer in layers or []:
            self.add(layer)

    def add(self, layer: Layer) -> None:
        """Append a layer to the stack."""
        if not isinstance(layer, Layer):
            raise TypeError(f"expected a Layer, got {type(layer).__name__}")
        self.register(layer)

    @property
    def layers(self) -> List[Layer]:
        return self.sublayers

    def call(self, inputs: Tensor, training: bool = False) -> Tensor:
        outputs = inputs
        for layer in self.sublayers:
            outputs = layer(outputs, training=training)
        return outputs

    def fast_call(self, inputs: np.ndarray) -> np.ndarray:
        outputs = inputs
        for layer in self._sublayers:
            outputs = layer.fast_forward(outputs)
        return outputs
