"""High-level detector API.

:class:`PelicanDetector` is the public face of the library: it bundles the
preprocessing pipeline, the network construction (any of the four Section V-C
architectures) and the training protocol behind a scikit-learn style
``fit`` / ``predict`` / ``evaluate`` interface operating directly on
:class:`~repro.data.dataset.TrafficRecords`.

Example
-------
>>> from repro.data import load_nslkdd, NSLKDD_SCHEMA
>>> from repro.core import PelicanDetector
>>> records = load_nslkdd(n_records=600, seed=7)
>>> detector = PelicanDetector(NSLKDD_SCHEMA, num_blocks=2, epochs=3)
>>> detector.fit(records)                                   # doctest: +SKIP
>>> report = detector.evaluate(load_nslkdd(300, seed=8))    # doctest: +SKIP
"""

from __future__ import annotations

import gc
import weakref
from typing import Optional

import numpy as np

from ..data.dataset import TrafficRecords
from ..data.schema import DatasetSchema
from ..metrics.ids_metrics import DetectionReport, evaluate_detection
from ..nn.models import History, Sequential
from ..preprocessing.pipeline import IDSPreprocessor, PreparedData
from .config import NetworkConfig, get_paper_config
from .pelican import build_network, compile_for_paper

__all__ = ["PelicanDetector"]


class PelicanDetector:
    """End-to-end intrusion detector built on the Pelican architecture.

    Parameters
    ----------
    schema:
        Dataset schema the detector will be trained on.
    num_blocks:
        Number of residual (or plain) blocks; the paper's Pelican uses 10.
    residual:
        True for the residual (Pelican) family, False for the plain family.
    config:
        Optional Table I-style hyper-parameters; defaults to the paper's
        settings for the schema's dataset with the given overrides applied.
    epochs, batch_size, learning_rate, dropout_rate:
        Convenience overrides applied on top of ``config``.
    seed:
        Seed for weight initialization and dropout.
    """

    def __init__(
        self,
        schema: DatasetSchema,
        num_blocks: int = 10,
        residual: bool = True,
        config: Optional[NetworkConfig] = None,
        epochs: Optional[int] = None,
        batch_size: Optional[int] = None,
        learning_rate: Optional[float] = None,
        dropout_rate: Optional[float] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.schema = schema
        self.num_blocks = int(num_blocks)
        self.residual = residual
        self.seed = seed

        base = config or get_paper_config(schema.name)
        overrides = {}
        if epochs is not None:
            overrides["epochs"] = int(epochs)
        if batch_size is not None:
            overrides["batch_size"] = int(batch_size)
        if learning_rate is not None:
            overrides["learning_rate"] = float(learning_rate)
        if dropout_rate is not None:
            overrides["dropout_rate"] = float(dropout_rate)
        self.config = base.with_updates(**overrides) if overrides else base

        self.preprocessor = IDSPreprocessor(schema)
        self.network: Optional[Sequential] = None
        self.history: Optional[History] = None

    # ------------------------------------------------------------------ #
    @property
    def is_fitted(self) -> bool:
        return self.network is not None

    def _build_network(self, num_classes: int) -> Sequential:
        network = build_network(
            num_blocks=self.num_blocks,
            num_classes=num_classes,
            config=self.config,
            residual=self.residual,
            seed=self.seed,
        )
        return compile_for_paper(network, self.config)

    def clone_architecture(self, seed: Optional[int] = None) -> "PelicanDetector":
        """A fresh, unfitted detector with the same architecture and config.

        The drift supervisor retrains challengers through this: same schema,
        depth, residual family and Table I-style hyper-parameters, new
        (optionally re-seeded) weights, empty preprocessing statistics.
        """
        return PelicanDetector(
            self.schema,
            num_blocks=self.num_blocks,
            residual=self.residual,
            config=self.config,
            seed=self.seed if seed is None else seed,
        )

    def build_untrained(self, num_classes: int, num_features: int) -> Sequential:
        """Construct and shape-build the network without training it.

        Used by checkpoint restore: the returned network has freshly
        initialised parameters of the right shapes, ready for
        ``set_weights`` / ``set_buffers``.  Does not attach the network to
        this detector — assign it explicitly once its state is loaded.
        """
        network = self._build_network(num_classes)
        network(np.zeros((1, 1, num_features)))
        return network

    def fit(
        self,
        records: TrafficRecords,
        validation_records: Optional[TrafficRecords] = None,
        verbose: int = 0,
    ) -> History:
        """Preprocess ``records``, build the network and train it."""
        prepared = self.preprocessor.fit_transform(records)
        validation = None
        if validation_records is not None:
            validation_prepared = self.preprocessor.transform(validation_records)
            validation = (validation_prepared.inputs, validation_prepared.targets)
        replaced = None if self.network is None else weakref.ref(self.network)
        self.network = self._build_network(prepared.num_classes)
        if replaced is not None and replaced() is not None:
            # Something still holds the replaced network.  When that is a
            # reference cycle (a method of it wrapped by instrumentation),
            # only a full collection frees it, and a loop of fits allocates
            # too few objects to trigger one soon: each dead Pelican-41
            # would keep its weights and RMSprop state (7 MB) meanwhile.
            gc.collect()
        self.history = self.network.fit(
            prepared.inputs,
            prepared.targets,
            epochs=self.config.epochs,
            batch_size=self.config.batch_size,
            validation_data=validation,
            verbose=verbose,
        )
        return self.history

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("the detector must be fitted before prediction")

    def prepare(self, records: TrafficRecords) -> PreparedData:
        """Preprocess records with the fitted pipeline (no training)."""
        self._require_fitted()
        return self.preprocessor.transform(records)

    def predict(self, records: TrafficRecords, fast: bool = False) -> np.ndarray:
        """Predicted class names for each record.

        ``fast=True`` routes the forward pass through the graph-free
        inference path (see :meth:`repro.nn.models.Model.predict`); the
        :class:`~repro.serving.DetectionService` uses it by default.
        """
        self._require_fitted()
        prepared = self.preprocessor.transform(records)
        class_indices = self.network.predict_classes(prepared.inputs, fast=fast)
        return self.preprocessor.decode_labels(class_indices)

    def predict_proba(self, records: TrafficRecords, fast: bool = False) -> np.ndarray:
        """Class-probability matrix aligned with the schema's class order."""
        self._require_fitted()
        prepared = self.preprocessor.transform(records)
        return self.network.predict(prepared.inputs, fast=fast)

    def predict_is_attack(self, records: TrafficRecords, fast: bool = False) -> np.ndarray:
        """Binary attack(1)/normal(0) prediction per record."""
        predictions = self.predict(records, fast=fast)
        return (predictions != self.schema.normal_class).astype(np.int64)

    def evaluate(self, records: TrafficRecords, fast: bool = False) -> DetectionReport:
        """ACC/DR/FAR report on held-out records."""
        self._require_fitted()
        prepared = self.preprocessor.transform(records)
        predicted = self.network.predict_classes(prepared.inputs, fast=fast)
        return evaluate_detection(
            prepared.class_indices, predicted, prepared.normal_index
        )

    def summary(self) -> str:
        """Model summary (requires a fitted detector)."""
        self._require_fitted()
        return self.network.summary()
