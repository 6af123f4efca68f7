"""End-to-end preprocessing pipeline (Section V-A of the paper).

The paper's three steps are reproduced exactly:

1. **Numerical conversion** — categorical columns are one-hot encoded (the
   Pandas ``get_dummies`` equivalent), using the schema-declared vocabularies
   so the encoded width is 121 for NSL-KDD and 196 for UNSW-NB15.
2. **Normalization** — every encoded column is standardized to zero mean
   and unit standard deviation (statistics fitted on the training portion
   only).
3. **Training/testing dataset creation** — k-fold cross-validation over the
   preprocessed records.

The networks consume inputs shaped ``(batch, 1, features)``; targets are
one-hot encoded class vectors.  Serving reuses steps 1 and 2 unchanged:
:meth:`IDSPreprocessor.transform_inputs` is the training matrix rounded
once to float32, so the served input is bit-identical to the float32 cast
of the trained-on one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..data.dataset import TrafficRecords
from ..data.schema import DatasetSchema
from .encoding import one_hot
from .kfold import StratifiedKFold, train_test_indices

__all__ = ["PreparedData", "PreparedSplit", "IDSPreprocessor"]


@dataclass
class PreparedData:
    """Model-ready arrays for one portion (train or test) of a dataset.

    Attributes
    ----------
    inputs:
        Float array shaped ``(n, 1, features)`` — the paper's network input.
    targets:
        One-hot class matrix shaped ``(n, n_classes)``.
    class_indices:
        Integer class ids (aligned with ``class_names``).
    binary_labels:
        1 for attacks, 0 for normal traffic (used by the DR/FAR metrics).
    class_names:
        Class-name order matching the one-hot columns.
    normal_index:
        Position of the normal class inside ``class_names``.
    """

    inputs: np.ndarray
    targets: np.ndarray
    class_indices: np.ndarray
    binary_labels: np.ndarray
    class_names: List[str]
    normal_index: int

    def __len__(self) -> int:
        return len(self.inputs)

    @property
    def flat_inputs(self) -> np.ndarray:
        """Inputs flattened to ``(n, features)`` for the classical baselines."""
        return self.inputs.reshape(len(self.inputs), -1)

    @property
    def num_features(self) -> int:
        return self.inputs.shape[-1]

    @property
    def num_classes(self) -> int:
        return self.targets.shape[-1]


@dataclass
class PreparedSplit:
    """A train/test pair produced by the preprocessor."""

    train: PreparedData
    test: PreparedData

    @property
    def num_features(self) -> int:
        return self.train.num_features

    @property
    def num_classes(self) -> int:
        return self.train.num_classes


class IDSPreprocessor:
    """Turn :class:`TrafficRecords` into model-ready tensors: the one
    feature encoder of training and serving.

    One set of tables and one piece of arithmetic give both outputs:
    :meth:`transform` returns the float64 :class:`PreparedData` the networks
    train on, :meth:`transform_inputs` the served input — the same matrix
    rounded once to float32.

    * **Layout** — the numeric columns, then one one-hot block per
      categorical column in schema order, as wide as the column's declared
      vocabulary, so the layout is the same in every fold.  A value outside
      the vocabulary encodes as an all-zero block and is tallied per column.
    * **Standardization** — ``(x - mean) / scale`` with the statistics
      :meth:`fit` takes from the training records; a constant column keeps
      scale 1 (centred, never divided by zero).
    * **Classes** — the schema's class order; :meth:`encode_labels` and
      :meth:`decode_labels` map names to ids and back.

    A non-finite numeric feature is rejected with a ``ValueError`` naming
    its column before anything is encoded.

    Parameters
    ----------
    schema:
        Dataset schema; supplies the declared categorical vocabularies and the
        class order.
    """

    def __init__(self, schema: DatasetSchema) -> None:
        self.schema = schema
        self.class_names: List[str] = list(schema.classes)
        self.normal_index = self.class_names.index(schema.normal_class)
        self._label_table = {
            name: index for index, name in enumerate(self.class_names)
        }
        self._class_array = np.asarray(self.class_names, dtype=object)
        self._n_numeric = len(schema.numeric_features)
        self._build_tables(
            {feature.name: feature.values for feature in schema.categorical_features}
        )
        self.mean: Optional[np.ndarray] = None
        self.scale: Optional[np.ndarray] = None

    def _build_tables(self, categories: Dict[str, Sequence[str]]) -> None:
        """Per categorical column: (name, offset into the feature vector,
        value→slot); sets :attr:`num_features`, the encoded width (121 /
        196 for the paper's datasets)."""
        self._tables: List[Tuple[str, int, Dict[str, int]]] = []
        offset = self._n_numeric
        for name, vocabulary in categories.items():
            table = {value: position for position, value in enumerate(vocabulary)}
            self._tables.append((name, offset, table))
            offset += len(vocabulary)
        self.num_features = offset

    # ------------------------------------------------------------------ #
    # The one encode step
    # ------------------------------------------------------------------ #
    def _encode(self, records: TrafficRecords) -> Tuple[np.ndarray, Dict[str, int]]:
        """Records → ``(features, unknown)``: the float64 feature layout,
        not yet standardized, and the batch's per-column count of values
        outside the vocabulary (columns without any are left out)."""
        numeric = records.numeric
        if not np.isfinite(numeric).all():
            finite = np.isfinite(numeric).all(axis=0)
            columns = [
                name for name, ok in zip(self.schema.numeric_names, finite) if not ok
            ]
            raise ValueError(f"non-finite values in numeric column(s) {columns}")
        n_records = len(records)
        features = np.zeros((n_records, self.num_features))
        features[:, : self._n_numeric] = numeric
        rows = np.arange(n_records)
        unknown: Dict[str, int] = {}
        for name, offset, table in self._tables:
            positions = np.fromiter(
                (table.get(str(value), -1) for value in records.categorical[name]),
                dtype=np.int64,
                count=n_records,
            )
            known = positions >= 0
            n_unknown = n_records - int(known.sum())
            if n_unknown:
                unknown[name] = n_unknown
            features[rows[known], offset + positions[known]] = 1.0
        return features, unknown

    def _standardized(
        self, records: TrafficRecords
    ) -> Tuple[np.ndarray, Dict[str, int]]:
        """:meth:`_encode`, standardized in place on the array it allocated."""
        if not self.is_fitted:
            raise RuntimeError("IDSPreprocessor must be fitted before transform")
        features, unknown = self._encode(records)
        features -= self.mean
        features /= self.scale
        return features, unknown

    # ------------------------------------------------------------------ #
    # Training and serving outputs
    # ------------------------------------------------------------------ #
    def fit(self, records: TrafficRecords) -> "IDSPreprocessor":
        """Fit the standardization statistics; the vocabularies and the
        class order are not fitted."""
        features, _ = self._encode(records)
        self.mean = features.mean(axis=0)
        scale = features.std(axis=0)
        scale[scale == 0.0] = 1.0
        self.scale = scale
        return self

    def transform(self, records: TrafficRecords) -> PreparedData:
        """Transform records into :class:`PreparedData` (requires ``fit``)."""
        features, _ = self._standardized(records)
        class_indices = self.encode_labels(records)
        return PreparedData(
            inputs=features[:, np.newaxis, :],
            targets=one_hot(class_indices, len(self.class_names)),
            class_indices=class_indices,
            binary_labels=(class_indices != self.normal_index).astype(np.int64),
            class_names=list(self.class_names),
            normal_index=self.normal_index,
        )

    def fit_transform(self, records: TrafficRecords) -> PreparedData:
        return self.fit(records).transform(records)

    def transform_inputs(
        self, records: TrafficRecords
    ) -> Tuple[np.ndarray, Dict[str, int]]:
        """Records → ``(inputs, unknown)``, the served input.

        ``inputs`` is :meth:`transform`'s float64 matrix rounded once to
        float32, the served dtype, shaped ``(n, 1, features)``; ``unknown``
        is the batch's per-column count of values outside the vocabulary.
        """
        features, unknown = self._standardized(records)
        return features.astype(np.float32)[:, np.newaxis, :], unknown

    def encode_labels(self, records: TrafficRecords) -> np.ndarray:
        """Class names → integer ids in the schema's class order."""
        try:
            return np.fromiter(
                (self._label_table[str(label)] for label in records.labels),
                dtype=np.int64,
                count=len(records),
            )
        except KeyError as exc:
            raise ValueError(f"unknown label {exc.args[0]!r}") from exc

    def decode_labels(self, class_indices: np.ndarray) -> np.ndarray:
        """Integer ids → class names (object array)."""
        indices = np.asarray(class_indices, dtype=np.int64)
        if indices.size and (
            indices.min() < 0 or indices.max() >= len(self.class_names)
        ):
            raise ValueError(
                f"class ids must be in [0, {len(self.class_names)}), got range "
                f"[{indices.min()}, {indices.max()}]"
            )
        return self._class_array[indices]

    # ------------------------------------------------------------------ #
    # Fitted-state persistence (used by the serving checkpoint bundle)
    # ------------------------------------------------------------------ #
    @property
    def is_fitted(self) -> bool:
        return self.mean is not None

    def export_state(self) -> Dict[str, object]:
        """The fitted statistics as plain data (vocabularies, scaler, classes).

        The scaler arrays come back as ``float64`` copies, so a checkpoint
        stores them losslessly and shares nothing with the live encoder;
        everything else is JSON-able.
        Restoring with :meth:`restore_state` reproduces transforms bitwise.
        """
        if not self.is_fitted:
            raise RuntimeError("IDSPreprocessor must be fitted before export_state")
        return {
            "schema": self.schema.name,
            "categories": {name: list(table) for name, _, table in self._tables},
            "classes": list(self.class_names),
            "scaler_mean": np.array(self.mean, dtype=np.float64),
            "scaler_scale": np.array(self.scale, dtype=np.float64),
        }

    def restore_state(self, state: Dict[str, object]) -> "IDSPreprocessor":
        """Restore the fitted statistics exported by :meth:`export_state`.

        Validates the state against this preprocessor's schema (name, class
        order, encoded width) before mutating anything, so a failed restore
        leaves the pipeline untouched.
        """
        if state.get("schema") != self.schema.name:
            raise ValueError(
                f"preprocessor state is for schema {state.get('schema')!r}, "
                f"this pipeline uses {self.schema.name!r}"
            )
        classes = [str(name) for name in state["classes"]]
        if classes != self.class_names:
            raise ValueError(
                f"class order mismatch: state has {classes}, schema declares "
                f"{self.class_names}"
            )
        categories = {
            str(name): [str(value) for value in values]
            for name, values in state["categories"].items()
        }
        expected_columns = self.schema.categorical_names
        if list(categories) != expected_columns:
            raise ValueError(
                f"categorical columns mismatch: state has {list(categories)}, "
                f"schema declares {expected_columns}"
            )
        mean = np.asarray(state["scaler_mean"], dtype=np.float64)
        scale = np.asarray(state["scaler_scale"], dtype=np.float64)
        width = self._n_numeric + sum(len(values) for values in categories.values())
        if mean.shape != (width,) or scale.shape != (width,):
            raise ValueError(
                f"scaler statistics shaped {mean.shape}/{scale.shape} do not "
                f"match the encoded width {width}"
            )
        self._build_tables(categories)
        self.mean = mean.copy()
        self.scale = scale.copy()
        return self

    # ------------------------------------------------------------------ #
    # Split construction
    # ------------------------------------------------------------------ #
    def holdout_split(
        self, records: TrafficRecords, test_fraction: float = 0.2, seed: int = 0
    ) -> PreparedSplit:
        """Single stratified train/test split (fit on train, transform both)."""
        train_idx, test_idx = train_test_indices(
            len(records), test_fraction=test_fraction, seed=seed, labels=records.labels
        )
        train_records = records.subset(train_idx)
        test_records = records.subset(test_idx)
        self.fit(train_records)
        return PreparedSplit(
            train=self.transform(train_records), test=self.transform(test_records)
        )

    def kfold_splits(
        self, records: TrafficRecords, n_splits: int = 10, seed: int = 0
    ) -> Iterator[PreparedSplit]:
        """Yield the paper's k-fold cross-validation splits (default k=10).

        The scaler is refitted on each fold's training portion so no test
        statistics leak into training, and stratification keeps the rare
        attack classes present in every fold.
        """
        splitter = StratifiedKFold(n_splits=n_splits, seed=seed)
        for train_idx, test_idx in splitter.split(records.labels):
            train_records = records.subset(train_idx)
            test_records = records.subset(test_idx)
            self.fit(train_records)
            yield PreparedSplit(
                train=self.transform(train_records), test=self.transform(test_records)
            )
