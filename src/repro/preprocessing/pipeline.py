"""End-to-end preprocessing pipeline (Section V-A of the paper).

The paper's three steps are reproduced exactly:

1. **Numerical conversion** — categorical columns are one-hot encoded (the
   Pandas ``get_dummies`` equivalent), using the schema-declared vocabularies
   so the encoded width is 121 for NSL-KDD and 196 for UNSW-NB15.
2. **Normalization** — numeric columns are standardized to zero mean and unit
   standard deviation (statistics fitted on the training portion only).
3. **Training/testing dataset creation** — k-fold cross-validation over the
   preprocessed records.

The networks consume inputs shaped ``(batch, 1, features)``; targets are
one-hot encoded class vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

import numpy as np

from ..data.dataset import TrafficRecords
from ..data.schema import DatasetSchema
from .encoding import LabelEncoder, OneHotEncoder, one_hot
from .kfold import StratifiedKFold, train_test_indices
from .scaling import StandardScaler

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
    """Turn :class:`TrafficRecords` into model-ready tensors.

    Parameters
    ----------
    schema:
        Dataset schema; supplies the declared categorical vocabularies and the
        class order (so the one-hot layout is identical across folds).
    """

    def __init__(self, schema: DatasetSchema) -> None:
        self.schema = schema
        self.encoder = OneHotEncoder(
            categories={
                feature.name: feature.values
                for feature in schema.categorical_features
            }
        )
        self.label_encoder = LabelEncoder(classes=list(schema.classes))
        self.scaler = StandardScaler()
        self._fitted = False

    # ------------------------------------------------------------------ #
    # Feature assembly
    # ------------------------------------------------------------------ #
    def _raw_matrix(self, records: TrafficRecords) -> np.ndarray:
        """Numeric columns followed by the one-hot categorical block."""
        encoded = self.encoder.transform(records.categorical)
        return np.concatenate([records.numeric, encoded], axis=1)

    def fit(self, records: TrafficRecords) -> "IDSPreprocessor":
        """Fit the encoder vocabulary and the scaler statistics."""
        self.encoder.fit(records.categorical)
        self.scaler.fit(self._raw_matrix(records))
        self._fitted = True
        return self

    def transform(self, records: TrafficRecords) -> PreparedData:
        """Transform records into :class:`PreparedData` (requires ``fit``)."""
        if not self._fitted:
            raise RuntimeError("IDSPreprocessor must be fitted before transform")
        features = self.scaler.transform(self._raw_matrix(records))
        inputs = features[:, np.newaxis, :]
        class_indices = self.label_encoder.transform(records.labels)
        targets = one_hot(class_indices, self.label_encoder.num_classes)
        normal_index = self.label_encoder.classes_.index(self.schema.normal_class)
        return PreparedData(
            inputs=inputs,
            targets=targets,
            class_indices=class_indices,
            binary_labels=(class_indices != normal_index).astype(np.int64),
            class_names=list(self.label_encoder.classes_),
            normal_index=normal_index,
        )

    def fit_transform(self, records: TrafficRecords) -> PreparedData:
        return self.fit(records).transform(records)

    # ------------------------------------------------------------------ #
    # Fitted-state persistence (used by the serving checkpoint bundle)
    # ------------------------------------------------------------------ #
    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def export_state(self) -> Dict[str, object]:
        """The fitted statistics as plain data (vocabularies, scaler, classes).

        The scaler arrays come back as ``float64`` numpy arrays so a
        checkpoint can store them losslessly; everything else is JSON-able.
        Restoring with :meth:`restore_state` reproduces transforms bitwise.
        """
        if not self._fitted:
            raise RuntimeError("IDSPreprocessor must be fitted before export_state")
        return {
            "schema": self.schema.name,
            "categories": {
                name: list(values)
                for name, values in self.encoder.categories_.items()
            },
            "classes": list(self.label_encoder.classes_),
            "scaler_mean": np.asarray(self.scaler.mean_, dtype=np.float64),
            "scaler_scale": np.asarray(self.scaler.scale_, dtype=np.float64),
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
        if classes != list(self.label_encoder.classes_):
            raise ValueError(
                f"class order mismatch: state has {classes}, schema declares "
                f"{list(self.label_encoder.classes_)}"
            )
        categories = {
            str(name): [str(value) for value in values]
            for name, values in state["categories"].items()
        }
        expected_columns = [f.name for f in self.schema.categorical_features]
        if list(categories) != expected_columns:
            raise ValueError(
                f"categorical columns mismatch: state has {list(categories)}, "
                f"schema declares {expected_columns}"
            )
        mean = np.asarray(state["scaler_mean"], dtype=np.float64)
        scale = np.asarray(state["scaler_scale"], dtype=np.float64)
        width = len(self.schema.numeric_features) + sum(
            len(values) for values in categories.values()
        )
        if mean.shape != (width,) or scale.shape != (width,):
            raise ValueError(
                f"scaler statistics shaped {mean.shape}/{scale.shape} do not "
                f"match the encoded width {width}"
            )
        self.encoder.categories_ = categories
        self.encoder._fitted = True
        self.scaler.mean_ = mean.copy()
        self.scaler.scale_ = scale.copy()
        self._fitted = True
        return self

    @property
    def num_features(self) -> int:
        """Width of the encoded feature vector (121 / 196 for the paper's datasets)."""
        return len(self.schema.numeric_features) + sum(
            feature.cardinality for feature in self.schema.categorical_features
        )

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
