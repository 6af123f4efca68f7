"""In-memory container for network-traffic records.

The real datasets ship as CSV files that the paper loads with Pandas; this
reproduction has neither the files nor Pandas, so :class:`TrafficRecords`
plays the role of the dataframe: a column-oriented store with numeric and
categorical columns plus per-record class labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from .schema import DatasetSchema

__all__ = ["TrafficRecords"]


@dataclass
class TrafficRecords:
    """A batch of traffic records conforming to a :class:`DatasetSchema`.

    Attributes
    ----------
    schema:
        The dataset schema the records conform to.
    numeric:
        Array of shape ``(n_records, n_numeric_features)``.
    categorical:
        Mapping from categorical column name to an object array of string
        values, each of length ``n_records``.
    labels:
        Object array of class names (e.g. ``"normal"``, ``"dos"``).
    """

    schema: DatasetSchema
    numeric: np.ndarray
    categorical: Dict[str, np.ndarray]
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.numeric = np.asarray(self.numeric, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=object)
        if self.numeric.ndim != 2:
            raise ValueError("numeric must be a 2-D array (records x features)")
        expected_numeric = len(self.schema.numeric_features)
        if self.numeric.shape[1] != expected_numeric:
            raise ValueError(
                f"expected {expected_numeric} numeric columns, got {self.numeric.shape[1]}"
            )
        n_records = self.numeric.shape[0]
        if len(self.labels) != n_records:
            raise ValueError("labels length does not match the number of records")
        expected_categorical = set(self.schema.categorical_names)
        if set(self.categorical) != expected_categorical:
            raise ValueError(
                f"categorical columns {sorted(self.categorical)} do not match the "
                f"schema's {sorted(expected_categorical)}"
            )
        for name, column in self.categorical.items():
            column = np.asarray(column, dtype=object)
            if len(column) != n_records:
                raise ValueError(f"categorical column {name!r} has the wrong length")
            self.categorical[name] = column
        unknown = set(np.unique(self.labels)) - set(self.schema.classes)
        if unknown:
            raise ValueError(f"labels contain classes not in the schema: {sorted(unknown)}")

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.numeric.shape[0]

    @property
    def n_records(self) -> int:
        return len(self)

    @property
    def class_indices(self) -> np.ndarray:
        """Integer class labels in schema order (0 = first class in the schema)."""
        mapping = {name: index for index, name in enumerate(self.schema.classes)}
        return np.array([mapping[label] for label in self.labels], dtype=np.int64)

    @property
    def binary_labels(self) -> np.ndarray:
        """1 for attack records, 0 for normal traffic."""
        return (self.labels != self.schema.normal_class).astype(np.int64)

    def class_counts(self) -> Dict[str, int]:
        """Number of records per class (classes with zero records included)."""
        counts = {name: 0 for name in self.schema.classes}
        unique, tally = np.unique(self.labels, return_counts=True)
        counts.update({str(name): int(count) for name, count in zip(unique, tally)})
        return counts

    def column(self, name: str) -> np.ndarray:
        """Return a single column (numeric or categorical) by name."""
        if name in self.schema.numeric_names:
            return self.numeric[:, self.schema.numeric_names.index(name)]
        if name in self.categorical:
            return self.categorical[name]
        raise KeyError(f"unknown column {name!r}")

    # ------------------------------------------------------------------ #
    # Manipulation
    # ------------------------------------------------------------------ #
    def subset(self, indices: Sequence[int]) -> "TrafficRecords":
        """Return a new container holding only the records at ``indices``.

        An empty selection yields a valid zero-record container (an empty
        sequence would otherwise coerce to a float array and fail to index).
        """
        indices = np.asarray(indices)
        if indices.dtype != bool:
            indices = indices.astype(np.int64, copy=False)
        return TrafficRecords(
            schema=self.schema,
            numeric=self.numeric[indices],
            categorical={name: column[indices] for name, column in self.categorical.items()},
            labels=self.labels[indices],
        )

    def shuffled(self, rng: np.random.Generator) -> "TrafficRecords":
        """Return a copy with the record order permuted."""
        order = rng.permutation(len(self))
        return self.subset(order)

    @staticmethod
    def concatenate(parts: Iterable["TrafficRecords"]) -> "TrafficRecords":
        """Stack several record batches (with identical schemas) into one."""
        parts = list(parts)
        if not parts:
            raise ValueError("cannot concatenate an empty list of record batches")
        schema = parts[0].schema
        if any(part.schema is not schema and part.schema != schema for part in parts):
            raise ValueError("all parts must share the same schema")
        return TrafficRecords(
            schema=schema,
            numeric=np.concatenate([part.numeric for part in parts], axis=0),
            categorical={
                name: np.concatenate([part.categorical[name] for part in parts])
                for name in schema.categorical_names
            },
            labels=np.concatenate([part.labels for part in parts]),
        )

    def train_test_split(
        self, test_fraction: float, rng: np.random.Generator
    ) -> Tuple["TrafficRecords", "TrafficRecords"]:
        """Random split into train and test batches."""
        if not 0.0 < test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        order = rng.permutation(len(self))
        n_test = max(1, int(round(len(self) * test_fraction)))
        return self.subset(order[n_test:]), self.subset(order[:n_test])

    def __repr__(self) -> str:
        return (
            f"TrafficRecords(dataset={self.schema.name!r}, records={len(self)}, "
            f"classes={len(self.schema.classes)})"
        )
