"""Categorical encoding: the reproduction of the paper's "Step 1, Numerical
Conversion" (Pandas ``get_dummies``) plus a label encoder for the class column.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

__all__ = ["OneHotEncoder", "LabelEncoder", "one_hot"]


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode an integer vector into a ``(n, num_classes)`` float array."""
    indices = np.asarray(indices, dtype=np.int64).reshape(-1)
    if indices.size and (indices.min() < 0 or indices.max() >= num_classes):
        raise ValueError(
            f"indices must be in [0, {num_classes}), got range "
            f"[{indices.min()}, {indices.max()}]"
        )
    encoded = np.zeros((len(indices), num_classes))
    encoded[np.arange(len(indices)), indices] = 1.0
    return encoded


class OneHotEncoder:
    """One-hot (dummy) encoding of string-valued categorical columns.

    Equivalent to ``pandas.get_dummies`` for the paper's use case, with one
    important difference: the category vocabulary can be *declared* up front
    (from the dataset schema) so that the encoded width is stable regardless
    of which values happen to appear in a particular sample or fold.

    Parameters
    ----------
    categories:
        Optional mapping ``column name -> ordered sequence of values``.  Any
        column not listed has its vocabulary learned from the data in ``fit``.
    handle_unknown:
        ``"ignore"`` encodes unseen values as all-zeros; ``"error"`` raises.
    """

    def __init__(
        self,
        categories: Optional[Dict[str, Sequence[str]]] = None,
        handle_unknown: str = "ignore",
    ) -> None:
        if handle_unknown not in ("ignore", "error"):
            raise ValueError("handle_unknown must be 'ignore' or 'error'")
        self.declared_categories = {
            name: list(values) for name, values in (categories or {}).items()
        }
        self.handle_unknown = handle_unknown
        self.categories_: Dict[str, List[str]] = {}
        self._fitted = False

    def fit(self, columns: Dict[str, np.ndarray]) -> "OneHotEncoder":
        """Learn (or adopt the declared) vocabulary for every column."""
        self.categories_ = {}
        for name, values in columns.items():
            if name in self.declared_categories:
                self.categories_[name] = list(self.declared_categories[name])
            else:
                self.categories_[name] = sorted({str(v) for v in np.asarray(values)})
        self._fitted = True
        return self

    def transform(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        """Encode the columns into a single ``(n, total_width)`` float matrix."""
        if not self._fitted:
            raise RuntimeError("OneHotEncoder must be fitted before transform")
        missing = set(self.categories_) - set(columns)
        if missing:
            raise ValueError(f"missing categorical columns: {sorted(missing)}")

        blocks: List[np.ndarray] = []
        for name in self.categories_:
            vocabulary = self.categories_[name]
            index = {value: position for position, value in enumerate(vocabulary)}
            values = np.asarray(columns[name])
            block = np.zeros((len(values), len(vocabulary)))
            for row, value in enumerate(values):
                position = index.get(str(value))
                if position is None:
                    if self.handle_unknown == "error":
                        raise ValueError(
                            f"unknown category {value!r} in column {name!r}"
                        )
                    continue
                block[row, position] = 1.0
            blocks.append(block)
        if not blocks:
            n_rows = len(next(iter(columns.values()))) if columns else 0
            return np.zeros((n_rows, 0))
        return np.concatenate(blocks, axis=1)

    def fit_transform(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        return self.fit(columns).transform(columns)

    @property
    def feature_names(self) -> List[str]:
        """Names of the encoded columns in output order (``column=value``)."""
        if not self._fitted:
            raise RuntimeError("OneHotEncoder must be fitted first")
        names = []
        for column, vocabulary in self.categories_.items():
            names.extend(f"{column}={value}" for value in vocabulary)
        return names

    @property
    def encoded_width(self) -> int:
        """Total number of encoded columns."""
        if not self._fitted:
            raise RuntimeError("OneHotEncoder must be fitted first")
        return sum(len(v) for v in self.categories_.values())


class LabelEncoder:
    """Map string class labels to contiguous integer ids (and back)."""

    def __init__(self, classes: Optional[Sequence[str]] = None) -> None:
        self.classes_: List[str] = list(classes) if classes is not None else []
        self._fitted = classes is not None

    def fit(self, labels: Iterable[str]) -> "LabelEncoder":
        self.classes_ = sorted({str(label) for label in labels})
        self._fitted = True
        return self

    def transform(self, labels: Iterable[str]) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("LabelEncoder must be fitted before transform")
        index = {name: position for position, name in enumerate(self.classes_)}
        try:
            return np.array([index[str(label)] for label in labels], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"unknown label {exc.args[0]!r}") from exc

    def fit_transform(self, labels: Iterable[str]) -> np.ndarray:
        return self.fit(labels).transform(labels)

    def inverse_transform(self, indices: Iterable[int]) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("LabelEncoder must be fitted before inverse_transform")
        indices = np.asarray(list(indices), dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= len(self.classes_)):
            raise ValueError("index out of range for the fitted classes")
        return np.array([self.classes_[i] for i in indices], dtype=object)

    @property
    def num_classes(self) -> int:
        return len(self.classes_)
