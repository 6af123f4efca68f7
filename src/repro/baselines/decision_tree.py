"""CART decision tree.

The tree is the work-horse behind two of the paper's Table V baselines
(Random Forest and AdaBoost), so it is implemented once here with the knobs
those ensembles need: depth limits, minimum split sizes and per-node feature
subsampling (for the forest's decorrelation).

Split search is vectorised per (node, feature): candidate thresholds are the
midpoints between consecutive sorted values and the Gini impurity of every
candidate is computed from class-count prefix sums, so no Python-level loop
over samples is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .base import BaseClassifier

__all__ = ["DecisionTreeClassifier"]


@dataclass
class _Node:
    """A tree node; leaves carry a class distribution, internal nodes a split."""

    prediction: np.ndarray
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _gini_from_counts(counts: np.ndarray) -> np.ndarray:
    """Gini impurity of rows of class counts (vectorised)."""
    totals = counts.sum(axis=-1, keepdims=True)
    safe_totals = np.where(totals == 0, 1, totals)
    proportions = counts / safe_totals
    return 1.0 - np.sum(proportions ** 2, axis=-1)


class DecisionTreeClassifier(BaseClassifier):
    """Gini-impurity CART classifier.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (None grows until pure or ``min_samples_split``).
    min_samples_split:
        Smallest node that may be split further.
    min_samples_leaf:
        Smallest admissible child size for a split.
    max_features:
        Number of features examined per split: an int, ``"sqrt"``, or None
        for all features.
    seed:
        Seed for the per-node feature subsampling.
    """

    name = "decision-tree"

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if max_depth is not None and max_depth <= 0:
            raise ValueError("max_depth must be positive (or None)")
        if min_samples_split < 2 or min_samples_leaf < 1:
            raise ValueError("invalid min_samples_split / min_samples_leaf")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self._root: Optional[_Node] = None
        self._n_classes = 0
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def _resolve_max_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if isinstance(self.max_features, (int, np.integer)):
            return int(np.clip(self.max_features, 1, n_features))
        raise ValueError(f"unsupported max_features: {self.max_features!r}")

    def _fit(self, features: np.ndarray, labels: np.ndarray) -> None:
        self._n_classes = int(labels.max()) + 1
        sample_weight = getattr(self, "_sample_weight", None)
        if sample_weight is None:
            sample_weight = np.ones(len(labels))
        self._root = self._grow(features, labels, sample_weight, depth=0)

    def fit_weighted(
        self, features: np.ndarray, labels: np.ndarray, sample_weight: np.ndarray
    ) -> "DecisionTreeClassifier":
        """Fit with per-sample weights (used by AdaBoost)."""
        self._sample_weight = np.asarray(sample_weight, dtype=np.float64)
        try:
            return self.fit(features, labels)
        finally:
            del self._sample_weight

    def _leaf(self, labels: np.ndarray, weights: np.ndarray) -> _Node:
        distribution = np.bincount(
            labels, weights=weights, minlength=self._n_classes
        )
        total = distribution.sum()
        if total > 0:
            distribution = distribution / total
        return _Node(prediction=distribution)

    def _grow(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        weights: np.ndarray,
        depth: int,
    ) -> _Node:
        node = self._leaf(labels, weights)
        if (
            len(labels) < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or len(np.unique(labels)) == 1
        ):
            return node

        split = self._best_split(features, labels, weights)
        if split is None:
            return node
        feature, threshold = split
        left_mask = features[:, feature] <= threshold
        right_mask = ~left_mask
        if left_mask.sum() < self.min_samples_leaf or right_mask.sum() < self.min_samples_leaf:
            return node

        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(
            features[left_mask], labels[left_mask], weights[left_mask], depth + 1
        )
        node.right = self._grow(
            features[right_mask], labels[right_mask], weights[right_mask], depth + 1
        )
        return node

    def _best_split(
        self, features: np.ndarray, labels: np.ndarray, weights: np.ndarray
    ) -> Optional[Tuple[int, float]]:
        n_samples, n_features = features.shape
        candidates = self._rng.permutation(n_features)[
            : self._resolve_max_features(n_features)
        ]

        best_score = np.inf
        best: Optional[Tuple[int, float]] = None
        total_weight = weights.sum()

        for feature in candidates:
            order = np.argsort(features[:, feature], kind="stable")
            values = features[order, feature]
            ordered_labels = labels[order]
            ordered_weights = weights[order]

            # Weighted class counts accumulated from the left.
            one_hot = np.zeros((n_samples, self._n_classes))
            one_hot[np.arange(n_samples), ordered_labels] = ordered_weights
            left_counts = np.cumsum(one_hot, axis=0)
            total_counts = left_counts[-1]
            right_counts = total_counts - left_counts

            left_weight = np.cumsum(ordered_weights)
            right_weight = total_weight - left_weight

            # Valid split positions: between distinct consecutive values.
            distinct = values[1:] != values[:-1]
            if not distinct.any():
                continue
            positions = np.flatnonzero(distinct)

            gini_left = _gini_from_counts(left_counts[positions])
            gini_right = _gini_from_counts(right_counts[positions])
            split_weight_left = left_weight[positions]
            split_weight_right = right_weight[positions]
            score = (
                split_weight_left * gini_left + split_weight_right * gini_right
            ) / total_weight

            best_position = int(np.argmin(score))
            if score[best_position] < best_score - 1e-12:
                best_score = float(score[best_position])
                index = positions[best_position]
                threshold = 0.5 * (values[index] + values[index + 1])
                best = (int(feature), float(threshold))
        return best

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def _predict_proba(self, features: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("tree has not been fitted")
        probabilities = np.empty((len(features), self._n_classes))
        for row, sample in enumerate(features):
            node = self._root
            while not node.is_leaf:
                node = node.left if sample[node.feature] <= node.threshold else node.right
            probabilities[row] = node.prediction
        return probabilities

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        def walk(node: Optional[_Node]) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        if self._root is None:
            raise RuntimeError("tree has not been fitted")
        return walk(self._root)
