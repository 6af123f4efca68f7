"""AdaBoost (multi-class SAMME) over shallow CART trees.

The weakest baseline in the paper's Table V (ACC 73.19 %, FAR 22.11 % on
UNSW-NB15): boosting of weak learners struggles with the heavily imbalanced
attack mix, which is exactly the behaviour the comparative bench reproduces.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .base import BaseClassifier
from .decision_tree import DecisionTreeClassifier

__all__ = ["AdaBoostClassifier"]


class AdaBoostClassifier(BaseClassifier):
    """SAMME AdaBoost with decision stumps / shallow trees as weak learners.

    Parameters
    ----------
    n_estimators:
        Maximum number of boosting rounds (training stops early if a learner
        reaches zero weighted error or becomes no better than chance).
    max_depth:
        Depth of each weak learner (1 = decision stumps).
    learning_rate:
        Shrinkage applied to each learner's vote weight.
    """

    name = "adaboost"

    def __init__(
        self,
        n_estimators: int = 40,
        max_depth: int = 1,
        learning_rate: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if n_estimators <= 0 or max_depth <= 0:
            raise ValueError("n_estimators and max_depth must be positive")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.n_estimators = int(n_estimators)
        self.max_depth = int(max_depth)
        self.learning_rate = float(learning_rate)
        self.seed = seed
        self.estimators_: List[DecisionTreeClassifier] = []
        self.estimator_weights_: List[float] = []

    def _fit(self, features: np.ndarray, labels: np.ndarray) -> None:
        rng = np.random.default_rng(self.seed)
        n_samples = len(features)
        self._n_classes = int(labels.max()) + 1
        weights = np.full(n_samples, 1.0 / n_samples)
        self.estimators_ = []
        self.estimator_weights_ = []

        for round_index in range(self.n_estimators):
            learner = DecisionTreeClassifier(
                max_depth=self.max_depth,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            learner.fit_weighted(features, labels, weights)
            predictions = learner.predict(features)
            incorrect = predictions != labels
            error = float(np.dot(weights, incorrect))

            if error <= 0.0:
                # Perfect learner: give it a large vote and stop boosting.
                self.estimators_.append(learner)
                self.estimator_weights_.append(10.0)
                break
            chance = 1.0 - 1.0 / self._n_classes
            if error >= chance:
                # No better than random guessing; SAMME stops here.
                if not self.estimators_:
                    self.estimators_.append(learner)
                    self.estimator_weights_.append(1.0)
                break

            alpha = self.learning_rate * (
                np.log((1.0 - error) / error) + np.log(self._n_classes - 1.0)
            )
            self.estimators_.append(learner)
            self.estimator_weights_.append(float(alpha))

            weights *= np.exp(alpha * incorrect)
            weights /= weights.sum()

    def _predict_proba(self, features: np.ndarray) -> np.ndarray:
        if not self.estimators_:
            raise RuntimeError("AdaBoost has not been fitted")
        scores = np.zeros((len(features), self._n_classes))
        for learner, alpha in zip(self.estimators_, self.estimator_weights_):
            predictions = learner.predict(features)
            scores[np.arange(len(features)), predictions] += alpha
        totals = scores.sum(axis=1, keepdims=True)
        totals[totals == 0.0] = 1.0
        return scores / totals
