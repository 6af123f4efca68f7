"""``repro.preprocessing`` — the paper's Section V-A data pipeline.

:class:`IDSPreprocessor` is the one feature encoder: one-hot encoding of
the categorical columns ("numerical conversion") and standardization
("normalization"), from one set of tables, for the float64 training
matrix and the float32 served input alike.  Plus the k-fold split
creation and :func:`one_hot` for the class targets.
"""

from .encoding import one_hot
from .kfold import KFold, StratifiedKFold, train_test_indices
from .pipeline import IDSPreprocessor, PreparedData, PreparedSplit

__all__ = [
    "one_hot",
    "KFold",
    "StratifiedKFold",
    "train_test_indices",
    "IDSPreprocessor",
    "PreparedData",
    "PreparedSplit",
]
