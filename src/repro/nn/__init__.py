"""``repro.nn`` — a from-scratch neural-network framework on numpy.

This package substitutes for the TensorFlow/Keras stack the paper used, cut
to what Pelican, its baselines and its ablations call.  It provides
reverse-mode autodiff (:mod:`repro.nn.tensor`), Keras-style layers
(:mod:`repro.nn.layers`), categorical cross-entropy, the RMSprop optimizer
used throughout the paper (plus SGD and Adam for the optimizer ablation) and
the :class:`Sequential` model container with a ``fit``/``evaluate``/``predict``
loop whose ``fit`` returns a per-epoch :class:`History`.
"""

from . import (
    gradcheck,
    inference,
    initializers,
    layers,
    losses,
    metrics,
    optimizers,
)
from .layers import (
    GRU,
    LSTM,
    Add,
    BatchNormalization,
    Conv1D,
    Dense,
    Dropout,
    GlobalAveragePooling1D,
    Layer,
    MaxPooling1D,
    Reshape,
)
from .losses import CategoricalCrossentropy
from .models import History, Model, Sequential
from .optimizers import SGD, Adam, Optimizer, RMSprop
from .tensor import Tensor, as_tensor, no_grad

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "Layer",
    "Dense",
    "Dropout",
    "Reshape",
    "Conv1D",
    "MaxPooling1D",
    "GlobalAveragePooling1D",
    "BatchNormalization",
    "GRU",
    "LSTM",
    "Add",
    "Model",
    "Sequential",
    "Optimizer",
    "SGD",
    "RMSprop",
    "Adam",
    "CategoricalCrossentropy",
    "History",
]
