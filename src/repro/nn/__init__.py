"""``repro.nn`` — a from-scratch neural-network framework on numpy.

This package substitutes for the TensorFlow/Keras stack the paper used.  It
provides reverse-mode autodiff (:mod:`repro.nn.tensor`), Keras-style layers
(:mod:`repro.nn.layers`), losses, optimizers (including the RMSprop variant
used throughout the paper), callbacks and the :class:`Sequential` model
container with a complete ``fit``/``evaluate``/``predict`` loop.
"""

from . import (
    callbacks,
    gradcheck,
    inference,
    initializers,
    layers,
    losses,
    metrics,
    optimizers,
    random,
)
from .callbacks import EarlyStopping, History, LearningRateScheduler
from .layers import (
    GRU,
    LSTM,
    Activation,
    Add,
    AveragePooling1D,
    BatchNormalization,
    Concatenate,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    GlobalAveragePooling1D,
    GlobalMaxPooling1D,
    Layer,
    MaxPooling1D,
    Reshape,
)
from .losses import (
    BinaryCrossentropy,
    CategoricalCrossentropy,
    MeanSquaredError,
    SparseCategoricalCrossentropy,
)
from .models import Model, Sequential
from .optimizers import SGD, Adadelta, Adagrad, Adam, Optimizer, RMSprop
from .random import seed
from .tensor import Tensor, as_tensor, no_grad

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "seed",
    "Layer",
    "Dense",
    "Activation",
    "Dropout",
    "Flatten",
    "Reshape",
    "Conv1D",
    "MaxPooling1D",
    "AveragePooling1D",
    "GlobalAveragePooling1D",
    "GlobalMaxPooling1D",
    "BatchNormalization",
    "GRU",
    "LSTM",
    "Add",
    "Concatenate",
    "Model",
    "Sequential",
    "Optimizer",
    "SGD",
    "RMSprop",
    "Adam",
    "Adagrad",
    "Adadelta",
    "CategoricalCrossentropy",
    "SparseCategoricalCrossentropy",
    "BinaryCrossentropy",
    "MeanSquaredError",
    "History",
    "EarlyStopping",
    "LearningRateScheduler",
]
