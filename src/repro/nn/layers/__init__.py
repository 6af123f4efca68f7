"""Neural-network layers used to assemble Pelican and the baseline models."""

from .base import Layer
from .convolutional import Conv1D
from .core import Activation, Dense, Dropout, Flatten, Reshape, get_activation
from .merge import Add, Concatenate
from .normalization import BatchNormalization
from .pooling import (
    AveragePooling1D,
    GlobalAveragePooling1D,
    GlobalMaxPooling1D,
    MaxPooling1D,
)
from .recurrent import GRU, LSTM

__all__ = [
    "Layer",
    "Dense",
    "Activation",
    "Dropout",
    "Flatten",
    "Reshape",
    "get_activation",
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
]
