"""Neural-network layers used to assemble Pelican and the baseline models."""

from .base import Layer
from .convolutional import Conv1D
from .core import Dense, Dropout, Reshape, get_activation
from .merge import Add
from .normalization import BatchNormalization
from .pooling import GlobalAveragePooling1D, MaxPooling1D
from .recurrent import GRU, LSTM

__all__ = [
    "Layer",
    "Dense",
    "Dropout",
    "Reshape",
    "get_activation",
    "Conv1D",
    "MaxPooling1D",
    "GlobalAveragePooling1D",
    "BatchNormalization",
    "GRU",
    "LSTM",
    "Add",
]
