"""HAST-IDS (Wang et al., 2017) — the tandem CNN→LSTM baseline of Table V.

The original HAST-IDS learns hierarchical spatial features with convolutional
layers over raw packet bytes and then temporal features with an LSTM over the
per-packet representations.  On the paper's tabular flow features the same
tandem structure is used: a convolutional front-end (spatial representation),
max pooling, then an LSTM (temporal representation), followed by a dense
softmax classifier.
"""

from __future__ import annotations

from typing import Optional

from ..nn.layers import (
    LSTM,
    BatchNormalization,
    Conv1D,
    Dense,
    Dropout,
    GlobalAveragePooling1D,
    MaxPooling1D,
)
from ..nn.models import Sequential
from .config import NetworkConfig

__all__ = ["build_hast_ids"]


def build_hast_ids(
    num_classes: int,
    config: NetworkConfig,
    name: Optional[str] = None,
    seed: Optional[int] = None,
) -> Sequential:
    """Build the HAST-IDS style CNN→LSTM classifier.

    The convolutional stage uses the same filter budget as the Table I
    settings so the comparison against Pelican is apples-to-apples, then an
    LSTM consumes the convolutional feature map before the dense classifier.
    """
    if num_classes < 2:
        raise ValueError("num_classes must be at least 2")
    name = name or "hast-ids"
    network = Sequential(name=name, seed=seed)
    # Spatial stage: two stacked convolutions (the "hierarchical spatial
    # features" of HAST-IDS), each followed by pooling.
    network.add(
        Conv1D(config.filters, config.kernel_size, activation="relu", name=f"{name}/conv1")
    )
    network.add(MaxPooling1D(pool_size=2, name=f"{name}/pool1"))
    network.add(BatchNormalization(name=f"{name}/bn1"))
    network.add(
        Conv1D(config.filters, config.kernel_size, activation="relu", name=f"{name}/conv2")
    )
    network.add(MaxPooling1D(pool_size=2, name=f"{name}/pool2"))
    # Temporal stage: LSTM over the (single-step) convolutional feature map.
    network.add(
        LSTM(config.recurrent_units, return_sequences=True, name=f"{name}/lstm")
    )
    network.add(Dropout(config.dropout_rate, name=f"{name}/dropout"))
    network.add(GlobalAveragePooling1D(name=f"{name}/gap"))
    network.add(Dense(num_classes, activation="softmax", name=f"{name}/classifier"))
    return network
