"""Hyper-parameter configuration.

:class:`NetworkConfig` captures the paper's Table I parameter settings, and
:class:`ExperimentScale` captures how much the experiment harness scales the
workload down so the pure-numpy networks train in reasonable time on a single
CPU core (the paper used the full corpora and a desktop-class machine).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

__all__ = [
    "NetworkConfig",
    "ExperimentScale",
    "PAPER_SETTINGS",
    "SCALES",
    "get_paper_config",
    "get_scale",
    "scaled_config",
]


@dataclass(frozen=True)
class NetworkConfig:
    """Training/architecture hyper-parameters (one column of Table I).

    Attributes
    ----------
    filters:
        Conv1D filter count.  Must equal the encoded feature width so the
        residual add has matching shapes (196 for UNSW-NB15, 121 for NSL-KDD).
    kernel_size:
        Conv1D kernel length.
    recurrent_units:
        GRU hidden size (equal to ``filters`` for the same reason).
    dropout_rate:
        Dropout rate inside every block.
    epochs:
        Training epochs.
    learning_rate:
        RMSprop learning rate.
    batch_size:
        Mini-batch size.
    """

    filters: int
    kernel_size: int
    recurrent_units: int
    dropout_rate: float
    epochs: int
    learning_rate: float
    batch_size: int

    def __post_init__(self) -> None:
        if self.filters <= 0 or self.kernel_size <= 0 or self.recurrent_units <= 0:
            raise ValueError("filters, kernel_size and recurrent_units must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")

    def with_updates(self, **kwargs) -> "NetworkConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


#: Table I of the paper, keyed by dataset name.
PAPER_SETTINGS: Dict[str, NetworkConfig] = {
    "unsw-nb15": NetworkConfig(
        filters=196,
        kernel_size=10,
        recurrent_units=196,
        dropout_rate=0.6,
        epochs=100,
        learning_rate=0.01,
        batch_size=4000,
    ),
    "nsl-kdd": NetworkConfig(
        filters=121,
        kernel_size=10,
        recurrent_units=121,
        dropout_rate=0.6,
        epochs=50,
        learning_rate=0.01,
        batch_size=4000,
    ),
}


@dataclass(frozen=True)
class ExperimentScale:
    """How far an experiment is scaled down from the paper's full runs.

    Attributes
    ----------
    name:
        Scale label recorded in EXPERIMENTS.md.
    n_records:
        Number of synthetic records drawn per dataset.
    epochs:
        Training epochs (overrides the Table I value).
    batch_size:
        Mini-batch size (overrides the Table I value).
    n_splits:
        Cross-validation folds (the paper uses 10).
    blocks_per_network:
        Scaling factor applied to the block counts: 1.0 keeps the paper's
        5/10-block networks, 0.4 reduces them to 2/4 blocks for smoke tests.
    """

    name: str
    n_records: int
    epochs: int
    batch_size: int
    n_splits: int
    blocks_per_network: float = 1.0

    def __post_init__(self) -> None:
        if self.n_records <= 0 or self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("n_records, epochs and batch_size must be positive")
        if self.n_splits < 2:
            raise ValueError("n_splits must be at least 2")
        if self.blocks_per_network <= 0:
            raise ValueError("blocks_per_network must be positive")

    def scale_blocks(self, paper_blocks: int) -> int:
        """Scale a paper block count (5 or 10), never below one block."""
        return max(1, int(round(paper_blocks * self.blocks_per_network)))


#: Workload presets.  ``smoke`` is used by the unit tests, ``bench`` by the
#: benchmark harness, ``paper`` mirrors the published settings (full record
#: counts, 10-fold cross-validation) and is provided for completeness.
SCALES: Dict[str, ExperimentScale] = {
    "smoke": ExperimentScale(
        name="smoke", n_records=400, epochs=2, batch_size=64, n_splits=3,
        blocks_per_network=0.2,
    ),
    "bench": ExperimentScale(
        name="bench", n_records=1200, epochs=10, batch_size=96, n_splits=4,
        blocks_per_network=1.0,
    ),
    "full": ExperimentScale(
        name="full", n_records=8000, epochs=20, batch_size=256, n_splits=5,
        blocks_per_network=1.0,
    ),
    "paper": ExperimentScale(
        name="paper", n_records=148_516, epochs=100, batch_size=4000, n_splits=10,
        blocks_per_network=1.0,
    ),
}


def get_paper_config(dataset: str) -> NetworkConfig:
    """Return the Table I settings for ``dataset`` (``"nsl-kdd"`` / ``"unsw-nb15"``)."""
    key = dataset.lower().replace("_", "-")
    try:
        return PAPER_SETTINGS[key]
    except KeyError as exc:
        known = ", ".join(sorted(PAPER_SETTINGS))
        raise ValueError(f"unknown dataset {dataset!r}; known datasets: {known}") from exc


def get_scale(name: str) -> ExperimentScale:
    """Return a workload preset by name."""
    try:
        return SCALES[name.lower()]
    except KeyError as exc:
        known = ", ".join(sorted(SCALES))
        raise ValueError(f"unknown scale {name!r}; known scales: {known}") from exc


def scaled_config(dataset: str, scale: ExperimentScale) -> NetworkConfig:
    """Table I settings with the scale's epoch/batch overrides applied."""
    paper = get_paper_config(dataset)
    return paper.with_updates(epochs=scale.epochs, batch_size=scale.batch_size)
