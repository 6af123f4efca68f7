"""Ablation studies for the design choices DESIGN.md calls out.

These go beyond the paper's own evaluation and probe the choices the paper
makes but does not ablate:

* **shortcut placement** — the paper connects the shortcut from the first BN
  output (Fig. 4(b)); the ablation compares that against a shortcut from the
  raw block input.
* **optimizer** — the paper trains everything with RMSprop; the ablation
  compares RMSprop, SGD and Adam on the same residual network.
* **dropout rate** — the paper fixes dropout at 0.6 to fight overfitting; the
  ablation sweeps 0.0 / 0.3 / 0.6.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.config import ExperimentScale, get_scale, scaled_config
from ..core.pelican import build_residual_network
from ..core.trainer import Trainer
from ..data import get_schema
from ..nn.optimizers import get_optimizer
from ..preprocessing import IDSPreprocessor
from .four_networks import _load_records
from .results import ResultTable

__all__ = ["ablate_shortcut_placement", "ablate_optimizer", "ablate_dropout"]


def _prepare(dataset: str, scale: ExperimentScale, seed: int):
    schema = get_schema(dataset)
    records = _load_records(dataset, scale.n_records, seed)
    preprocessor = IDSPreprocessor(schema)
    split = preprocessor.holdout_split(
        records, test_fraction=1.0 / scale.n_splits, seed=seed
    )
    return split, scaled_config(dataset, scale)


def _evaluate_network(network, split, config, name: str) -> dict:
    trainer = Trainer(config, validation_during_training=False)
    result = trainer.train_and_evaluate(network, split, model_name=name)
    return result.as_row()


def ablate_shortcut_placement(
    dataset: str = "unsw-nb15",
    scale: Optional[ExperimentScale] = None,
    num_blocks: Optional[int] = None,
    seed: int = 0,
) -> ResultTable:
    """Shortcut from the first BN output (paper) vs from the block input."""
    scale = scale or get_scale("bench")
    split, config = _prepare(dataset, scale, seed)
    blocks = num_blocks or scale.scale_blocks(5)

    table = ResultTable(
        title="Ablation — residual shortcut placement",
        columns=["model", "dr_percent", "acc_percent", "far_percent"],
        notes=[
            f"dataset={dataset}, blocks={blocks}, scale={scale.name}; "
            "'bn' is the paper's Fig. 4(b) design",
        ],
    )
    for shortcut_from in ("bn", "input"):
        network = build_residual_network(
            blocks, split.num_classes, config,
            shortcut_from=shortcut_from, name=f"residual-shortcut-{shortcut_from}",
            seed=seed,
        )
        row = _evaluate_network(network, split, config, f"shortcut-from-{shortcut_from}")
        table.add_row(
            model=row["model"],
            dr_percent=row["dr_percent"],
            acc_percent=row["acc_percent"],
            far_percent=row["far_percent"],
        )
    return table


def ablate_optimizer(
    dataset: str = "unsw-nb15",
    scale: Optional[ExperimentScale] = None,
    optimizers: Sequence[str] = ("rmsprop", "sgd", "adam"),
    num_blocks: Optional[int] = None,
    seed: int = 0,
) -> ResultTable:
    """RMSprop (paper) vs SGD vs Adam on the same residual network."""
    scale = scale or get_scale("bench")
    split, config = _prepare(dataset, scale, seed)
    blocks = num_blocks or scale.scale_blocks(5)

    table = ResultTable(
        title="Ablation — optimizer choice",
        columns=["model", "dr_percent", "acc_percent", "far_percent"],
        notes=[f"dataset={dataset}, blocks={blocks}, scale={scale.name}"],
    )
    for optimizer_name in optimizers:
        network = build_residual_network(
            blocks, split.num_classes, config,
            name=f"residual-{optimizer_name}", seed=seed,
        )
        network.compile(
            optimizer=get_optimizer(optimizer_name, learning_rate=config.learning_rate),
            loss="categorical_crossentropy",
            metrics=["accuracy"],
        )
        row = _evaluate_network(network, split, config, optimizer_name)
        table.add_row(
            model=row["model"],
            dr_percent=row["dr_percent"],
            acc_percent=row["acc_percent"],
            far_percent=row["far_percent"],
        )
    return table


def ablate_dropout(
    dataset: str = "unsw-nb15",
    scale: Optional[ExperimentScale] = None,
    rates: Sequence[float] = (0.0, 0.3, 0.6),
    num_blocks: Optional[int] = None,
    seed: int = 0,
) -> ResultTable:
    """Dropout-rate sweep (the paper fixes 0.6 to fight overfitting)."""
    scale = scale or get_scale("bench")
    split, config = _prepare(dataset, scale, seed)
    blocks = num_blocks or scale.scale_blocks(5)

    table = ResultTable(
        title="Ablation — dropout rate",
        columns=["model", "dr_percent", "acc_percent", "far_percent"],
        notes=[f"dataset={dataset}, blocks={blocks}, scale={scale.name}"],
    )
    for rate in rates:
        rate_config = config.with_updates(dropout_rate=float(rate))
        network = build_residual_network(
            blocks, split.num_classes, rate_config,
            name=f"residual-dropout-{rate}", seed=seed,
        )
        row = _evaluate_network(network, split, rate_config, f"dropout-{rate}")
        table.add_row(
            model=row["model"],
            dr_percent=row["dr_percent"],
            acc_percent=row["acc_percent"],
            far_percent=row["far_percent"],
        )
    return table
