"""The shared "four network" study behind Fig. 5 and Tables II-IV.

In the paper, one experiment produces all of Fig. 5, Table II, Table III and
Table IV: the four Section V-C networks (Plain-21, Residual-21, Plain-41,
Residual-41/Pelican) are trained on each dataset, their loss histories are
plotted and their TP/FP and DR/ACC/FAR numbers are tabulated.  This module
runs that experiment once per (dataset, scale, seed) and caches the outcome in
process so every dependent table/figure reuses the same trained networks —
exactly like the paper — instead of retraining.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.config import ExperimentScale, get_scale, scaled_config
from ..core.pelican import build_network, compile_for_paper
from ..core.trainer import EvaluationResult, Trainer
from ..data import get_schema, load_nslkdd, load_unswnb15
from ..preprocessing import IDSPreprocessor

__all__ = ["FourNetworkStudy", "run_four_network_study", "clear_study_cache"]

#: (name, paper block count, residual?) for the four architectures.
NETWORK_DEFINITIONS: List[Tuple[str, int, bool]] = [
    ("plain-21", 5, False),
    ("residual-21", 5, True),
    ("plain-41", 10, False),
    ("residual-41", 10, True),
]


@dataclass
class FourNetworkStudy:
    """Outcome of training the four networks on one dataset.

    Attributes
    ----------
    dataset:
        ``"nsl-kdd"`` or ``"unsw-nb15"``.
    scale:
        The workload preset used.
    results:
        Per-network :class:`EvaluationResult` (TP/FP, DR/ACC/FAR...).
    train_loss / test_loss:
        Per-network loss histories (one value per epoch).
    train_accuracy / test_accuracy:
        Per-network accuracy histories.
    """

    dataset: str
    scale: ExperimentScale
    results: Dict[str, EvaluationResult] = field(default_factory=dict)
    train_loss: Dict[str, List[float]] = field(default_factory=dict)
    test_loss: Dict[str, List[float]] = field(default_factory=dict)
    train_accuracy: Dict[str, List[float]] = field(default_factory=dict)
    test_accuracy: Dict[str, List[float]] = field(default_factory=dict)

    def epochs(self) -> List[int]:
        """Epoch indices (1-based) of the recorded histories."""
        any_history = next(iter(self.train_loss.values()), [])
        return list(range(1, len(any_history) + 1))


_STUDY_CACHE: Dict[Tuple[str, str, int], FourNetworkStudy] = {}


def clear_study_cache() -> None:
    """Drop all cached studies (used by tests)."""
    _STUDY_CACHE.clear()


def _load_records(dataset: str, n_records: int, seed: int):
    if dataset == "nsl-kdd":
        return load_nslkdd(n_records=n_records, seed=seed)
    if dataset == "unsw-nb15":
        return load_unswnb15(n_records=n_records, seed=seed)
    raise ValueError(f"unknown dataset {dataset!r}")


def run_four_network_study(
    dataset: str = "unsw-nb15",
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
    use_cache: bool = True,
    verbose: int = 0,
) -> FourNetworkStudy:
    """Train the four Section V-C networks on ``dataset`` at ``scale``.

    The test portion is held out with the scale's ``1 / n_splits`` fraction
    (one fold of the paper's k-fold protocol) and is also used as validation
    data during training so the histories contain the Fig. 5 testing-loss
    curves.
    """
    scale = scale or get_scale("bench")
    dataset = dataset.lower().replace("_", "-")
    cache_key = (dataset, scale.name, seed)
    if use_cache and cache_key in _STUDY_CACHE:
        return _STUDY_CACHE[cache_key]

    schema = get_schema(dataset)
    records = _load_records(dataset, scale.n_records, seed)
    preprocessor = IDSPreprocessor(schema)
    split = preprocessor.holdout_split(
        records, test_fraction=1.0 / scale.n_splits, seed=seed
    )

    config = scaled_config(dataset, scale)
    trainer = Trainer(config, validation_during_training=True, verbose=verbose)
    study = FourNetworkStudy(dataset=dataset, scale=scale)

    for name, paper_blocks, residual in NETWORK_DEFINITIONS:
        blocks = scale.scale_blocks(paper_blocks)
        network = build_network(
            num_blocks=blocks,
            num_classes=split.num_classes,
            config=config,
            residual=residual,
            name=name,
            seed=seed,
        )
        compile_for_paper(network, config)
        result = trainer.train_and_evaluate(network, split, model_name=name)
        study.results[name] = result
        history = result.histories[0].history
        study.train_loss[name] = history.get("loss", [])
        study.test_loss[name] = history.get("val_loss", [])
        study.train_accuracy[name] = history.get("accuracy", [])
        study.test_accuracy[name] = history.get("val_accuracy", [])

    if use_cache:
        _STUDY_CACHE[cache_key] = study
    return study
