"""Table reproductions (Tables I-V of the paper).

Each function returns a :class:`~repro.experiments.results.ResultTable`
holding the values measured on the synthetic datasets next to the values the
paper reports, so benchmark output and EXPERIMENTS.md can show both.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from ..baselines import (
    AdaBoostClassifier,
    BaseClassifier,
    CNNClassifier,
    KernelSVM,
    LSTMClassifier,
    MLPClassifier,
    RandomForestClassifier,
)
from ..core.config import ExperimentScale, PAPER_SETTINGS, get_scale, scaled_config
from ..core.hast_ids import build_hast_ids
from ..core.lunet import build_lunet
from ..core.pelican import build_residual_network, compile_for_paper
from ..core.trainer import Trainer
from ..data import get_schema
from ..metrics import evaluate_detection
from ..preprocessing import IDSPreprocessor
from .four_networks import _load_records, run_four_network_study
from .paper_values import (
    TABLE1_SETTINGS,
    TABLE2_TP_FP,
    TABLE3_NSLKDD,
    TABLE4_UNSWNB15,
    TABLE5_COMPARISON,
)
from .results import ResultTable

__all__ = ["table1", "table2", "table3", "table4", "table5", "TABLE5_MODEL_ORDER"]


# --------------------------------------------------------------------------- #
# Table I — parameter settings
# --------------------------------------------------------------------------- #
def table1() -> ResultTable:
    """Check that the configuration registry matches the paper's Table I."""
    table = ResultTable(
        title="Table I — parameter settings",
        columns=["parameter", "unsw-nb15", "nsl-kdd", "matches_paper"],
        paper_rows=TABLE1_SETTINGS,
    )
    parameters = [
        "filters",
        "kernel_size",
        "recurrent_units",
        "dropout_rate",
        "epochs",
        "learning_rate",
        "batch_size",
    ]
    for parameter in parameters:
        unsw_value = getattr(PAPER_SETTINGS["unsw-nb15"], parameter)
        nsl_value = getattr(PAPER_SETTINGS["nsl-kdd"], parameter)
        matches = (
            unsw_value == TABLE1_SETTINGS["unsw-nb15"][parameter]
            and nsl_value == TABLE1_SETTINGS["nsl-kdd"][parameter]
        )
        table.add_row(
            parameter=parameter,
            **{"unsw-nb15": unsw_value, "nsl-kdd": nsl_value},
            matches_paper=bool(matches),
        )
    return table


# --------------------------------------------------------------------------- #
# Tables II, III, IV — the four-network study
# --------------------------------------------------------------------------- #
def table2(
    scale: Optional[ExperimentScale] = None, seed: int = 0
) -> ResultTable:
    """Table II — total true attacks detected (TP) and total false alarms (FP)."""
    scale = scale or get_scale("bench")
    table = ResultTable(
        title="Table II — true attacks detected vs false alarms",
        columns=["dataset", "model", "tp", "fp"],
        paper_rows={
            f"{dataset}/{model}": counts
            for dataset, models in TABLE2_TP_FP.items()
            for model, counts in models.items()
        },
        notes=[
            f"scale={scale.name}: {scale.n_records} records per dataset, "
            f"{scale.epochs} epochs (the paper trains on the full corpora, so "
            "absolute counts differ; the ordering is the comparable part)",
        ],
    )
    for dataset in ("nsl-kdd", "unsw-nb15"):
        study = run_four_network_study(dataset=dataset, scale=scale, seed=seed)
        for name, result in study.results.items():
            table.add_row(dataset=dataset, model=name, tp=result.report.tp, fp=result.report.fp)
    return table


def _performance_table(
    dataset: str,
    title: str,
    paper_rows: Dict[str, Dict[str, float]],
    scale: Optional[ExperimentScale],
    seed: int,
) -> ResultTable:
    scale = scale or get_scale("bench")
    study = run_four_network_study(dataset=dataset, scale=scale, seed=seed)
    table = ResultTable(
        title=title,
        columns=["model", "dr_percent", "acc_percent", "far_percent"],
        paper_rows=paper_rows,
        notes=[f"scale={scale.name}; ACC is the multi-class validation accuracy"],
    )
    for name, result in study.results.items():
        row = result.as_row()
        table.add_row(
            model=name,
            dr_percent=row["dr_percent"],
            acc_percent=row["acc_percent"],
            far_percent=row["far_percent"],
        )
    return table


def table3(scale: Optional[ExperimentScale] = None, seed: int = 0) -> ResultTable:
    """Table III — testing performance on NSL-KDD."""
    return _performance_table(
        "nsl-kdd",
        "Table III — testing performance on NSL-KDD",
        TABLE3_NSLKDD,
        scale,
        seed,
    )


def table4(scale: Optional[ExperimentScale] = None, seed: int = 0) -> ResultTable:
    """Table IV — testing performance on UNSW-NB15."""
    return _performance_table(
        "unsw-nb15",
        "Table IV — testing performance on UNSW-NB15",
        TABLE4_UNSWNB15,
        scale,
        seed,
    )


# --------------------------------------------------------------------------- #
# Table V — the comparative study
# --------------------------------------------------------------------------- #
#: Paper order (worst to best accuracy).
TABLE5_MODEL_ORDER = [
    "adaboost",
    "svm-rbf",
    "hast-ids",
    "cnn",
    "lstm",
    "mlp",
    "random-forest",
    "lunet",
    "pelican",
]


def _classical_models(seed: int) -> Dict[str, BaseClassifier]:
    """The classical / shallow-deep baselines of Table V."""
    return {
        "adaboost": AdaBoostClassifier(n_estimators=40, max_depth=1, seed=seed),
        "svm-rbf": KernelSVM(C=1.0, max_iterations=300, seed=seed),
        "cnn": CNNClassifier(epochs=10, seed=seed),
        "lstm": LSTMClassifier(epochs=10, seed=seed),
        "mlp": MLPClassifier(epochs=12, seed=seed),
        "random-forest": RandomForestClassifier(n_estimators=25, max_depth=10, seed=seed),
    }


def table5(
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
    dataset: str = "unsw-nb15",
    include_models: Optional[List[str]] = None,
) -> ResultTable:
    """Table V — Pelican vs classical techniques on UNSW-NB15.

    ``include_models`` restricts the comparison (useful for quick runs); by
    default all nine models of the paper's table are evaluated.
    """
    scale = scale or get_scale("bench")
    dataset = dataset.lower().replace("_", "-")
    schema = get_schema(dataset)
    records = _load_records(dataset, scale.n_records, seed)
    preprocessor = IDSPreprocessor(schema)
    split = preprocessor.holdout_split(
        records, test_fraction=1.0 / scale.n_splits, seed=seed
    )
    config = scaled_config(dataset, scale)
    trainer = Trainer(config, validation_during_training=False)
    selected = include_models or TABLE5_MODEL_ORDER

    table = ResultTable(
        title=f"Table V — comparison with classical techniques ({dataset})",
        columns=["model", "dr_percent", "acc_percent", "far_percent", "seconds"],
        paper_rows=TABLE5_COMPARISON,
        notes=[
            f"scale={scale.name}; ACC is the multi-class validation accuracy",
        ],
    )

    classical = _classical_models(seed)
    for name in selected:
        started = time.time()
        if name in classical:
            model = classical[name]
            model.fit(split.train.flat_inputs, split.train.class_indices)
            predictions = model.predict(split.test.flat_inputs)
            report = evaluate_detection(
                split.test.class_indices, predictions, split.test.normal_index
            )
            accuracy = float(np.mean(predictions == split.test.class_indices))
            row = {
                "dr_percent": 100.0 * report.detection_rate,
                "acc_percent": 100.0 * accuracy,
                "far_percent": 100.0 * report.false_alarm_rate,
            }
        elif name in ("hast-ids", "lunet", "pelican"):
            if name == "hast-ids":
                network = build_hast_ids(split.num_classes, config, seed=seed)
            elif name == "lunet":
                network = build_lunet(
                    split.num_classes, config, num_blocks=scale.scale_blocks(5), seed=seed
                )
            else:
                network = build_residual_network(
                    scale.scale_blocks(10), split.num_classes, config,
                    name="pelican", seed=seed,
                )
            compile_for_paper(network, config)
            result = trainer.train_and_evaluate(network, split, model_name=name)
            row = {
                "dr_percent": result.as_row()["dr_percent"],
                "acc_percent": result.as_row()["acc_percent"],
                "far_percent": result.as_row()["far_percent"],
            }
        else:
            raise ValueError(f"unknown Table V model {name!r}")
        table.add_row(
            model=name,
            dr_percent=row["dr_percent"],
            acc_percent=row["acc_percent"],
            far_percent=row["far_percent"],
            seconds=round(time.time() - started, 2),
        )
    return table
