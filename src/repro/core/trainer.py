"""Training and evaluation orchestration.

The paper's evaluation protocol (Section V) is: preprocess, create k-fold
splits, train each network with RMSprop and the Table I settings, then report
accuracy, detection rate, false-alarm rate and the raw TP/FP counts.  The
:class:`Trainer` encapsulates that protocol so the experiment harness, the
examples and the tests all exercise the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..data.dataset import TrafficRecords
from ..metrics.ids_metrics import DetectionReport, evaluate_detection
from ..nn.models import History, Model
from ..preprocessing.pipeline import IDSPreprocessor, PreparedData, PreparedSplit
from .config import NetworkConfig
from .pelican import compile_for_paper

__all__ = ["EvaluationResult", "Trainer"]

ModelBuilder = Callable[[int, NetworkConfig], Model]


@dataclass
class EvaluationResult:
    """Everything measured for one model on one dataset.

    Attributes
    ----------
    model_name:
        Human-readable model label (e.g. ``"residual-41"``).
    report:
        Aggregated attack-vs-normal :class:`DetectionReport` (ACC/DR/FAR and
        TP/FP counts, summed over folds when k-fold evaluation is used).
    fold_reports:
        Per-fold reports (length 1 for a holdout evaluation).
    histories:
        Training histories (one per fold), used by the Fig. 5 loss curves.
    multiclass_accuracy:
        Fraction of records assigned the exactly correct class label.
    """

    model_name: str
    report: DetectionReport
    fold_reports: List[DetectionReport] = field(default_factory=list)
    histories: List[History] = field(default_factory=list)
    multiclass_accuracy: float = 0.0

    def as_row(self) -> Dict[str, float]:
        """Row for the result tables: DR%, ACC%, FAR% as in Tables III-V.

        DR and FAR come from the attack-vs-normal binarisation; ACC is the
        multi-class validation accuracy (the paper's ACC column tracks the
        multi-class accuracy — e.g. ACC 86.64 % alongside DR 97.75 % and FAR
        1.30 % on UNSW-NB15 is only consistent with the multi-class reading).
        """
        return {
            "model": self.model_name,
            "dr_percent": 100.0 * self.report.detection_rate,
            "acc_percent": 100.0 * self.multiclass_accuracy,
            "far_percent": 100.0 * self.report.false_alarm_rate,
            "tp": self.report.tp,
            "fp": self.report.fp,
        }


class Trainer:
    """Train and evaluate models following the paper's protocol.

    Parameters
    ----------
    config:
        Table I hyper-parameters (already scaled if desired).
    validation_during_training:
        When True, ``fit`` receives the test fold as validation data so the
        history contains ``val_loss`` — required for the Fig. 5 curves.
    verbose:
        Verbosity forwarded to ``Model.fit``.
    """

    def __init__(
        self,
        config: NetworkConfig,
        validation_during_training: bool = True,
        verbose: int = 0,
    ) -> None:
        self.config = config
        self.validation_during_training = validation_during_training
        self.verbose = verbose

    # ------------------------------------------------------------------ #
    # Single-split training
    # ------------------------------------------------------------------ #
    def train(self, model: Model, split: PreparedSplit) -> History:
        """Compile (if needed) and fit a model on one train/test split."""
        if model.optimizer is None:
            compile_for_paper(model, self.config)
        validation = (
            (split.test.inputs, split.test.targets)
            if self.validation_during_training
            else None
        )
        return model.fit(
            split.train.inputs,
            split.train.targets,
            epochs=self.config.epochs,
            batch_size=self.config.batch_size,
            validation_data=validation,
            verbose=self.verbose,
        )

    def evaluate(self, model: Model, data: PreparedData, model_name: str) -> EvaluationResult:
        """Evaluate a trained model on prepared data."""
        predicted = model.predict_classes(data.inputs)
        report = evaluate_detection(data.class_indices, predicted, data.normal_index)
        multiclass_accuracy = float(np.mean(predicted == data.class_indices))
        return EvaluationResult(
            model_name=model_name,
            report=report,
            fold_reports=[report],
            multiclass_accuracy=multiclass_accuracy,
        )

    def train_and_evaluate(
        self, model: Model, split: PreparedSplit, model_name: Optional[str] = None
    ) -> EvaluationResult:
        """Train on the split's training portion and evaluate on its test portion."""
        history = self.train(model, split)
        result = self.evaluate(model, split.test, model_name or model.name)
        result.histories.append(history)
        return result

    # ------------------------------------------------------------------ #
    # K-fold protocol (Section V-A step 3)
    # ------------------------------------------------------------------ #
    def cross_validate(
        self,
        build_model: ModelBuilder,
        records: TrafficRecords,
        preprocessor: IDSPreprocessor,
        n_splits: int = 10,
        model_name: Optional[str] = None,
        seed: int = 0,
        max_folds: Optional[int] = None,
    ) -> EvaluationResult:
        """K-fold cross-validation of a freshly built model per fold.

        ``build_model(num_classes, config)`` must return an *uncompiled* (or
        compiled) model; a new instance is created for every fold so folds are
        independent, exactly as in the paper's protocol.  ``max_folds`` allows
        the scaled-down harness to train on a subset of folds while keeping
        the 1/k test proportion of true k-fold splits.
        """
        fold_reports: List[DetectionReport] = []
        histories: List[History] = []
        accuracies: List[float] = []
        name = model_name or "model"

        for fold_index, split in enumerate(
            preprocessor.kfold_splits(records, n_splits=n_splits, seed=seed)
        ):
            if max_folds is not None and fold_index >= max_folds:
                break
            model = build_model(split.num_classes, self.config)
            history = self.train(model, split)
            predicted = model.predict_classes(split.test.inputs)
            report = evaluate_detection(
                split.test.class_indices, predicted, split.test.normal_index
            )
            fold_reports.append(report)
            histories.append(history)
            accuracies.append(float(np.mean(predicted == split.test.class_indices)))

        if not fold_reports:
            raise ValueError("cross_validate produced no folds; check n_splits/max_folds")
        return EvaluationResult(
            model_name=name,
            report=DetectionReport.merge(fold_reports),
            fold_reports=fold_reports,
            histories=histories,
            multiclass_accuracy=float(np.mean(accuracies)),
        )
