"""Intrusion-detection metrics from Section V-B of the paper.

The paper evaluates every model with three quantities computed from the
attack-vs-normal binarisation of the multi-class predictions::

    ACC = (TP + TN) / (TP + TN + FP + FN)      (validation accuracy)
    DR  = TP / (TP + FN)                        (detection rate / recall)
    FAR = FP / (FP + TN)                        (false-alarm rate / fall-out)

where TP counts attacks classified as *any* attack class and FP counts normal
records classified as an attack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from .confusion import binary_confusion_counts, confusion_matrix

__all__ = [
    "DetectionReport",
    "accuracy",
    "detection_rate",
    "false_alarm_rate",
    "precision",
    "f1_score",
    "binarize_predictions",
    "evaluate_detection",
    "per_class_report",
]


def _safe_divide(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def accuracy(counts: Dict[str, int]) -> float:
    """(TP + TN) / total."""
    total = counts["tp"] + counts["tn"] + counts["fp"] + counts["fn"]
    return _safe_divide(counts["tp"] + counts["tn"], total)


def detection_rate(counts: Dict[str, int]) -> float:
    """TP / (TP + FN) — the fraction of attacks that are caught."""
    return _safe_divide(counts["tp"], counts["tp"] + counts["fn"])


def false_alarm_rate(counts: Dict[str, int]) -> float:
    """FP / (FP + TN) — the fraction of normal traffic flagged as attack."""
    return _safe_divide(counts["fp"], counts["fp"] + counts["tn"])


def precision(counts: Dict[str, int]) -> float:
    """TP / (TP + FP)."""
    return _safe_divide(counts["tp"], counts["tp"] + counts["fp"])


def f1_score(counts: Dict[str, int]) -> float:
    """Harmonic mean of precision and detection rate."""
    p = precision(counts)
    r = detection_rate(counts)
    return _safe_divide(2.0 * p * r, p + r)


@dataclass(frozen=True)
class DetectionReport:
    """Summary of a detector's performance on one evaluation set.

    ``accuracy``, ``detection_rate`` and ``false_alarm_rate`` correspond to
    the paper's ACC, DR and FAR columns; the raw counts allow the Table II
    style TP/FP reporting.
    """

    tp: int
    tn: int
    fp: int
    fn: int
    accuracy: float
    detection_rate: float
    false_alarm_rate: float
    precision: float
    f1: float

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def as_dict(self) -> Dict[str, float]:
        return {
            "tp": self.tp,
            "tn": self.tn,
            "fp": self.fp,
            "fn": self.fn,
            "accuracy": self.accuracy,
            "detection_rate": self.detection_rate,
            "false_alarm_rate": self.false_alarm_rate,
            "precision": self.precision,
            "f1": self.f1,
        }

    def __str__(self) -> str:
        return (
            f"DR={self.detection_rate:.4f} ACC={self.accuracy:.4f} "
            f"FAR={self.false_alarm_rate:.4f} (TP={self.tp}, FP={self.fp})"
        )

    @staticmethod
    def merge(reports: Sequence["DetectionReport"]) -> "DetectionReport":
        """Aggregate reports by summing their confusion counts (k-fold totals)."""
        if not reports:
            raise ValueError("cannot merge an empty list of reports")
        counts = {
            "tp": sum(r.tp for r in reports),
            "tn": sum(r.tn for r in reports),
            "fp": sum(r.fp for r in reports),
            "fn": sum(r.fn for r in reports),
        }
        return _report_from_counts(counts)

    def minus(self, earlier: "DetectionReport") -> "DetectionReport":
        """The counts added since ``earlier``, a report over a prefix of
        the same records (running totals read at two points)."""
        return _report_from_counts({
            "tp": self.tp - earlier.tp,
            "tn": self.tn - earlier.tn,
            "fp": self.fp - earlier.fp,
            "fn": self.fn - earlier.fn,
        })


def _report_from_counts(counts: Dict[str, int]) -> DetectionReport:
    return DetectionReport(
        tp=counts["tp"],
        tn=counts["tn"],
        fp=counts["fp"],
        fn=counts["fn"],
        accuracy=accuracy(counts),
        detection_rate=detection_rate(counts),
        false_alarm_rate=false_alarm_rate(counts),
        precision=precision(counts),
        f1=f1_score(counts),
    )


def binarize_predictions(class_indices: np.ndarray, normal_index: int) -> np.ndarray:
    """Collapse multi-class predictions to attack(1)/normal(0)."""
    class_indices = np.asarray(class_indices, dtype=np.int64)
    return (class_indices != normal_index).astype(np.int64)


def evaluate_detection(
    true_classes: np.ndarray,
    predicted_classes: np.ndarray,
    normal_index: int,
) -> DetectionReport:
    """Compute the paper's ACC/DR/FAR report from multi-class predictions."""
    y_true = binarize_predictions(true_classes, normal_index)
    y_pred = binarize_predictions(predicted_classes, normal_index)
    counts = binary_confusion_counts(y_true, y_pred)
    return _report_from_counts(counts)


def per_class_report(
    true_classes: np.ndarray,
    predicted_classes: np.ndarray,
    class_names: Sequence[str],
) -> Dict[str, Dict[str, float]]:
    """Per-class precision/recall/F1 plus support, keyed by class name."""
    num_classes = len(class_names)
    matrix = confusion_matrix(true_classes, predicted_classes, num_classes=num_classes)
    report: Dict[str, Dict[str, float]] = {}
    for index, name in enumerate(class_names):
        tp = int(matrix[index, index])
        fn = int(matrix[index].sum() - tp)
        fp = int(matrix[:, index].sum() - tp)
        counts = {"tp": tp, "fp": fp, "fn": fn, "tn": 0}
        report[name] = {
            "precision": precision(counts),
            "recall": detection_rate(counts),
            "f1": f1_score(counts),
            "support": int(matrix[index].sum()),
        }
    return report
