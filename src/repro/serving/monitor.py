"""The service's commit ledger: everything a detection service reports.

:class:`ServiceMonitor` is fed only by committed
:class:`~repro.serving.service.BatchResult` values, through
:meth:`ServiceMonitor.observe`, and holds under one lock:

* the rolling ACC/DR/FAR window — the paper's metrics over the most recent
  ``window`` records, so flood episodes and drift show up within a
  window's worth of traffic instead of being averaged away;
* the lifetime totals (batches, records) and the wall span;
* the latency window — the last :data:`LATENCY_WINDOW` batch latencies,
  for the mean/p95 headline numbers;
* the unknown-categorical tallies — per column, the serve-time values
  missing from the training vocabulary.

Scoring is pure: nothing is counted until a result commits, so a batch
that is scored but never committed (a dry-run ``score()``, a label that
fails to encode, a batch lost with its worker) leaves every number as it
was, on every execution model.

:meth:`ServiceMonitor.snapshot` reads all of it in one lock acquisition,
so a reader polling from another thread (the process pool's collector
commits concurrently) never sees a torn row; the window is evaluated
after the lock is released.  :meth:`~repro.serving.service.ServiceReport.merge`
turns snapshots into reports.

Throughput is wall clock: records divided by the *wall span*, from the
start of the earliest batch to the end of the latest one on the service
clock (busy and idle time alike).  A batch starts when scoring starts on
the synchronous service and when it is dispatched on the process pool,
so the span leaves out only the first batch's queue wait (at most the
``flush_interval``).  Overlapping batches on concurrent workers are
counted once, because the span is one interval; commits may arrive in any
order.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, Optional

import numpy as np

from ..metrics.ids_metrics import DetectionReport, evaluate_detection

__all__ = ["LATENCY_WINDOW", "MonitorSnapshot", "ServiceMonitor"]

#: Number of most-recent batch latencies kept for the mean/p95 stats.
LATENCY_WINDOW = 1024


@dataclass(frozen=True)
class MonitorSnapshot:
    """One consistent read of a :class:`ServiceMonitor`."""

    batches: int
    records: int
    wall_start: float                # earliest batch start (0.0 before any batch)
    wall_end: float                  # latest batch end (0.0 before any batch)
    latencies: np.ndarray            # the latency window, oldest first
    rolling: Optional[DetectionReport]  # ACC/DR/FAR over the record window
    unknown_categoricals: Dict[str, int]


class ServiceMonitor:
    """Lock-guarded ledger of a service's committed batches.

    Parameters
    ----------
    normal_index:
        Index of the normal class inside the detector's class order (used
        to binarise multi-class labels into attack/normal).
    columns:
        The categorical columns whose unknown values are tallied (each
        starts at 0).
    window:
        Number of most-recent records the rolling report covers.
    """

    def __init__(
        self, normal_index: int, columns: Iterable[str], window: int = 512
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.normal_index = int(normal_index)
        self.window = int(window)
        self._lock = threading.Lock()
        self._true: Deque[int] = deque(maxlen=window)
        self._predicted: Deque[int] = deque(maxlen=window)
        self._latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._batches = 0
        self._records = 0
        self._span_start: Optional[float] = None
        self._span_end: Optional[float] = None
        self._unknown: Dict[str, int] = dict.fromkeys(columns, 0)

    def observe(self, result) -> None:
        """Fold one committed :class:`~repro.serving.service.BatchResult`.

        The batch ran from ``result.finished - result.latency`` to
        ``result.finished``; commits may arrive in any order.  The result
        is checked before anything is counted, so a rejected one leaves the
        ledger untouched.
        """
        true_classes = np.asarray(result.true_indices, dtype=np.int64)
        predicted_classes = np.asarray(result.class_indices, dtype=np.int64)
        if true_classes.shape != predicted_classes.shape:
            raise ValueError(
                "true and predicted label arrays must have the same shape"
            )
        if result.size < 0 or result.latency < 0:
            raise ValueError("batch size and latency must be non-negative")
        end = float(result.finished)
        latency = float(result.latency)
        start = end - latency
        with self._lock:
            self._true.extend(true_classes.tolist())
            self._predicted.extend(predicted_classes.tolist())
            self._batches += 1
            self._records += int(result.size)
            self._latencies.append(latency)
            if self._span_start is None or start < self._span_start:
                self._span_start = start
            if self._span_end is None or end > self._span_end:
                self._span_end = end
            for column, count in result.unknown_categoricals.items():
                self._unknown[column] = self._unknown.get(column, 0) + int(count)

    def snapshot(self) -> MonitorSnapshot:
        """Everything the ledger holds, read in one lock acquisition.

        The deques are copied into preallocated arrays (``count=`` spares
        :func:`np.fromiter` its incremental regrowth) under the lock; the
        window is evaluated on the copies after the lock is released, so a
        slow report never stalls a concurrent commit.
        """
        with self._lock:
            batches, records = self._batches, self._records
            wall_start = self._span_start or 0.0
            wall_end = self._span_end or 0.0
            latencies = np.fromiter(
                self._latencies, dtype=np.float64, count=len(self._latencies)
            )
            true_window = np.fromiter(
                self._true, dtype=np.int64, count=len(self._true)
            )
            predicted_window = np.fromiter(
                self._predicted, dtype=np.int64, count=len(self._predicted)
            )
            unknown = dict(self._unknown)
        rolling = (
            evaluate_detection(true_window, predicted_window, self.normal_index)
            if len(true_window) else None
        )
        return MonitorSnapshot(
            batches, records, wall_start, wall_end, latencies, rolling, unknown
        )
