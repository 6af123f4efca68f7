"""Rolling quality and throughput accounting for the detection service.

:class:`RollingDetectionMonitor` keeps the paper's ACC/DR/FAR metrics live
over a sliding window of the most recent records, so flood episodes and
drift show up in the numbers within a window's worth of traffic instead of
being averaged away.  :class:`ThroughputMonitor` aggregates per-batch
latency into the serving headline numbers (records/s, mean and p95 batch
latency).

Both monitors are thread-safe: every mutation and every read of derived
state happens under an internal lock, so the process pool's collector
thread can update them concurrently with a reader polling :meth:`report` /
:meth:`snapshot`.

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
import time
from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

import numpy as np

from ..metrics.ids_metrics import DetectionReport, evaluate_detection

__all__ = ["RollingDetectionMonitor", "ThroughputMonitor"]


class RollingDetectionMonitor:
    """Sliding-window ACC/DR/FAR built on :func:`evaluate_detection`.

    Parameters
    ----------
    normal_index:
        Index of the normal class inside the detector's class order (used
        to binarise multi-class labels into attack/normal).
    window:
        Number of most-recent records the rolling report covers.
    """

    def __init__(self, normal_index: int, window: int = 512) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.normal_index = int(normal_index)
        self.window = int(window)
        self._lock = threading.Lock()
        self._true: Deque[int] = deque(maxlen=window)
        self._predicted: Deque[int] = deque(maxlen=window)
        self._seen = 0

    @property
    def seen(self) -> int:
        """Total number of records ever observed (not just the window)."""
        with self._lock:
            return self._seen

    @property
    def current_size(self) -> int:
        """Number of records currently inside the window."""
        with self._lock:
            return len(self._true)

    def update(self, true_classes: np.ndarray, predicted_classes: np.ndarray) -> None:
        """Append a batch of (true, predicted) multi-class labels."""
        true_classes = np.asarray(true_classes, dtype=np.int64)
        predicted_classes = np.asarray(predicted_classes, dtype=np.int64)
        if true_classes.shape != predicted_classes.shape:
            raise ValueError(
                "true and predicted label arrays must have the same shape"
            )
        with self._lock:
            self._true.extend(true_classes.tolist())
            self._predicted.extend(predicted_classes.tolist())
            self._seen += len(true_classes)

    def report(self) -> Optional[DetectionReport]:
        """ACC/DR/FAR over the window, or None before any traffic arrived.

        The deques are copied into preallocated arrays (``count=`` spares
        :func:`np.fromiter` its incremental regrowth) under the lock; the
        evaluation runs on the copies after the lock is released, so a slow
        report never stalls concurrent workers mid-update.
        """
        with self._lock:
            if not self._true:
                return None
            true_window = np.fromiter(
                self._true, dtype=np.int64, count=len(self._true)
            )
            predicted_window = np.fromiter(
                self._predicted, dtype=np.int64, count=len(self._predicted)
            )
        return evaluate_detection(true_window, predicted_window, self.normal_index)


class ThroughputMonitor:
    """Per-batch latency/throughput accounting.

    Totals (records, batches, wall span) cover the service's whole
    lifetime; the latency distribution (mean/p95) is kept over a bounded
    window of the most recent batches so a long-lived service neither grows
    without bound nor averages incidents away.

    Parameters
    ----------
    window:
        Number of most-recent batch latencies kept for the mean/p95 stats.
    clock:
        Injectable time source; must be the same clock that produced the
        latencies (the service passes its own), so the wall span and the
        per-batch latencies live on one timeline.
    """

    def __init__(
        self, window: int = 1024, clock: Callable[[], float] = time.monotonic
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = int(window)
        self.clock = clock
        self._lock = threading.Lock()
        self._recent_latencies: Deque[float] = deque(maxlen=window)
        self._total_batches = 0
        self._total_records = 0
        self._span_start: Optional[float] = None
        self._span_end: Optional[float] = None

    def update(
        self, batch_size: int, latency: float, end_time: Optional[float] = None
    ) -> None:
        """Record one processed batch.

        ``end_time`` is the clock reading when the batch finished; it
        defaults to "now" but concurrent callers that commit results after
        the fact (the process pool's reorder buffer) pass the measured value
        so the wall span reflects when the work actually ran.  The batch
        started at ``end_time - latency``.  Commits may arrive in any order.
        """
        if batch_size < 0 or latency < 0:
            raise ValueError("batch_size and latency must be non-negative")
        end = float(end_time) if end_time is not None else self.clock()
        start = end - float(latency)
        with self._lock:
            self._total_batches += 1
            self._total_records += int(batch_size)
            self._recent_latencies.append(float(latency))
            if self._span_start is None or start < self._span_start:
                self._span_start = start
            if self._span_end is None or end > self._span_end:
                self._span_end = end

    @property
    def total_batches(self) -> int:
        with self._lock:
            return self._total_batches

    @property
    def total_records(self) -> int:
        with self._lock:
            return self._total_records

    # Locked helpers: one formula each, shared by the properties and the
    # consistent-snapshot path (caller holds self._lock).
    def _wall_span_locked(self) -> float:
        if self._span_start is None or self._span_end is None:
            return 0.0
        return max(self._span_end - self._span_start, 0.0)

    def _throughput_locked(self) -> float:
        span = self._wall_span_locked()
        return self._total_records / span if span > 0 else 0.0

    def _latency_window_locked(self) -> np.ndarray:
        return np.fromiter(
            self._recent_latencies,
            dtype=np.float64,
            count=len(self._recent_latencies),
        )

    def _mean_latency_locked(self) -> float:
        if not self._recent_latencies:
            return 0.0
        return float(np.mean(self._latency_window_locked()))

    def _p95_latency_locked(self) -> float:
        if not self._recent_latencies:
            return 0.0
        return float(np.percentile(self._latency_window_locked(), 95))

    @property
    def wall_span(self) -> float:
        """Wall-clock span from the earliest batch start to the latest end."""
        with self._lock:
            return self._wall_span_locked()

    @property
    def throughput(self) -> float:
        """Records per second of wall span (0.0 while the span is empty)."""
        with self._lock:
            return self._throughput_locked()

    @property
    def mean_latency(self) -> float:
        """Mean batch latency over the recent window."""
        with self._lock:
            return self._mean_latency_locked()

    @property
    def p95_latency(self) -> float:
        """95th-percentile batch latency over the recent window."""
        with self._lock:
            return self._p95_latency_locked()

    @property
    def recent_latencies(self) -> Tuple[float, ...]:
        """The windowed latency samples (for merging shard distributions)."""
        with self._lock:
            return tuple(self._recent_latencies)

    def snapshot(self) -> Dict[str, float]:
        """Headline numbers as one *consistent* dict (logs, benchmark JSON).

        Computed under a single lock acquisition, so concurrent updates
        cannot tear the row (e.g. a record count that already includes a
        batch whose span the throughput does not).  ``wall_start_s`` and
        ``wall_end_s`` bound the span (0.0 before any batch), so a sharded
        fleet can merge its shards' spans into one.
        """
        with self._lock:
            return {
                "batches": float(self._total_batches),
                "records": float(self._total_records),
                "wall_start_s": self._span_start or 0.0,
                "wall_end_s": self._span_end or 0.0,
                "wall_span_s": self._wall_span_locked(),
                "throughput_rps": self._throughput_locked(),
                "mean_latency_s": self._mean_latency_locked(),
                "p95_latency_s": self._p95_latency_locked(),
            }
