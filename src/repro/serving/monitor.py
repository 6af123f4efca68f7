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

Throughput accounting distinguishes three time totals:

* ``total_time`` — the *summed* per-batch latencies.  On a single thread
  this is the service's busy time, but as soon as batches overlap on
  concurrent workers the sum double-counts wall-clock time and dividing by
  it understates throughput.
* ``busy_time`` — the overlap-merged union of the batch scoring intervals:
  equal to ``total_time`` while batches never overlap, smaller once
  concurrent workers score simultaneously, and — unlike a first-to-last
  span — free of the idle gaps between batches, so a long-lived service
  with sporadic traffic is not diluted towards records-per-uptime.
  ``records / busy_time`` is the records-per-second headline.  The union
  is maintained as a small bounded set of pending disjoint intervals, so
  batches may commit in any order (parallel workers reorder freely): a
  late-committing interval still contributes exactly its uncovered
  portion.  Only when more than the bounded number of disjoint intervals
  are simultaneously pending does the oldest get frozen, after which a
  batch committing entirely before it is dropped — an undercount, never a
  double count, and ``busy_time <= busy_span`` always holds.
* ``busy_span`` — the wall-clock distance from the start of the earliest
  batch to the end of the latest one (busy and idle alike), kept for
  wall-time introspection.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

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

    Totals (records, batches, time) are running counters, so they cover the
    service's whole lifetime; the latency distribution (mean/p95) is kept
    over a bounded window of the most recent batches so a long-lived service
    neither grows without bound nor averages incidents away.

    Parameters
    ----------
    window:
        Number of most-recent batch latencies kept for the mean/p95 stats.
    clock:
        Injectable time source; must be the same clock that produced the
        latencies (the service passes its own), so the busy span and the
        per-batch latencies live on one timeline.
    """

    #: Maximum number of pending disjoint intervals the busy-time merge
    #: keeps before freezing the oldest.  Out-of-order commits only pile up
    #: disjoint holes while more batches than this are simultaneously in
    #: flight and reordered — far beyond any real worker pool.
    MAX_PENDING_INTERVALS = 64

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
        self._total_time = 0.0
        self._busy_time = 0.0
        # The busy-time union: a bounded, sorted list of pending disjoint
        # [start, end] intervals whose lengths are already in _busy_time,
        # plus a frozen floor — everything at or before it is treated as
        # covered, so a straggler clipped by the floor can undercount but
        # never double count.
        self._pending_intervals: List[List[float]] = []
        self._covered_floor: Optional[float] = None
        self._span_start: Optional[float] = None
        self._span_end: Optional[float] = None

    def update(
        self, batch_size: int, latency: float, end_time: Optional[float] = None
    ) -> None:
        """Record one processed batch.

        ``end_time`` is the clock reading when the batch finished; it
        defaults to "now" but concurrent callers that commit results after
        the fact (the process pool's reorder buffer) pass the measured value
        so the busy span reflects when the work actually ran.  Commits may
        arrive in any order: each interval contributes exactly the portion
        of ``[end - latency, end]`` not already covered by earlier updates.
        """
        if batch_size < 0 or latency < 0:
            raise ValueError("batch_size and latency must be non-negative")
        end = float(end_time) if end_time is not None else self.clock()
        start = end - float(latency)
        with self._lock:
            self._total_batches += 1
            self._total_records += int(batch_size)
            self._total_time += float(latency)
            self._recent_latencies.append(float(latency))
            self._merge_busy_interval(start, end)
            if self._span_start is None or start < self._span_start:
                self._span_start = start
            if self._span_end is None or end > self._span_end:
                self._span_end = end

    def _merge_busy_interval(self, start: float, end: float) -> None:
        """Fold ``[start, end]`` into the pending-interval union (locked).

        The uncovered portion — the interval's length minus its overlap
        with the pending intervals, clipped at the frozen floor — is added
        to ``_busy_time``; overlapping pending intervals coalesce into one.
        Both the disjointness of the pending set and the clip at the floor
        make double-counting impossible, and every counted sliver lies
        inside ``[span_start, span_end]``, so ``busy_time <= busy_span``.
        """
        if self._covered_floor is not None:
            start = max(start, self._covered_floor)
            end = max(end, self._covered_floor)
        merged_start, merged_end = start, end
        overlap = 0.0
        kept: List[List[float]] = []
        insert_at = 0
        for interval in self._pending_intervals:
            if interval[1] < start:
                kept.append(interval)
                insert_at = len(kept)
            elif interval[0] > end:
                kept.append(interval)
            else:
                overlap += min(interval[1], end) - max(interval[0], start)
                merged_start = min(merged_start, interval[0])
                merged_end = max(merged_end, interval[1])
        self._busy_time += (end - start) - overlap
        kept.insert(insert_at, [merged_start, merged_end])
        # Freeze the oldest intervals in one slice instead of a pop(0) loop:
        # the intervals are sorted, so the largest frozen end — the new
        # floor — is the last frozen interval's end, and no element shifting
        # is paid on the hot path.
        excess = len(kept) - self.MAX_PENDING_INTERVALS
        if excess > 0:
            floor = kept[excess - 1][1]
            if self._covered_floor is None or floor > self._covered_floor:
                self._covered_floor = floor
            kept = kept[excess:]
        self._pending_intervals = kept

    @property
    def total_batches(self) -> int:
        with self._lock:
            return self._total_batches

    @property
    def total_records(self) -> int:
        with self._lock:
            return self._total_records

    @property
    def total_time(self) -> float:
        """Summed in-service processing time across all batches."""
        with self._lock:
            return self._total_time

    # Locked helpers: one formula each, shared by the properties and the
    # consistent-snapshot path (caller holds self._lock).
    def _busy_span_locked(self) -> float:
        if self._span_start is None or self._span_end is None:
            return 0.0
        return max(self._span_end - self._span_start, 0.0)

    def _throughput_locked(self) -> float:
        if self._busy_time > 0:
            return self._total_records / self._busy_time
        if self._total_time > 0:
            return self._total_records / self._total_time
        return 0.0

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
    def busy_span(self) -> float:
        """Wall-clock span from the earliest batch start to the latest end."""
        with self._lock:
            return self._busy_span_locked()

    @property
    def busy_time(self) -> float:
        """Overlap-merged union of the batch scoring intervals."""
        with self._lock:
            return self._busy_time

    def _utilization_locked(self) -> float:
        span = self._busy_span_locked()
        if span <= 0.0:
            return 0.0
        return min(self._busy_time / span, 1.0)

    @property
    def utilization(self) -> float:
        """Fraction of the busy span actually spent scoring (0.0 to 1.0).

        ``busy_time / busy_span``: 1.0 means the service never sat idle
        between batches, values near 0 mean sporadic traffic.  This is the
        saturation signal the fleet controller's autoscaler reads — it needs
        no extra bookkeeping because both totals are already maintained.
        """
        with self._lock:
            return self._utilization_locked()

    @property
    def throughput(self) -> float:
        """Records per second of busy time (0.0 before any batch).

        Falls back to the summed-latency total when the merged busy time is
        degenerate (instantaneous batches under a frozen test clock).
        """
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
        batch whose latency the throughput does not).
        """
        with self._lock:
            return {
                "batches": float(self._total_batches),
                "records": float(self._total_records),
                "total_time_s": self._total_time,
                "busy_time_s": self._busy_time,
                "busy_span_s": self._busy_span_locked(),
                "utilization": self._utilization_locked(),
                "throughput_rps": self._throughput_locked(),
                "mean_latency_s": self._mean_latency_locked(),
                "p95_latency_s": self._p95_latency_locked(),
            }
