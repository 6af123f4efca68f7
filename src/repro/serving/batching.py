"""Micro-batching queue for the detection service.

Requests arriving at a streaming detector are rarely the size the model
runs fastest at.  :class:`MicroBatcher` buffers incoming
:class:`~repro.data.dataset.TrafficRecords` and releases model-ready
batches under the classic two-trigger policy:

* **size** — as soon as ``max_batch_size`` records are pending, a batch of
  exactly that size is released (splitting submissions when needed);
* **age** — records never wait longer than ``flush_interval`` seconds; a
  partial batch whose oldest record has exceeded the interval is released
  on the next :meth:`submit` / :meth:`poll` (or by the
  :class:`~repro.serving.procpool.ProcessWorkerPool` background timer,
  which polls on a schedule instead of waiting for traffic).

Each submission is stamped with its arrival time and the stamp travels with
the records — including the left-behind tail when a size-triggered drain
splits a submission — so the age trigger always measures from the true
oldest pending record.  The clock is injectable so tests (and deterministic
replays) can drive the age trigger without sleeping.

The batcher itself is not thread-safe; concurrent callers (the process
pool's submitters and its age-trigger timer) serialise access through a
lock of their own.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from ..data.dataset import TrafficRecords

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Size- and age-triggered micro-batching of traffic records.

    Parameters
    ----------
    max_batch_size:
        Batches released by the size trigger contain exactly this many
        records; the age trigger and :meth:`flush` may release fewer.
    flush_interval:
        Maximum time (in clock units, normally seconds) a record may sit in
        the queue before the age trigger releases it.
    clock:
        Zero-argument callable returning the current time; defaults to
        :func:`time.monotonic`.
    """

    def __init__(
        self,
        max_batch_size: int = 256,
        flush_interval: float = 0.05,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if flush_interval < 0:
            raise ValueError("flush_interval must be non-negative")
        self.max_batch_size = int(max_batch_size)
        self.flush_interval = float(flush_interval)
        self.clock = clock
        # FIFO of (arrival time, records); split tails keep their stamp.
        # A deque: every size-triggered drain pops from the left, where
        # list.pop(0) would shift the whole queue on each release.
        self._pending: Deque[Tuple[float, TrafficRecords]] = deque()
        self._pending_count = 0

    # ------------------------------------------------------------------ #
    @property
    def pending_count(self) -> int:
        """Number of records currently buffered."""
        return self._pending_count

    @property
    def oldest_arrival(self) -> Optional[float]:
        """Arrival time of the oldest buffered record (None when empty)."""
        return self._pending[0][0] if self._pending else None

    def _drain(self, count: int) -> TrafficRecords:
        """Remove and return exactly ``count`` pending records (FIFO order)."""
        taken: List[TrafficRecords] = []
        remaining = count
        while remaining > 0:
            arrival, part = self._pending[0]
            if len(part) <= remaining:
                taken.append(part)
                remaining -= len(part)
                self._pending.popleft()
            else:
                taken.append(part.subset(range(remaining)))
                # The tail keeps its original arrival stamp: a size-triggered
                # drain must not restart the age clock for records that are
                # still waiting.
                self._pending[0] = (arrival, part.subset(range(remaining, len(part))))
                remaining = 0
        self._pending_count -= count
        return taken[0] if len(taken) == 1 else TrafficRecords.concatenate(taken)

    def submit(self, records: TrafficRecords) -> List[TrafficRecords]:
        """Buffer ``records`` and return every batch that became ready.

        Zero-record submissions are accepted and buffered nowhere (empty
        batches are routine at stream edges).  The returned list holds zero
        or more size-triggered batches, plus an age-triggered partial batch
        when the oldest pending record has waited past ``flush_interval``.
        """
        if len(records) > 0:
            self._pending.append((self.clock(), records))
            self._pending_count += len(records)
        ready: List[TrafficRecords] = []
        while self._pending_count >= self.max_batch_size:
            ready.append(self._drain(self.max_batch_size))
        overdue = self.poll()
        if overdue is not None:
            ready.append(overdue)
        return ready

    def poll(self) -> Optional[TrafficRecords]:
        """Release the pending partial batch if it is past the age trigger."""
        oldest = self.oldest_arrival
        if oldest is not None and self.clock() - oldest >= self.flush_interval:
            return self._drain(self._pending_count)
        return None

    def flush(self) -> Optional[TrafficRecords]:
        """Release everything that is pending, regardless of triggers."""
        if self._pending_count == 0:
            return None
        return self._drain(self._pending_count)
