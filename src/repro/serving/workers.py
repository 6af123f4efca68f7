"""Worker-pool execution for the detection service.

:class:`WorkerPool` turns a synchronous
:class:`~repro.serving.service.DetectionService` into a concurrent one:

* micro-batches released by the service's :class:`~repro.serving.batching.MicroBatcher`
  are **scored on a thread pool** (``DetectionService.score`` is pure, so
  any number of workers can run it at once — numpy releases the GIL inside
  the heavy kernels);
* the **age trigger fires on a background timer** that polls the batcher on
  a schedule, so a lull in traffic can no longer strand a partial batch
  until the next ``submit``/``poll`` call;
* monitor updates stay **deterministic**: scored batches pass through a
  reorder buffer and are committed — rolling quality, throughput, phase
  attribution — strictly in submission order.

Ordering guarantee: every report produced through a worker pool is
record-for-record identical to the report of a synchronous run over the
same stream; only the wall-clock numbers differ.  The throughput headline
reflects the concurrency because :class:`~repro.serving.monitor.ThroughputMonitor`
divides by the overlap-merged busy time, under which simultaneous batches
share wall-clock seconds instead of stacking their latencies.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional

from ..data.dataset import TrafficRecords
from ..data.generator import StreamBatch
from .driver import PhaseAttributor, StreamDriver
from .service import BatchResult, DetectionService, ServiceReport

__all__ = ["PoolStats", "WorkerPool"]


@dataclass(frozen=True)
class PoolStats:
    """Live utilization snapshot of a worker pool (one lock-consistent read).

    The fleet controller's autoscaler polls this every control tick; the
    fields are chosen so a scaling decision needs no further pool access:

    * ``workers`` — current worker count (the autoscaler's actuator state);
    * ``queue_depth`` — records buffered in the micro-batcher, not yet
      released as a batch;
    * ``in_flight`` — batches dispatched to workers but not yet committed
      through the reorder buffer;
    * ``busy_fraction`` — in-flight batches per worker, clipped to 1.0: the
      pool's instantaneous saturation (1.0 = every worker has work).
    """

    workers: int
    queue_depth: int
    in_flight: int
    busy_fraction: float

    @property
    def backlog_per_worker(self) -> float:
        """In-flight batches plus queued records' worth, per worker."""
        return (self.in_flight + (1.0 if self.queue_depth else 0.0)) / max(
            self.workers, 1
        )


class WorkerPool:
    """Concurrent scoring mode for a :class:`DetectionService`.

    Use as a context manager (or call :meth:`start`/:meth:`close`)::

        with WorkerPool(service, num_workers=4) as pool:
            report = pool.run_stream(stream)

    Parameters
    ----------
    service:
        The wrapped synchronous service.  Its batcher, monitors and
        preprocessing pipeline are shared; the pool only changes *where*
        scoring runs and *when* the age trigger fires.
    num_workers:
        Number of scoring threads.
    timer_interval:
        Period of the background age-trigger timer.  Defaults to half the
        batcher's flush interval (at least 1 ms); pass ``0`` to disable the
        timer, in which case age triggers fire only inside
        :meth:`submit`/:meth:`poll`, like the synchronous service.
    result_callback:
        Optional hook invoked with every committed :class:`BatchResult`,
        in submission order.  When set, results are delivered to the
        callback instead of accumulating for :meth:`collect`.
    """

    def __init__(
        self,
        service: DetectionService,
        num_workers: int = 4,
        timer_interval: Optional[float] = None,
        result_callback: Optional[Callable[[BatchResult], None]] = None,
    ) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self.service = service
        self.num_workers = int(num_workers)
        if timer_interval is None:
            timer_interval = max(service.batcher.flush_interval / 2.0, 0.001)
        if timer_interval < 0:
            raise ValueError("timer_interval must be non-negative")
        self.timer_interval = float(timer_interval)
        # _submit_lock serialises batcher access and sequence assignment, so
        # sequence order == FIFO drain order.  _commit_cond guards the
        # reorder buffer; workers commit under it and waiters block on it.
        self._submit_lock = threading.Lock()
        self._commit_cond = threading.Condition()
        self._next_sequence = 0
        self._next_commit = 0
        self._out_of_order: Dict[int, Optional[BatchResult]] = {}
        self._committed: List[BatchResult] = []
        self._result_callback = result_callback
        self._errors: List[BaseException] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        # Executors replaced by resize(): their already-queued batches still
        # score and commit through the reorder buffer; close() joins them.
        self._retired_executors: List[ThreadPoolExecutor] = []
        self._timer: Optional[threading.Thread] = None
        self._shutdown = threading.Event()
        # Thread driving a stream through this pool (see _stream_lanes);
        # only it may submit/poll/flush until the stream returns.
        self._stream_owner: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def running(self) -> bool:
        return self._executor is not None

    def _start_timer(self) -> None:
        if self.timer_interval > 0:
            self._timer = threading.Thread(
                target=self._timer_loop, name="serving-age-timer", daemon=True
            )
            self._timer.start()

    def _stop_timer(self) -> None:
        if self._timer is not None:
            self._timer.join()
            self._timer = None

    def start(self) -> "WorkerPool":
        """Start the scoring threads and the age-trigger timer (idempotent)."""
        if self._executor is None:
            self._shutdown.clear()
            self._executor = ThreadPoolExecutor(
                max_workers=self.num_workers, thread_name_prefix="serving-worker"
            )
            self._start_timer()
        return self

    def close(self) -> None:
        """Stop the timer, wait for in-flight batches and release the threads.

        Records still buffered below the batch-size trigger stay queued (use
        :meth:`flush` first to force them through).  Detaching the executor
        happens under the submit lock, so a concurrent submitter either
        dispatches before the shutdown (and is waited for) or is refused
        before it drains anything from the batcher.
        """
        self._shutdown.set()
        self._stop_timer()
        with self._submit_lock:
            executor, self._executor = self._executor, None
            retired, self._retired_executors = self._retired_executors, []
        for old in retired:
            old.shutdown(wait=True)
        if executor is not None:
            executor.shutdown(wait=True)
        self._raise_pending_error()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _timer_loop(self) -> None:
        while not self._shutdown.wait(self.timer_interval):
            self._dispatch_due()

    def _dispatch_due(self) -> None:
        with self._submit_lock:
            if not self.running:  # timer racing a close(): nothing to do
                return
            batch = self.service.batcher.poll()
            if batch is not None:
                self._dispatch(batch)

    def _require_running(self) -> None:
        """Refuse before touching the batcher: draining records and then
        failing to dispatch them would lose traffic silently.  Callers hold
        ``_submit_lock``, so the check cannot race a concurrent close()."""
        if not self.running:
            raise RuntimeError(
                f"{type(self).__name__} is not running; call start() or use "
                "it as a context manager"
            )
        if self._stream_owner not in (None, threading.get_ident()):
            # An external batch committing mid-stream would consume phase
            # records from the attribution FIFO and shift every later
            # record's attribution.
            raise RuntimeError(
                "WorkerPool is serving a stream; submit/poll/flush are "
                "unavailable until run_stream returns"
            )

    def _dispatch(self, records: TrafficRecords) -> None:
        # Caller holds _submit_lock and has checked _require_running().
        sequence = self._next_sequence
        self._next_sequence += 1
        self._executor.submit(self._score_and_commit, sequence, records)

    def _score_and_commit(self, sequence: int, records: TrafficRecords) -> None:
        result: Optional[BatchResult]
        try:
            result = self.service.score(records)
        except BaseException as exc:  # surfaced on join/flush/close
            result = None
            self._record_error(exc)
        self._commit(sequence, result)

    def _record_error(self, error: BaseException) -> None:
        """Stash an error for re-raise on the next join/flush/close."""
        with self._commit_cond:
            self._errors.append(error)

    def _commit(self, sequence: int, result: Optional[BatchResult]) -> None:
        """Feed one scored batch into the reorder buffer; commit what's due.

        This is the ordering seam shared by every concurrent backend: the
        thread pool calls it from its scoring threads, the process pool from
        its result-collector thread.  Results enter in any order; monitor
        updates and callbacks leave strictly in submission order.  A ``None``
        result (the batch errored) is skipped but still advances the commit
        cursor, so one failure cannot stall every later batch.
        """
        with self._commit_cond:
            self._out_of_order[sequence] = result
            while self._next_commit in self._out_of_order:
                ready = self._out_of_order.pop(self._next_commit)
                self._next_commit += 1
                if ready is not None:
                    try:
                        self.service.observe(ready)
                        if self._result_callback is not None:
                            self._result_callback(ready)
                        else:
                            self._committed.append(ready)
                    except BaseException as exc:  # keep the buffer draining
                        self._errors.append(exc)
            self._commit_cond.notify_all()

    # ------------------------------------------------------------------ #
    # Autoscaling seams
    # ------------------------------------------------------------------ #
    def resize(self, num_workers: int) -> None:
        """Change the worker count without disturbing in-flight batches.

        Batches already dispatched keep running on the previous executor
        (retired with ``shutdown(wait=False)`` and joined at close); batches
        dispatched after the call land on the replacement.  Because every
        result still commits through the same reorder buffer in submission
        order, a resize is invisible to the reports — only wall-clock
        concurrency changes.  This is the actuator the fleet controller's
        autoscaler drives; it works mid-stream (the controller resizes pools
        it is feeding via :meth:`submit`).
        """
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        num_workers = int(num_workers)
        with self._submit_lock:
            if not self.running:
                raise RuntimeError(
                    f"{type(self).__name__} is not running; call start() "
                    "before resize()"
                )
            if num_workers == self.num_workers:
                return
            old = self._executor
            self._executor = ThreadPoolExecutor(
                max_workers=num_workers, thread_name_prefix="serving-worker"
            )
            self.num_workers = num_workers
            old.shutdown(wait=False)
            self._retired_executors.append(old)

    def stats(self) -> PoolStats:
        """One consistent :class:`PoolStats` snapshot (the autoscaler input)."""
        with self._submit_lock:
            workers = self.num_workers
            queue_depth = self.service.batcher.pending_count
            dispatched = self._next_sequence
        with self._commit_cond:
            in_flight = max(dispatched - self._next_commit, 0)
        return PoolStats(
            workers=workers,
            queue_depth=queue_depth,
            in_flight=in_flight,
            busy_fraction=min(in_flight, workers) / workers,
        )

    # ------------------------------------------------------------------ #
    # Public API (mirrors the synchronous service)
    # ------------------------------------------------------------------ #
    def submit(self, records: TrafficRecords) -> List[BatchResult]:
        """Enqueue records, dispatching every due micro-batch to the workers.

        Returns the results committed since the last call — which, because
        scoring is asynchronous, are generally *older* batches, not the ones
        just submitted.
        """
        with self._submit_lock:
            self._require_running()
            for batch in self.service.batcher.submit(records):
                self._dispatch(batch)
        return self.collect()

    def poll(self) -> List[BatchResult]:
        """Dispatch the pending partial batch if overdue; collect results."""
        with self._submit_lock:
            self._require_running()
            batch = self.service.batcher.poll()
            if batch is not None:
                self._dispatch(batch)
        return self.collect()

    def collect(self) -> List[BatchResult]:
        """Drain the committed results accumulated so far (non-blocking)."""
        with self._commit_cond:
            committed, self._committed = self._committed, []
        return committed

    def join(self, timeout: Optional[float] = None) -> None:
        """Block until every batch dispatched so far has been committed."""
        with self._submit_lock:
            target = self._next_sequence
        with self._commit_cond:
            if not self._commit_cond.wait_for(
                lambda: self._next_commit >= target, timeout
            ):
                raise TimeoutError(
                    f"worker pool did not drain within {timeout} s "
                    f"({target - self._next_commit} batches outstanding)"
                )
        self._raise_pending_error()

    def flush(self) -> List[BatchResult]:
        """Force the queued tail through, wait for everything, collect."""
        with self._submit_lock:
            self._require_running()
            batch = self.service.batcher.flush()
            if batch is not None:
                self._dispatch(batch)
        self.join()
        return self.collect()

    def report(self) -> ServiceReport:
        """The wrapped service's current report."""
        return self.service.report()

    def swap_detector(self, detector):
        """Hot-swap the wrapped service's engine; returns the retired detector.

        Drains every dispatched batch first (:meth:`join`), so no batch
        scored by the old engine commits after the swap — the same boundary
        :class:`~repro.serving.lifecycle.DriftSupervisor` flushes to.  This
        is the swap seam shared by all pool backends; the process pool
        overrides it to also re-ship the new checkpoint to its children.
        """
        self.join()
        return self.service.swap_detector(detector)

    def _raise_pending_error(self) -> None:
        with self._commit_cond:
            if not self._errors:
                return
            errors, self._errors = self._errors, []
        error = errors[0]
        if len(errors) > 1:
            error.add_note(
                f"{len(errors) - 1} additional worker error(s) occurred: "
                + "; ".join(repr(extra) for extra in errors[1:3])
            )
        raise error

    # ------------------------------------------------------------------ #
    # Stream-driver protocol (see repro.serving.driver): the pool is an
    # engine with one lane, itself.
    @contextmanager
    def _stream_lanes(self):
        """Own the pool for one stream; yields its one lane.

        Starts (and afterwards closes) a pool that is not running.  Work
        queued before the stream, on this pool or directly on the service,
        belongs to no phase: it is drained first, through the standing
        callback or into the :meth:`collect` buffer, where it stays
        collectable after the stream.  While the stream runs only the
        driving thread may submit/poll/flush, and every commit reaches both
        the driver (through the return values) and the standing callback.
        """
        owns_lifecycle = not self.running
        if owns_lifecycle:
            self.start()
        me = threading.get_ident()
        standing = self._result_callback
        stashed: List[BatchResult] = []

        def tee(result: BatchResult) -> None:  # runs under _commit_cond
            self._committed.append(result)
            if standing is not None:
                standing(result)

        try:
            with self._submit_lock:
                self._require_running()
                self._stream_owner = me
            stashed = self.flush()
            with self._commit_cond:
                self._result_callback = tee
            yield [(self, PhaseAttributor(self.service.pipeline.normal_index))]
        finally:
            with self._commit_cond:
                self._result_callback = standing
                self._committed[:0] = stashed
            with self._submit_lock:
                if self._stream_owner == me:
                    self._stream_owner = None
            if owns_lifecycle:
                self.close()

    def _stream_report(self, phase_reports) -> ServiceReport:
        return replace(self.report(), phase_reports=phase_reports)

    def run_stream(
        self,
        stream: Iterable[StreamBatch],
        max_batches: Optional[int] = None,
    ) -> ServiceReport:
        """Serve a :class:`~repro.data.generator.TrafficStream` concurrently.

        Identical semantics to :meth:`DetectionService.run_stream` — the
        in-order commit makes the rolling and per-phase reports match a
        synchronous run record for record — at worker-pool wall-clock speed.
        Starts and stops the pool automatically when not already running.
        The stream owns the pool for the duration: work queued beforehand
        is drained to the previous sink first, and ``submit``/``poll``/
        ``flush`` calls from other threads are rejected until the run
        returns (they would corrupt the phase attribution).  A standing
        ``result_callback`` keeps receiving every committed result.
        """
        with StreamDriver(self) as driver:
            return driver.run(stream, max_batches)
