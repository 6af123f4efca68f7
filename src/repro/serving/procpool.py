"""Process-parallel scoring for the detection service.

:class:`ProcessWorkerPool` turns a synchronous
:class:`~repro.serving.service.DetectionService` into a concurrent one with
the same submit/poll/flush/report surface:

* micro-batches released by the service's
  :class:`~repro.serving.batching.MicroBatcher` are **scored in child
  processes**, so the Python-level preprocessing, which holds the GIL, runs
  on real cores;
* the **age trigger fires on a background timer** that polls the batcher
  on a schedule, so a lull in traffic cannot strand a partial batch until
  the next ``submit``/``poll`` call;
* monitor updates stay **deterministic**: replies pass through a reorder
  buffer and are committed — rolling quality, throughput, phase
  attribution — strictly in submission order.

Division of labour:

* each **child process** rehydrates a scoring-identical detector from a
  :class:`~repro.serving.lifecycle.DetectorCheckpoint` at startup (weights,
  buffers, preprocessor vocabularies and scaler — the restored
  ``predict(fast=True)`` is bitwise-equal to the parent's), then loops:
  micro-batches arrive pickled on the child's own task queue, are
  preprocessed and scored in the child, and the predicted class indices
  travel back on its result queue with the measured scoring time and the
  batch's unknown-categorical tallies;
* the **parent** keeps every piece of mutable serving state — the
  micro-batcher, the rolling/throughput monitors, phase attribution, the
  vocabulary-drift counters (child tallies are folded back in) — and
  commits results through the reorder buffer.

Because the child's detector is scoring-identical, a pickled batch
unpickles string-for-string identical, and all accounting stays in the
parent on the in-order commit path, every :class:`ServiceReport` produced
through a process pool is record-for-record identical to the synchronous
run — the guarantee the scenario suite and the tier-1 smoke assert bit for
bit.

Latency accounting: the committed :class:`BatchResult` carries the
parent-measured round trip — dispatch to collected reply, on the service
clock — so the serialization/IPC cost is *visible* in the latency columns.
The child's pure scoring time still travels back in the reply.

Hot-swap: :meth:`ProcessWorkerPool.swap_detector` drains the in-flight
batches, swaps the parent engine, then re-ships the challenger's checkpoint
to every child and waits for their acknowledgements.  Per-child task queues
are FIFO, so any batch dispatched after the swap is scored by the new
model — the same batch-boundary semantics as the in-process swap, which is
what keeps a drift-supervised run's counts equal to a drain-stop-restart
run.

Start method: ``"spawn"`` — fork would duplicate the parent's running
threads (age timers, other pools, test watchdogs) into the child mid-lock.
Spawned children re-import :mod:`repro`, so pool startup costs a couple of
seconds; amortise it by keeping one pool alive across streams.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..data.dataset import TrafficRecords
from ..data.generator import StreamBatch
from ..data.schema import get_schema
from .driver import PhaseAttributor, StreamDriver
from .lifecycle.checkpoint import DetectorCheckpoint
from .service import BatchResult, CachedPreprocessor, DetectionService, ServiceReport

__all__ = ["PoolStats", "ProcessWorkerPool"]

#: Collector poll period: how often child liveness is re-checked while the
#: result queue is quiet.
_POLL_INTERVAL = 0.1

#: ``multiprocessing`` start method of every child (see the module notes).
_START_METHOD = "spawn"

#: Seconds to wait for child swap acknowledgements (and for stragglers at
#: close) before giving up with an error.
_HANDSHAKE_TIMEOUT = 120.0


class _Channel:
    """Parent-side endpoint of one child's queue pair.

    One task queue AND one result queue per child: no lock is ever shared
    between two children, so a child killed mid-write can corrupt only its
    own queues (see :meth:`ProcessWorkerPool._spawn_child`).  Every message
    is a pickled tuple; downstream::

        ("init", checkpoint)   ("swap", checkpoint)   ("stop",)
        ("score", sequence, numeric, categorical, labels)

    and upstream::

        ("scored", sequence, class_indices, child_latency, unknown_delta)
        ("error", sequence, traceback_text)
        ("swapped", worker_id, error_text_or_None)
        ("init-error", worker_id, traceback_text)
    """

    def __init__(self, context) -> None:
        self.task_queue = context.Queue()
        self.result_queue = context.Queue()

    def send_init(self, checkpoint) -> None:
        self.task_queue.put(("init", checkpoint))

    def send_swap(self, checkpoint) -> None:
        self.task_queue.put(("swap", checkpoint))

    def send_stop(self) -> None:
        self.task_queue.put(("stop",))

    def send_score(self, sequence: int, records: TrafficRecords) -> None:
        self.task_queue.put(
            (
                "score",
                sequence,
                records.numeric,
                dict(records.categorical),
                records.labels,
            )
        )

    @property
    def reply_reader(self):
        """The result queue's read pipe, for ``connection.wait`` multiplexing."""
        return self.result_queue._reader

    def shutdown(self) -> None:
        """Parent-side teardown at pool close.

        A child that died before draining its task queue leaves the feeder
        thread blocked mid-write; without the cancel, the interpreter's
        atexit handler would join that feeder forever.  On the clean path
        children drain everything up to the stop sentinel first, so nothing
        that matters is ever discarded.
        """
        self.task_queue.cancel_join_thread()
        self.task_queue.close()
        self.result_queue.close()


class _ChannelFactory:
    """``ProcessWorkerPool.transport``: opens each child's channel at spawn
    time.  A seam, not an option — the benchmark replaces ``open_channel``
    on the instance to time ``send_score``."""

    def open_channel(self, context) -> _Channel:
        return _Channel(context)


@dataclass
class _Child:
    """One child scoring process and its channel.

    ``token`` is unique for the pool's whole lifetime — slot indices are
    reused by ``resize()`` (shrink then grow), so everything keyed per child
    (in-flight work, swap acks, failure diagnoses) is keyed by token, never
    by position.
    """

    token: int
    process: "multiprocessing.process.BaseProcess" = field(repr=False)
    channel: _Channel = field(repr=False)


def _worker_main(worker_id, schema_name, task_queue, result_queue):
    """Child-process scoring loop (module-level: spawn pickles it by name).

    The ``Process`` arguments stay deliberately tiny: spawn writes them to
    the child over a pipe from a *blocking* ``os.write`` in the parent, so
    a megabytes-large checkpoint there can wedge ``start()`` forever if the
    child dies before draining the pipe.  The checkpoint instead arrives as
    the first task-queue message (queue puts run on a daemon feeder thread
    and never block the caller).  The messages are those of
    :class:`_Channel`:

    * ``init`` rehydrates the serving detector (always the first message);
      a failure replies ``init-error`` and exits the child;
    * ``score`` rebuilds the :class:`TrafficRecords`, preprocesses and
      predicts, and replies ``scored`` (class indices + scoring time +
      unknown tallies);
    * ``swap`` rehydrates the replacement detector and replies ``swapped``;
    * ``stop`` exits the loop.

    Scoring errors reply ``("error", sequence, traceback_text)`` and keep
    the loop alive; the parent skips the batch and surfaces the error on
    the next join/flush/close.
    """
    schema = get_schema(schema_name)
    detector = None
    pipeline = None
    unknown_seen: Dict[str, int] = {}
    while True:
        message = task_queue.get()
        kind = message[0]
        if kind == "stop":
            break
        if kind in ("init", "swap"):
            try:
                detector = message[1].restore()
                pipeline = CachedPreprocessor(detector.preprocessor)
                unknown_seen = {}
                if kind == "swap":
                    result_queue.put(("swapped", worker_id, None))
            except BaseException:
                # A failed rehydration is fatal either way: limping on with
                # the *retired* detector would silently skew the counts, so
                # the child reports and exits — the parent's liveness check
                # then excludes it from dispatch.
                if kind == "swap":
                    result_queue.put(("swapped", worker_id, traceback.format_exc()))
                else:
                    result_queue.put(("init-error", worker_id, traceback.format_exc()))
                raise SystemExit(1)
            continue
        _, sequence, numeric, categorical, labels = message
        try:
            records = TrafficRecords(
                schema=schema, numeric=numeric, categorical=categorical, labels=labels
            )
            started = time.perf_counter()
            inputs = pipeline.transform_inputs(records)
            probabilities = detector.network.predict(
                inputs, batch_size=max(len(records), 1), fast=True
            )
            predicted = np.argmax(probabilities, axis=-1)
            latency = time.perf_counter() - started
            unknown_now = pipeline.unknown_categoricals
            unknown_delta = {
                column: count - unknown_seen.get(column, 0)
                for column, count in unknown_now.items()
                if count != unknown_seen.get(column, 0)
            }
            unknown_seen = unknown_now
            result_queue.put(("scored", sequence, predicted, latency, unknown_delta))
        except BaseException:
            result_queue.put(("error", sequence, traceback.format_exc()))


@dataclass(frozen=True)
class PoolStats:
    """Live utilization snapshot of a pool (one lock-consistent read).

    The fleet controller's autoscaler polls this every control tick; the
    fields are chosen so a scaling decision needs no further pool access:

    * ``workers`` — current child count (the autoscaler's actuator state);
    * ``queue_depth`` — records buffered in the micro-batcher, not yet
      released as a batch;
    * ``in_flight`` — batches shipped to the children and not yet
      committed: replies still owed plus replies parked in the reorder
      buffer behind a missing earlier sequence;
    * ``busy_fraction`` — owed batches per child, clipped to 1.0: the
      portion of the pool that genuinely has work (1.0 = every child).
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


class ProcessWorkerPool:
    """Concurrent scoring mode for a :class:`DetectionService`, backed by
    child processes.

    Use as a context manager (or call :meth:`start`/:meth:`close`)::

        with ProcessWorkerPool(service, num_workers=4) as pool:
            report = pool.run_stream(stream)

    Parameters
    ----------
    service:
        The wrapped synchronous service; its batcher and monitors stay in
        the parent and are the only copy of the serving state.  The pool
        only changes *where* scoring runs and *when* the age trigger fires.
    num_workers:
        Number of child scoring processes.  Default 2 — spawning a child
        costs a fresh interpreter plus a :mod:`repro` import, so size the
        pool to the cores you have, not higher.
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
        num_workers: int = 2,
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
        self.transport = _ChannelFactory()
        # _submit_lock serialises batcher access and sequence assignment, so
        # sequence order == FIFO drain order.  _commit_cond guards the
        # reorder buffer and the per-child books below; the collector
        # commits under it and waiters block on it.
        self._submit_lock = threading.Lock()
        self._commit_cond = threading.Condition()
        self._next_sequence = 0
        self._next_commit = 0
        self._out_of_order: Dict[int, Optional[BatchResult]] = {}
        self._committed: List[BatchResult] = []
        self._result_callback = result_callback
        self._errors: List[BaseException] = []
        self._timer: Optional[threading.Thread] = None
        self._shutdown = threading.Event()
        # Thread driving a stream through this pool (see _stream_lanes);
        # only it may submit/poll/flush until the stream returns.
        self._stream_owner: Optional[int] = None
        self._started = False
        # Active scoring slots (dispatch routes sequence % len(_slots)) and
        # the graveyard: children retired by resize() that are still
        # draining their FIFO down to the stop sentinel.  Both lists are
        # mutated under _commit_cond so the collector can snapshot them.
        self._slots: List[_Child] = []
        self._graveyard: List[_Child] = []
        self._next_token = 0
        self._collector: Optional[threading.Thread] = None
        # Guarded by _commit_cond: (records, assigned child token, dispatch
        # stamp) awaiting a child's reply, the tokens still owing a swap
        # ack, tokens already diagnosed as dead, and tokens that retired
        # cleanly.
        self._inflight: Dict[int, Tuple[TrafficRecords, int, float]] = {}
        self._swap_awaiting: Set[int] = set()
        self._swap_failures: List[str] = []
        self._failed_workers: Dict[int, str] = {}
        self._retired_clean: Set[int] = set()
        self._stopping = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def running(self) -> bool:
        return self._started

    def _spawn_child(self, checkpoint: DetectorCheckpoint) -> None:
        """Spawn one scoring child and append it to the active slots.

        Each child gets one private channel — one task queue AND one
        result queue: no lock is ever shared between two children, so a
        child killed mid-write (OOM, operator SIGKILL) can corrupt only its
        own channel — the classic shared-queue deadlock (a victim dying
        between ``send_bytes`` and the write-lock release wedges every other
        writer forever) cannot reach the survivors.
        """
        context = multiprocessing.get_context(_START_METHOD)
        token = self._next_token
        self._next_token += 1
        channel = self.transport.open_channel(context)
        process = context.Process(
            target=_worker_main,
            args=(
                token,
                self.service.detector.schema.name,
                channel.task_queue,
                channel.result_queue,
            ),
            name=f"serving-proc-{token}",
            daemon=True,
        )
        process.start()
        # The checkpoint travels on the task queue, not as a Process
        # argument — see _worker_main on why large spawn args can hang.
        channel.send_init(checkpoint)
        child = _Child(token, process, channel)
        with self._commit_cond:
            self._slots.append(child)

    def start(self) -> "ProcessWorkerPool":
        """Spawn the children (each rehydrates the current detector from a
        checkpoint), start the collector thread and the age timer
        (idempotent).  If a spawn fails partway, the children already
        spawned are stopped before the error propagates."""
        if self._started:
            return self
        checkpoint = DetectorCheckpoint.capture(self.service.detector)
        self._shutdown.clear()
        self._stopping = False
        self._failed_workers = {}
        self._retired_clean = set()
        self._slots = []
        self._graveyard = []
        try:
            for _ in range(self.num_workers):
                self._spawn_child(checkpoint)
        except BaseException:
            for child in self._slots:
                child.process.terminate()
                child.process.join(timeout=5.0)
                child.channel.shutdown()
            self._slots = []
            raise
        self._collector = threading.Thread(
            target=self._collector_loop, name="serving-proc-collector", daemon=True
        )
        self._collector.start()
        if self.timer_interval > 0:
            self._timer = threading.Thread(
                target=self._timer_loop, name="serving-age-timer", daemon=True
            )
            self._timer.start()
        self._started = True
        return self

    def close(self) -> None:
        """Drain in-flight batches, stop the children, join everything.

        Per-child queues are FIFO, so the stop sentinel is processed only
        after every batch already dispatched to that child — close() waits
        for those results.  Records still queued below the batch-size
        trigger stay in the batcher (flush() first).  Detaching happens
        under the submit lock, so a concurrent submitter either dispatches
        before the shutdown (and is waited for) or is refused before it
        drains anything from the batcher.  Every channel's queues are
        closed at the end, so none outlives the pool.
        """
        self._shutdown.set()
        if self._timer is not None:
            self._timer.join()
            self._timer = None
        with self._submit_lock:
            if not self._started:
                self._raise_pending_error()
                return
            self._started = False  # refuse new dispatches from here on
            with self._commit_cond:
                self._stopping = True
                children = list(self._slots) + list(self._graveyard)
        for child in self._slots:
            child.channel.send_stop()  # graveyard children already have one
        deadline = time.monotonic() + _HANDSHAKE_TIMEOUT
        for child in children:
            child.process.join(timeout=max(deadline - time.monotonic(), 0.1))
            if child.process.is_alive():
                child.process.terminate()
                child.process.join(timeout=5.0)
        if self._collector is not None:
            self._collector.join()
            self._collector = None
        # A terminated straggler may have taken results with it; commit the
        # holes so a later join() on a restarted pool can never deadlock.
        with self._commit_cond:
            orphaned = sorted(self._inflight)
            for sequence in orphaned:
                self._inflight.pop(sequence)
        if orphaned:
            self._record_error(
                RuntimeError(
                    f"{len(orphaned)} batch(es) were lost when their worker "
                    "process was terminated at close"
                )
            )
            for sequence in orphaned:
                self._commit(sequence, None)
        for child in children:
            child.channel.shutdown()
        with self._commit_cond:
            self._slots = []
            self._graveyard = []
        self._raise_pending_error()

    def __enter__(self) -> "ProcessWorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Dispatch and collection
    # ------------------------------------------------------------------ #
    def _timer_loop(self) -> None:
        while not self._shutdown.wait(self.timer_interval):
            with self._submit_lock:
                if not self._started:  # timer racing a start()/close()
                    continue
                batch = self.service.batcher.poll()
                if batch is not None:
                    self._dispatch(batch)

    def _require_running(self) -> None:
        """Refuse before touching the batcher: draining records and then
        failing to dispatch them would lose traffic silently — with every
        child gone, a drained batch could neither be scored nor re-queued.
        Callers hold ``_submit_lock``, so the check cannot race a concurrent
        close()."""
        if not self._started:
            raise RuntimeError(
                f"{type(self).__name__} is not running; call start() or use "
                "it as a context manager"
            )
        if self._stream_owner not in (None, threading.get_ident()):
            # An external batch committing mid-stream would consume phase
            # records from the attribution FIFO and shift every later
            # record's attribution.
            raise RuntimeError(
                f"{type(self).__name__} is serving a stream; submit/poll/flush "
                "are unavailable until run_stream returns"
            )
        with self._commit_cond:
            if all(
                child.token in self._failed_workers for child in self._slots
            ):
                raise RuntimeError(
                    "every worker process died: "
                    + "; ".join(self._failed_workers.values())
                )

    def _dispatch(self, records: TrafficRecords) -> None:
        # Caller holds _submit_lock and has checked _require_running().
        sequence = self._next_sequence
        self._next_sequence += 1
        # Equal-sized micro-batches round-robin cleanly; the per-child FIFO
        # is also what gives swap_detector its batch-boundary semantics.
        # Workers already diagnosed dead are skipped so one crash does not
        # strand a third of the traffic; if the last survivor dies in the
        # race window after _require_running, the task lands on a dead
        # child's queue and the orphan sweep commits it as an errored hole
        # — records are never silently dropped.
        with self._commit_cond:
            child = self._slots[sequence % len(self._slots)]
            if child.token in self._failed_workers:
                alive = [
                    candidate
                    for candidate in self._slots
                    if candidate.token not in self._failed_workers
                ]
                if alive:
                    child = alive[sequence % len(alive)]
            self._inflight[sequence] = (records, child.token, self.service.clock())
        child.channel.send_score(sequence, records)

    def _collector_loop(self) -> None:
        """Parent-side sink: turn child replies into in-order commits.

        Multiplexes the per-child channels (``connection.wait`` on their
        reply pipes).  Exits once close() has flagged ``_stopping``, every
        child has exited *and* a final drain has emptied the channels — a
        child can flush its last results into its pipe in the instant
        before its exit code becomes visible, and those must not be
        abandoned.  A channel a dying child corrupted mid-write poisons
        only that child's replies; its in-flight work is failed by the
        sweep and every other worker keeps committing.
        """
        readers: dict = {}
        dropped: set = set()
        while True:
            # Re-snapshot the children each pass: resize() appends fresh
            # slots and moves retiring children to the graveyard while the
            # collector runs, and their replies must keep flowing either way.
            with self._commit_cond:
                children = list(self._slots) + list(self._graveyard)
                stopping = self._stopping
            for child in children:
                reader = child.channel.reply_reader
                if reader not in readers and reader not in dropped:
                    readers[reader] = child.channel
            ready = multiprocessing.connection.wait(
                list(readers), timeout=_POLL_INTERVAL
            )
            if not ready:
                if stopping:
                    if all(c.process.exitcode is not None for c in children):
                        self._drain_remaining(
                            [child.channel for child in children]
                        )
                        return
                else:
                    self._check_children()
                continue
            for reader in ready:
                try:
                    message = readers[reader].result_queue.get_nowait()
                except queue_module.Empty:
                    continue
                except EOFError:
                    # The owner exited and its pipe is fully drained — the
                    # normal end of a cleanly retired graveyard child.  An
                    # *unexpected* death is diagnosed by exitcode in
                    # _check_children; nothing is lost by dropping the pipe.
                    del readers[reader]
                    dropped.add(reader)
                    continue
                except BaseException as exc:  # a channel torn by a dead child
                    # Drop the poisoned channel; the owner is dead or dying,
                    # so the next liveness check sweeps its in-flight work.
                    self._record_error(exc)
                    del readers[reader]
                    dropped.add(reader)
                    continue
                self._handle_message(message)

    def _drain_remaining(self, channels) -> None:
        """Consume every reply already flushed to the reply pipes.

        Called once all children have exited: their queue feeder threads
        flushed before exit, so anything in flight is in the pipes now and
        one pass down to Empty per channel collects it all.
        """
        for channel in channels:
            while True:
                try:
                    message = channel.result_queue.get(timeout=_POLL_INTERVAL)
                except BaseException:  # Empty, or a channel torn down mid-drain
                    break
                self._handle_message(message)

    def _handle_message(self, message) -> None:
        kind = message[0]
        if kind == "scored":
            _, sequence, predicted, latency, unknown_delta = message
            self._commit_scored(sequence, predicted, latency, unknown_delta)
        elif kind == "error":
            _, sequence, text = message
            self._record_error(
                RuntimeError(f"worker process scoring failed:\n{text}")
            )
            with self._commit_cond:
                known = self._inflight.pop(sequence, None) is not None
            if known:  # else the orphan sweep already committed the hole
                self._commit(sequence, None)
        elif kind == "swapped":
            _, worker_id, error = message
            with self._commit_cond:
                self._swap_awaiting.discard(worker_id)
                if error is not None:
                    self._swap_failures.append(f"worker {worker_id}: {error}")
                self._commit_cond.notify_all()
        elif kind == "init-error":
            # The child exits right after this; the liveness check will
            # fail its sequences — this just attaches the real cause.
            _, worker_id, text = message
            self._record_error(
                RuntimeError(
                    f"worker process {worker_id} failed to rehydrate its "
                    f"detector:\n{text}"
                )
            )

    def _commit_scored(self, sequence, predicted, child_latency, unknown_delta) -> None:
        """Assemble the BatchResult the synchronous path would have built.

        The child did preprocessing + inference; labels are encoded (and
        predictions decoded) here against the parent pipeline, and the
        child's unknown-categorical tallies fold into the parent's counters
        so the drift report matches a synchronous run exactly.  ``finished``
        is stamped with the parent service's clock — the only timeline the
        throughput monitor knows — and the latency is the parent-measured
        round trip (dispatch to collected reply, same clock), so IPC
        cost shows up in the latency columns; ``child_latency`` (the pure
        scoring time) is informational.
        """
        with self._commit_cond:
            entry = self._inflight.pop(sequence, None)
        if entry is None:
            # Already written off (its child was diagnosed dead after the
            # reply was queued); the sequence was committed as a hole.
            return
        records, _, dispatched_at = entry
        pipeline = self.service.pipeline
        result: Optional[BatchResult]
        try:
            if unknown_delta:
                pipeline.absorb_unknown_counts(unknown_delta)
            finished = self.service.clock()
            result = BatchResult(
                size=len(records),
                latency=float(finished - dispatched_at),
                predictions=pipeline.decode_labels(predicted),
                class_indices=predicted,
                true_indices=pipeline.encode_labels(records),
                finished=finished,
            )
        except BaseException as exc:
            result = None
            self._record_error(exc)
        self._commit(sequence, result)

    def _record_error(self, error: BaseException) -> None:
        """Stash an error for re-raise on the next join/flush/close."""
        with self._commit_cond:
            self._errors.append(error)

    def _commit(self, sequence: int, result: Optional[BatchResult]) -> None:
        """Feed one batch into the reorder buffer; commit what's due.

        The ordering seam: the collector thread calls it with each reply,
        the orphan sweeps with the holes of lost batches.  Results enter in
        any order; monitor updates and callbacks leave strictly in
        submission order.  A ``None`` result (the batch errored or was
        lost) is skipped but still advances the commit cursor, so one
        failure cannot stall every later batch.
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

    def _check_children(self) -> None:
        """Fail fast when a child died: a sequence dispatched to a dead
        child would otherwise block join()/flush() forever.  Each in-flight
        sequence remembers which child it was dispatched to, so the orphans
        are exactly computable — including any dispatched to an
        already-failed worker through the liveness-check race window.

        A graveyard child exiting with code 0 is the *expected* end of a
        clean retirement (its stop sentinel drained behind its last batch);
        any other exit — an active slot exiting at all, or a retiring child
        exiting non-zero — is a failure and its in-flight work is swept.
        """
        with self._commit_cond:
            active = list(self._slots)
            graveyard = list(self._graveyard)
        for child, retiring in [(c, False) for c in active] + [
            (c, True) for c in graveyard
        ]:
            if (
                child.process.exitcode is None
                or child.token in self._failed_workers
                or child.token in self._retired_clean
            ):
                continue
            with self._commit_cond:
                stopping = self._stopping
            if (retiring or stopping) and child.process.exitcode == 0:
                # Expected ends: a retiring child drained its stop sentinel,
                # or an active child obeyed the shutdown stop during close().
                with self._commit_cond:
                    self._retired_clean.add(child.token)
                continue
            reason = (
                f"worker process {child.token} exited unexpectedly "
                f"(exitcode {child.process.exitcode})"
            )
            with self._commit_cond:
                self._failed_workers[child.token] = reason
                # A swap ack that will never arrive must not hang the
                # swapper; a worker that already acked owes nothing.
                if child.token in self._swap_awaiting:
                    self._swap_awaiting.discard(child.token)
                    self._swap_failures.append(reason)
                self._commit_cond.notify_all()
            self._record_error(RuntimeError(reason))
        # Sweep every poll, not only at diagnosis time: the sweep also has
        # to catch work routed to a dead child before its failure was known.
        with self._commit_cond:
            if not self._failed_workers:
                return
            orphaned = sorted(
                sequence
                for sequence, (_, worker_id, _) in self._inflight.items()
                if worker_id in self._failed_workers
            )
            for sequence in orphaned:
                self._inflight.pop(sequence)
        for sequence in orphaned:
            self._commit(sequence, None)

    # ------------------------------------------------------------------ #
    # Utilization
    # ------------------------------------------------------------------ #
    def stats(self) -> PoolStats:
        """One consistent :class:`PoolStats` snapshot (the autoscaler input).

        Counted from the pool's own books, not from sequence-counter
        distance (``dispatched - next_commit``): that distance cannot see
        *where* a dispatched batch is — batches shipped into per-child task
        queues, batches being scored, and batches whose replies already
        arrived but are parked in the reorder buffer behind a missing
        earlier sequence all look alike, so head-of-line blocking would
        read as a saturated pool while the children are idle, and the
        fleet autoscaler would scale from that stale backlog.
        ``in_flight`` is the replies the children still owe plus the
        replies held for in-order commit; ``busy_fraction`` counts the
        *owed* batches only.
        """
        with self._submit_lock:
            workers = self.num_workers
            queue_depth = self.service.batcher.pending_count
        with self._commit_cond:
            shipped = len(self._inflight)      # shipped to a child, no reply yet
            buffered = len(self._out_of_order)  # replied, awaiting in-order commit
        return PoolStats(
            workers=workers,
            queue_depth=queue_depth,
            in_flight=shipped + buffered,
            busy_fraction=min(shipped, workers) / workers,
        )

    # ------------------------------------------------------------------ #
    # Autoscaling
    # ------------------------------------------------------------------ #
    def resize(self, num_workers: int) -> None:
        """Grow or shrink the child-process fleet on batch boundaries.

        Growing spawns fresh children that rehydrate the *currently
        serving* detector from a new checkpoint (each with its own channel).
        Shrinking retires the trailing slots: each retiring child receives a
        stop sentinel behind whatever batches it already owns (per-child
        queues are FIFO), finishes them, replies and exits — nothing in
        flight is dropped, and because every reply still commits through the reorder buffer in
        submission order, reports stay bit-equal to a fixed-size run of the
        same stream.
        """
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        num_workers = int(num_workers)
        with self._submit_lock:
            if not self._started:
                raise RuntimeError(
                    f"{type(self).__name__} is not running; call start() "
                    "before resize()"
                )
            if num_workers == self.num_workers:
                return
            if num_workers > self.num_workers:
                checkpoint = DetectorCheckpoint.capture(self.service.detector)
                for _ in range(num_workers - self.num_workers):
                    self._spawn_child(checkpoint)
            else:
                with self._commit_cond:
                    retiring = self._slots[num_workers:]
                    del self._slots[num_workers:]
                    self._graveyard.extend(retiring)
                for child in retiring:
                    child.channel.send_stop()
            self.num_workers = num_workers

    # ------------------------------------------------------------------ #
    # Hot-swap
    # ------------------------------------------------------------------ #
    def swap_detector(self, detector):
        """Swap the parent engine and re-ship the checkpoint to the children.

        Drains every dispatched batch first, so the swap lands on a batch
        boundary: nothing scored by the old engine commits after it, and —
        because each child applies the swap message before any later task on
        its FIFO queue — nothing dispatched afterwards is scored by the old
        model.  Blocks until every child acknowledges the rehydration and
        raises if any of them failed, leaving no silent model skew.
        Returns the retired detector, like the in-process swap.
        """
        self.join()
        with self._submit_lock:
            self._require_running()
            retired = self.service.swap_detector(detector)
            checkpoint = DetectorCheckpoint.capture(detector)
            with self._commit_cond:
                # Only surviving *active* children can acknowledge (join()
                # above has already surfaced any worker death to the caller;
                # graveyard children are exiting and never score another
                # batch, so they need no challenger).
                recipients = [
                    child
                    for child in self._slots
                    if child.token not in self._failed_workers
                ]
                self._swap_awaiting = {child.token for child in recipients}
                self._swap_failures = []
            for child in recipients:
                child.channel.send_swap(checkpoint)
        with self._commit_cond:
            acknowledged = self._commit_cond.wait_for(
                lambda: not self._swap_awaiting, _HANDSHAKE_TIMEOUT
            )
            failures = list(self._swap_failures)
        if not acknowledged:
            raise TimeoutError(
                "child processes did not acknowledge the detector swap "
                f"within {_HANDSHAKE_TIMEOUT} s"
            )
        if failures:
            raise RuntimeError(
                "detector swap failed in child process(es): " + "; ".join(failures)
            )
        return retired

    # ------------------------------------------------------------------ #
    # Public API (mirrors the synchronous service)
    # ------------------------------------------------------------------ #
    def submit(self, records: TrafficRecords) -> List[BatchResult]:
        """Enqueue records, dispatching every due micro-batch to the children.

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
        synchronous run record for record.  Starts and stops the pool
        automatically when not already running.  The stream owns the pool
        for the duration: work queued beforehand is drained to the previous
        sink first, and ``submit``/``poll``/``flush`` calls from other
        threads are rejected until the run returns (they would corrupt the
        phase attribution).  A standing ``result_callback`` keeps receiving
        every committed result.
        """
        with StreamDriver(self) as driver:
            return driver.run(stream, max_batches)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def transport_counters(self) -> Dict[str, int]:
        """Batches shipped to the children over this pool's lifetime, in the
        shape the benchmark reads: every batch travels pickled on a queue
        (``inline_batches``); ``slot_batches`` is always 0."""
        with self._submit_lock:
            return {"slot_batches": 0, "inline_batches": self._next_sequence}
