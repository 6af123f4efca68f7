"""Process-parallel scoring for the detection service.

:class:`ProcessWorkerPool` is the fourth execution model: the same
submit/poll/flush/report surface as the thread-based
:class:`~repro.serving.workers.WorkerPool`, with scoring moved into **child
processes** so the Python-level preprocessing — which holds the GIL and
caps the thread pool at single-core throughput — runs on real cores.

Division of labour:

* each **child process** rehydrates a scoring-identical detector from a
  :class:`~repro.serving.lifecycle.DetectorCheckpoint` at startup (weights,
  buffers, preprocessor vocabularies and scaler — the restored
  ``predict(fast=True)`` is bitwise-equal to the parent's), then loops:
  micro-batches arrive over the pool's :class:`~repro.serving.transport.Transport`
  (pickled arrays on the queue transport, preallocated shared-memory slots
  on the shm transport), are preprocessed and scored in the child, and the
  predicted class indices travel back with the measured scoring time and
  the batch's unknown-categorical tallies;
* the **parent** keeps every piece of mutable serving state — the
  micro-batcher, the rolling/throughput monitors, phase attribution, the
  vocabulary-drift counters (child tallies are folded back in) — and
  commits results through the :class:`WorkerPool` reorder buffer, strictly
  in submission order.

Because the child's detector is scoring-identical, the transport decodes
batches string-for-string identically (see :mod:`repro.serving.transport`),
and all accounting stays in the parent on the in-order commit path, every
:class:`ServiceReport` produced through a process pool is
record-for-record identical to the synchronous run — the guarantee the
scenario suite and the tier-1 smoke assert bit for bit, on both transports.

Latency accounting: the committed :class:`BatchResult` carries the
parent-measured round trip — dispatch to collected reply, on the service
clock — so the transport's serialization/IPC cost is *visible* in the
latency columns (that is the number the shm data plane is built to cut).
The child's pure scoring time still travels back in the reply for the
transports' result contract.

Hot-swap: :meth:`ProcessWorkerPool.swap_detector` drains the in-flight
batches, swaps the parent engine, then re-ships the challenger's checkpoint
to every child and waits for their acknowledgements.  Per-child task queues
are FIFO on every transport, so any batch dispatched after the swap is
scored by the new model — the same batch-boundary semantics as the
in-process swap, which is what keeps a drift-supervised run's counts equal
to a drain-stop-restart run.

Start method: ``"spawn"`` by default — fork would duplicate the parent's
running threads (age timers, other pools, test watchdogs) into the child
mid-lock.  Spawned children re-import :mod:`repro`, so pool startup costs a
couple of seconds; amortise it by keeping one pool alive across streams.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ..data.dataset import TrafficRecords
from ..data.schema import get_schema
from .lifecycle.checkpoint import DetectorCheckpoint
from .service import BatchResult, CachedPreprocessor, DetectionService
from .transport import Channel, child_endpoint, resolve_transport
from .workers import PoolStats, WorkerPool

__all__ = ["ProcessWorkerPool"]

#: Collector poll period: how often child liveness is re-checked while the
#: result queue is quiet.
_POLL_INTERVAL = 0.1


@dataclass
class _Child:
    """One child scoring process and its transport channel.

    ``token`` is unique for the pool's whole lifetime — slot indices are
    reused by ``resize()`` (shrink then grow), so everything keyed per child
    (in-flight work, swap acks, failure diagnoses) is keyed by token, never
    by position.
    """

    token: int
    process: "multiprocessing.process.BaseProcess" = field(repr=False)
    channel: Channel = field(repr=False)


def _worker_main(worker_id, schema_name, endpoint_spec):
    """Child-process scoring loop (module-level: spawn pickles it by name).

    The ``Process`` arguments stay deliberately tiny: spawn writes them to
    the child over a pipe from a *blocking* ``os.write`` in the parent, so
    a megabytes-large checkpoint there can wedge ``start()`` forever if the
    child dies before draining the pipe.  The checkpoint instead arrives as
    the first task-queue message (queue puts run on a daemon feeder thread
    and never block the caller).

    ``endpoint_spec`` rebuilds the transport's child endpoint
    (:func:`repro.serving.transport.child_endpoint`), which normalizes
    every parent message to:

    * ``("init", checkpoint)`` — rehydrate the serving detector (always the
      first message); a failure replies ``init-error`` and exits the child;
    * ``("score", sequence, load)`` — ``load(schema)`` materializes the
      :class:`TrafficRecords` (unpickled payload or decoded shm slot);
      preprocess + predict, reply via ``send_scored`` (class indices +
      scoring time + unknown tallies, written to the slot's result region
      on the shm transport);
    * ``("swap", checkpoint)`` — rehydrate the replacement detector, reply
      ``("swapped", worker_id, error_text_or_None)``;
    * ``("stop",)`` — exit the loop.

    Scoring errors reply ``("error", sequence, traceback_text)`` and keep
    the loop alive; the parent skips the batch and surfaces the error on
    the next join/flush/close.
    """
    schema = get_schema(schema_name)
    endpoint = child_endpoint(endpoint_spec)
    try:
        _worker_loop(endpoint, schema, worker_id)
    finally:
        # Release the endpoint's shm mapping before interpreter teardown:
        # live numpy exports would make SharedMemory.__del__'s mmap.close()
        # raise (and log) BufferError during shutdown.
        endpoint.close()


def _worker_loop(endpoint, schema, worker_id) -> None:
    detector = None
    pipeline = None
    unknown_seen: Dict[str, int] = {}
    while True:
        message = endpoint.receive()
        kind = message[0]
        if kind == "stop":
            break
        if kind in ("init", "swap"):
            try:
                detector = message[1].restore()
                pipeline = CachedPreprocessor(detector.preprocessor)
                unknown_seen = {}
                if kind == "swap":
                    endpoint.send_swapped(worker_id, None)
            except BaseException:
                # A failed rehydration is fatal either way: limping on with
                # the *retired* detector would silently skew the counts, so
                # the child reports and exits — the parent's liveness check
                # then excludes it from dispatch.
                if kind == "swap":
                    endpoint.send_swapped(worker_id, traceback.format_exc())
                else:
                    endpoint.send_init_error(worker_id, traceback.format_exc())
                raise SystemExit(1)
            continue
        sequence = message[1]
        try:
            records = message[2](schema)
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
            endpoint.send_scored(sequence, predicted, latency, unknown_delta)
        except BaseException:
            endpoint.send_error(sequence, traceback.format_exc())


class ProcessWorkerPool(WorkerPool):
    """Concurrent scoring mode backed by child processes.

    Drop-in for :class:`WorkerPool`::

        with ProcessWorkerPool(service, num_workers=4, transport="shm") as pool:
            report = pool.run_stream(stream)

    Parameters
    ----------
    service:
        The wrapped synchronous service; its batcher and monitors stay in
        the parent and are the only copy of the serving state.
    num_workers:
        Number of child scoring processes.  Default 2 — spawning a child
        costs a fresh interpreter plus a :mod:`repro` import, so size the
        pool to the cores you have, not higher.
    timer_interval:
        Background age-trigger period (see :class:`WorkerPool`).
    result_callback:
        In-order committed-result hook (see :class:`WorkerPool`).
    start_method:
        ``multiprocessing`` start method; ``"spawn"`` (default) is safe in
        threaded parents, ``"fork"``/``"forkserver"`` start faster where the
        caller knows no thread holds a lock.
    handshake_timeout:
        Seconds to wait for child swap acknowledgements (and for stragglers
        at close) before giving up with an error.
    transport:
        The parent↔child data plane: ``"queue"`` (pickled per-child queues,
        the default and equivalence oracle) or ``"shm"`` (preallocated
        shared-memory slot rings; only control tokens cross the queues) —
        or a ready-made :class:`~repro.serving.transport.Transport`
        instance for custom slot sizing.  See
        :mod:`repro.serving.transport`.
    """

    def __init__(
        self,
        service: DetectionService,
        num_workers: int = 2,
        timer_interval: Optional[float] = None,
        result_callback: Optional[Callable[[BatchResult], None]] = None,
        start_method: str = "spawn",
        handshake_timeout: float = 120.0,
        transport="queue",
    ) -> None:
        super().__init__(
            service,
            num_workers=num_workers,
            timer_interval=timer_interval,
            result_callback=result_callback,
        )
        if start_method not in multiprocessing.get_all_start_methods():
            raise ValueError(
                f"unknown start method {start_method!r}; this platform "
                f"supports {multiprocessing.get_all_start_methods()}"
            )
        self.start_method = start_method
        self.handshake_timeout = float(handshake_timeout)
        # Resolved eagerly so an unknown transport name fails at
        # construction, not at start() deep inside a stream run.
        self.transport = resolve_transport(transport, service)
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
        # Data-plane counters folded in from channels at close(), so
        # transport_counters() stays meaningful after run_stream() (which
        # closes the pool) has returned.
        self._transport_totals: Dict[str, int] = {
            "slot_batches": 0, "inline_batches": 0,
        }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def running(self) -> bool:
        return self._started

    def _spawn_child(self, checkpoint: DetectorCheckpoint) -> None:
        """Spawn one scoring child and append it to the active slots.

        The transport opens one private channel per child — one task queue
        AND one result queue (plus, on the shm transport, one slot ring):
        no lock is ever shared between two children, so a child killed
        mid-write (OOM, operator SIGKILL) can corrupt only its own channel
        — the classic shared-queue deadlock (a victim dying between
        ``send_bytes`` and the write-lock release wedges every other writer
        forever) cannot reach the survivors.
        """
        context = multiprocessing.get_context(self.start_method)
        token = self._next_token
        self._next_token += 1
        channel = self.transport.open_channel(context)
        process = context.Process(
            target=_worker_main,
            args=(
                token,
                self.service.detector.schema.name,
                channel.child_spec(),
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
        checkpoint), start the collector thread and the age timer."""
        if self._started:
            return self
        checkpoint = DetectorCheckpoint.capture(self.service.detector)
        self._shutdown.clear()
        self._stopping = False
        self._failed_workers = {}
        self._retired_clean = set()
        self._slots = []
        self._graveyard = []
        for _ in range(self.num_workers):
            self._spawn_child(checkpoint)
        self._collector = threading.Thread(
            target=self._collector_loop, name="serving-proc-collector", daemon=True
        )
        self._collector.start()
        self._start_timer()
        self._started = True
        return self

    def close(self) -> None:
        """Drain in-flight batches, stop the children, join everything.

        Per-child queues are FIFO, so the stop sentinel is processed only
        after every batch already dispatched to that child — close() waits
        for those results like the thread pool does.  Records still queued
        below the batch-size trigger stay in the batcher (flush() first).
        Every channel is shut down at the end — queues closed, slot
        segments unlinked — so no transport resource outlives the pool.
        """
        self._shutdown.set()
        self._stop_timer()
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
        deadline = time.monotonic() + self.handshake_timeout
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
            self._transport_totals["slot_batches"] += child.channel.slot_batches
            self._transport_totals["inline_batches"] += child.channel.inline_batches
        with self._commit_cond:
            self._slots = []
            self._graveyard = []
        self._raise_pending_error()

    # ------------------------------------------------------------------ #
    # Dispatch and collection
    # ------------------------------------------------------------------ #
    def _require_running(self) -> None:
        # Refuse *before* the caller drains the batcher (the base-class
        # invariant): with every child gone, a drained batch could neither
        # be scored nor re-queued — it would vanish from the accounting.
        super()._require_running()
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
                    message = readers[reader].receive_nowait()
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
                    message = channel.receive(timeout=_POLL_INTERVAL)
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
        round trip (dispatch to collected reply, same clock), so transport
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
        Either way the child is gone, so its channel's preallocated
        resources (the shm slot ring) are reclaimed on the spot — a
        SIGKILL'd child must not leak its segment until pool close.
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
                child.channel.reclaim()
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
            child.channel.reclaim()
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
        """Authoritative :class:`PoolStats` for the process backend.

        The inherited snapshot infers ``in_flight`` from sequence-counter
        distance (``dispatched - next_commit``), which cannot see *where*
        a dispatched batch is: batches shipped into per-child task queues,
        batches being scored, and batches whose replies already arrived but
        are parked in the reorder buffer behind a missing earlier sequence
        all look alike.  Under head-of-line blocking that reads as a
        saturated pool when the children are actually idle — and the fleet
        autoscaler scales from that stale backlog.

        This override counts the shipped-but-uncommitted sequences from the
        pool's own books: ``in_flight`` = batches the children still owe a
        reply for (the per-child in-flight map) plus replies held for
        in-order commit, and ``busy_fraction`` is computed from the *owed*
        batches only — the portion of the fleet that genuinely has work.
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
        serving* detector from a new checkpoint (each with its own channel
        — on the shm transport, its own slot ring).  Shrinking retires the
        trailing slots: each retiring child receives a stop sentinel behind
        whatever batches it already owns (per-child queues are FIFO),
        finishes them, replies and exits — nothing in flight is dropped,
        its segment is reclaimed as soon as the clean exit is diagnosed,
        and because every reply still commits through the reorder buffer in
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
    def swap_detector(self, detector, carry_unknown_counts: bool = True):
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
            retired = self.service.swap_detector(
                detector, carry_unknown_counts=carry_unknown_counts
            )
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
                lambda: not self._swap_awaiting, self.handshake_timeout
            )
            failures = list(self._swap_failures)
        if not acknowledged:
            raise TimeoutError(
                "child processes did not acknowledge the detector swap "
                f"within {self.handshake_timeout} s"
            )
        if failures:
            raise RuntimeError(
                "detector swap failed in child process(es): " + "; ".join(failures)
            )
        return retired

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def transport_counters(self) -> Dict[str, int]:
        """Aggregate per-channel data-plane counters (slot vs inline batches)
        across every child ever owned by this pool — the number the benches
        record to prove the shm path actually carried traffic.  Closed
        children's counters are folded into running totals at close(), so
        the numbers survive ``run_stream``."""
        with self._commit_cond:
            children = list(self._slots) + list(self._graveyard)
            totals = dict(self._transport_totals)
        for child in children:
            totals["slot_batches"] += child.channel.slot_batches
            totals["inline_batches"] += child.channel.inline_batches
        return totals
