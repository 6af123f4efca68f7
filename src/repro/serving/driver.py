"""The stream driver: the one loop that serves a traffic stream.

Every ``run_stream`` in the serving layer — the synchronous service, the
process pool, the sharded fleet, the shadow deployment, the drift
supervisor and the fleet controller — is a :class:`StreamDriver` over an
*engine*.  Per stream batch the driver runs one step::

    route → expect → submit → attribute

and, once the stream is exhausted, flush → attribute → merge.

* A **lane** is anything whose ``submit(records)`` / ``flush()`` return
  the committed :class:`~repro.serving.service.BatchResult` values in
  submission order: a :class:`~repro.serving.service.DetectionService`, a
  :class:`~repro.serving.procpool.ProcessWorkerPool`, or one shard of a
  sharded fleet.
* An **engine** opens its lanes for one stream: ``_stream_lanes(**options)``
  is a context yielding ``(lane, PhaseAttributor)`` pairs.  A service or a
  pool is its own single lane — records queued before the stream are
  drained first (they belong to no phase) and a pool is started and owned
  for the stream — and a sharded fleet's lanes are those of its shards, or
  of one pool per shard.  An optional ``router``
  (:class:`~repro.serving.sharding.ShardRouter`) splits each stream batch
  across the lanes, and ``_stream_report(phase_reports)`` builds the final
  :class:`~repro.serving.service.ServiceReport`.
* **One hook** runs on batch boundaries: ``after_batch(index,
  stream_batch)``, once every part is submitted (drift checks and
  hot-swaps, rollout stages, autoscale ticks).
* **The trial tee**: while a :class:`~repro.serving.lifecycle.shadow.Trial`
  is attached as ``driver.trial`` (from its opening until its verdict),
  each batch's routed parts go to it before any lane sees them, so its
  challenger scores the same records.
* **The event log**: a controller records each decision with :meth:`log`,
  which appends a :class:`ControlEvent` to ``driver.events``, stamped with
  the records the lanes have committed and the engine's service clock.

``max_batches`` limits the stream by :func:`itertools.islice`, so exactly
that many batches are pulled from it.  Every record the driver submits is
committed and attributed exactly once, to the phase that emitted it, and
the per-phase rows are exact totals.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence

from ..data.generator import StreamBatch
from ..metrics.ids_metrics import DetectionReport, evaluate_detection

__all__ = ["ControlEvent", "PhaseAttributor", "StreamDriver"]


def _add(totals: Dict[str, DetectionReport], phase: str, report) -> None:
    """Sum ``report``'s confusion counts into ``totals[phase]``."""
    existing = totals.get(phase)
    totals[phase] = DetectionReport.merge([existing, report]) if existing else report


class PhaseAttributor:
    """FIFO attribution of served results back to the emitting stream phases.

    The micro-batching queue preserves submission order, so every processed
    batch corresponds to a contiguous run of previously announced records.
    Callers announce each stream batch with :meth:`expect` *before*
    submitting its records and feed every result — in submission order — to
    :meth:`attribute`, which adds the records' confusion counts to their
    phase's total.  The totals cover every attributed record: no window.

    Each lane of a :class:`StreamDriver` owns one attributor;
    :meth:`StreamDriver.report` sums them across lanes.
    """

    def __init__(self, normal_index: int) -> None:
        self.normal_index = int(normal_index)
        # FIFO of [phase name, records still unattributed from that phase].
        self._queue: Deque[List] = deque()
        self._totals: Dict[str, DetectionReport] = {}

    def expect(self, phase: str, count: int) -> None:
        """Announce that ``count`` records of ``phase`` are about to be submitted."""
        if count > 0:
            self._queue.append([phase, count])

    def attribute(self, result) -> None:
        """Attribute one result (in submission order) to its phases."""
        consumed = 0
        while consumed < result.size:
            phase, remaining = self._queue[0]
            take = min(remaining, result.size - consumed)
            _add(self._totals, phase, evaluate_detection(
                result.true_indices[consumed:consumed + take],
                result.class_indices[consumed:consumed + take],
                self.normal_index,
            ))
            consumed += take
            if take == remaining:
                self._queue.popleft()
            else:
                self._queue[0][1] = remaining - take

    def reports(self) -> Dict[str, DetectionReport]:
        """Per-phase detection reports (phases without traffic omitted)."""
        return dict(self._totals)


@dataclass(frozen=True)
class ControlEvent:
    """One control-plane decision, as :meth:`StreamDriver.log` records it."""

    kind: str               # e.g. drift-detected | promoted | resize | swap | rollback
    batch_index: int        # stream batch after which the event fired
    records_seen: int       # records the driver's lanes had committed then
    time: float             # the engine's service-clock reading
    shard: Optional[int] = None  # the shard it addresses (None = every lane)
    detail: Dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        where = f" shard={self.shard}" if self.shard is not None else ""
        detail = ", ".join(f"{k}={v}" for k, v in self.detail.items())
        return (
            f"[batch {self.batch_index:>4d} | {self.records_seen:>6d} rec]{where} "
            f"{self.kind}" + (f" ({detail})" if detail else "")
        )


class StreamDriver:
    """Serve streams on an engine's lanes; see the module docstring.

    Use as a context manager: entering opens the engine's lanes
    (``lane_options`` go to its ``_stream_lanes``); leaving closes them.
    Inside, :meth:`run` serves a whole stream, or :meth:`submit` /
    :meth:`flush` / :meth:`report` drive it batch by batch (a trial's
    challenger is fed this way).
    """

    def __init__(
        self,
        engine,
        after_batch: Optional[Callable[[int, StreamBatch], None]] = None,
        **lane_options,
    ) -> None:
        self.engine = engine
        self.router = getattr(engine, "router", None)
        self.after_batch = after_batch
        self.lane_options = lane_options
        self.lanes: Sequence = ()
        self.attributors: List[PhaseAttributor] = []
        self.served = 0  # stream batches submitted so far
        self.trial = None  # the attached Trial; it sees every batch's parts first
        self.events: List[ControlEvent] = []

    def __enter__(self) -> "StreamDriver":
        self._opened = self.engine._stream_lanes(**self.lane_options)
        pairs = self._opened.__enter__()
        self.lanes = [lane for lane, _ in pairs]
        self.attributors = [attributor for _, attributor in pairs]
        return self

    def __exit__(self, *exc_info):
        return self._opened.__exit__(*exc_info)

    def _attribute(self, lane: int, results) -> None:
        for result in results:
            self.attributors[lane].attribute(result)

    def submit(self, stream_batch: StreamBatch) -> None:
        """Route, announce and submit one stream batch; attribute what commits."""
        records = stream_batch.records
        # One unrouted lane receives the batch's records object as is.
        parts = [(0, records)] if self.router is None else self.router.parts(records)
        if self.trial is not None:
            self.trial.submit(stream_batch, parts)
        for lane, part in parts:
            self.attributors[lane].expect(stream_batch.phase, len(part))
            self._attribute(lane, self.lanes[lane].submit(part))
        if self.after_batch is not None:
            self.after_batch(self.served, stream_batch)
        self.served += 1

    def flush(self) -> None:
        """Drain every lane — the swap boundary — attributing what commits."""
        for lane, engine in enumerate(self.lanes):
            self._attribute(lane, engine.flush())

    def log(
        self, kind: str, batch_index: int, shard: Optional[int] = None, **detail
    ) -> None:
        """Record a control-plane decision as a :class:`ControlEvent`."""
        self.events.append(ControlEvent(
            kind, batch_index, self.report().records, self.engine.clock(),
            shard, detail,
        ))

    def report(self):
        """The engine's report with the lanes' per-phase totals summed."""
        merged: Dict[str, DetectionReport] = {}
        for attributor in self.attributors:
            for phase, report in attributor.reports().items():
                _add(merged, phase, report)
        return self.engine._stream_report(merged)

    def run(self, stream: Iterable[StreamBatch], max_batches: Optional[int] = None):
        """Serve (up to ``max_batches`` of) ``stream``, flush, and report."""
        for stream_batch in islice(stream, max_batches):
            self.submit(stream_batch)
        self.flush()
        return self.report()
