"""The stream driver: the one loop that serves a traffic stream.

Every ``run_stream`` in the serving layer — the synchronous service, the
process pool, the sharded fleet, the shadow deployment, the drift
supervisor and the fleet controller — is a :class:`StreamDriver` over an
*engine* plus a few hooks.  Per stream batch the driver runs one step::

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
* **Hooks** run on batch boundaries: ``before_submit(stream_batch, parts)``
  sees each batch's routed parts before any lane does (the shadow tee),
  ``after_batch(index, stream_batch)`` runs once every part is submitted
  (drift checks and hot-swaps, rollout stages, autoscale ticks).

``max_batches`` limits the stream by :func:`itertools.islice`, so exactly
that many batches are pulled from it.  Every record the driver submits is
committed and attributed exactly once, to the phase that emitted it, and
the per-phase rows are exact totals.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from ..data.dataset import TrafficRecords
from ..data.generator import StreamBatch
from ..metrics.ids_metrics import DetectionReport, evaluate_detection

__all__ = ["PhaseAttributor", "StreamDriver"]

Parts = List[Tuple[int, TrafficRecords]]


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


class StreamDriver:
    """Serve streams on an engine's lanes; see the module docstring.

    Use as a context manager: entering opens the engine's lanes
    (``lane_options`` go to its ``_stream_lanes``); leaving closes them.
    Inside, :meth:`run` serves a whole stream, or :meth:`submit` /
    :meth:`flush` / :meth:`report` drive it batch by batch (the shadow tee
    feeds a challenger this way).
    """

    def __init__(
        self,
        engine,
        before_submit: Optional[Callable[[StreamBatch, Parts], None]] = None,
        after_batch: Optional[Callable[[int, StreamBatch], None]] = None,
        **lane_options,
    ) -> None:
        self.engine = engine
        self.router = getattr(engine, "router", None)
        self.before_submit = before_submit
        self.after_batch = after_batch
        self.lane_options = lane_options
        self.lanes: Sequence = ()
        self.attributors: List[PhaseAttributor] = []
        self.served = 0  # stream batches submitted so far

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
        if self.before_submit is not None:
            self.before_submit(stream_batch, parts)
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
