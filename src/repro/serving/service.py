"""The streaming detection service.

Architecture (one request path, three stages):

1. **Micro-batching** — incoming :class:`~repro.data.dataset.TrafficRecords`
   are buffered by a :class:`~repro.serving.batching.MicroBatcher` and
   released as model-sized batches (size trigger) or after a bounded wait
   (age trigger), so tiny submissions do not pay a full forward pass each.
2. **Preprocessing** — the detector's own
   :class:`~repro.preprocessing.pipeline.IDSPreprocessor`, the one feature
   encoder of training and serving: its
   :meth:`~repro.preprocessing.pipeline.IDSPreprocessor.transform_inputs`
   is the training matrix rounded once to float32, the served dtype, bit
   for bit.  Categorical values missing from the training vocabulary are
   zero-encoded *and tallied* per column; the tally travels with the
   batch's result, so vocabulary drift is surfaced in every
   :class:`ServiceReport` instead of being swallowed.  A non-finite
   numeric feature fails the batch before anything is scored.
3. **Graph-free inference** — the batch runs through
   ``Model.predict(..., fast=True)`` (see :mod:`repro.nn.inference`) in
   float32.  Stages 2 and 3 are one stateless function,
   :func:`score_records`, that every execution model calls.

Every committed batch is folded into the service's one ledger, a
:class:`~repro.serving.monitor.ServiceMonitor`: rolling ACC/DR/FAR,
totals, wall span, latency window and unknown-categorical tallies, under
one lock.  Every :class:`ServiceReport` is built from its snapshots by
:meth:`ServiceReport.merge`.

Execution models on top of this path:

* **synchronous** (this module) — :meth:`DetectionService.submit` /
  :meth:`~DetectionService.poll` / :meth:`~DetectionService.flush` run
  everything on the calling thread;
* **process pool** (:mod:`repro.serving.procpool`) — scoring fans out to
  checkpoint-rehydrated child processes (off the GIL), monitor updates
  commit in submission order;
* **sharded** (:mod:`repro.serving.sharding`) — a router fans records out
  across several services (replicas or heterogeneous detectors) and their
  reports merge back into one.

The scoring path is split so those models compose: :meth:`DetectionService.score`
is pure (thread-safe, no ledger writes) and :meth:`DetectionService.observe`
commits a result to the ledger; :meth:`DetectionService.process` is simply
one followed by the other.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.detector import PelicanDetector
from ..data.dataset import TrafficRecords
from ..data.generator import StreamBatch
from ..metrics.ids_metrics import DetectionReport
from ..preprocessing.pipeline import IDSPreprocessor
from .batching import MicroBatcher
from .driver import PhaseAttributor, StreamDriver
from .monitor import MonitorSnapshot, ServiceMonitor

__all__ = [
    "score_records",
    "check_challenger",
    "BatchResult",
    "ServiceReport",
    "DetectionService",
]


def score_records(
    detector: PelicanDetector, records: TrafficRecords
) -> Tuple[np.ndarray, Dict[str, int]]:
    """The served path: records → float32 inputs → fast forward → class ids.

    Returns ``(class_ids, unknown)``, ``unknown`` being the batch's
    unknown-categorical tally (see
    :meth:`~repro.preprocessing.pipeline.IDSPreprocessor.transform_inputs`).
    Every execution model scores through this one function — the sync
    service's :meth:`DetectionService.score` and the process pool's
    children alike — so they serve the same dtype and the same numerics.
    """
    inputs, unknown = detector.preprocessor.transform_inputs(records)
    probabilities = detector.network.predict(
        inputs, batch_size=max(len(records), 1), fast=True
    )
    return np.argmax(probabilities, axis=-1), unknown


def check_challenger(
    challenger: PelicanDetector,
    serving: PelicanDetector,
    where: str = "the service",
) -> None:
    """Raise unless ``challenger`` may replace ``serving`` mid-stream: it
    must be fitted, on the same schema, with the same class order —
    otherwise the ledger's integer labels would silently change meaning.
    ``where`` names the serving side in the message."""
    if not challenger.is_fitted:
        raise RuntimeError("the challenger must be a fitted detector")
    rule = "a challenger must be fitted on the serving schema with its class order"
    if challenger.schema.name != serving.schema.name:
        raise ValueError(
            f"challenger is fitted on schema {challenger.schema.name!r}, "
            f"{where} serves {serving.schema.name!r}; {rule}"
        )
    challenger_classes = challenger.preprocessor.class_names
    serving_classes = serving.preprocessor.class_names
    if challenger_classes != serving_classes:
        raise ValueError(
            f"challenger class order {challenger_classes} does not match "
            f"{where}'s {serving_classes}; {rule}"
        )


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one processed micro-batch."""

    size: int
    latency: float
    predictions: np.ndarray          # predicted class names
    class_indices: np.ndarray        # predicted integer classes
    true_indices: np.ndarray         # ground-truth integer classes
    finished: float                  # clock reading when scoring ended
    # Per categorical column: this batch's values unseen during training.
    unknown_categoricals: Dict[str, int]


@dataclass(frozen=True)
class ServiceReport:
    """Summary of a served stream (see :meth:`DetectionService.run_stream`),
    built from ledger snapshots by :meth:`merge`."""

    batches: int
    records: int
    throughput: float                # records / second of wall span
    mean_latency: float
    p95_latency: float
    rolling: Optional[DetectionReport]
    phase_reports: Dict[str, DetectionReport] = field(default_factory=dict)
    # Per categorical column: serve-time values unseen during training.
    unknown_categoricals: Dict[str, int] = field(default_factory=dict)
    # Per shard name: the shard's own report (sharded services only).
    shard_reports: Dict[str, "ServiceReport"] = field(default_factory=dict)

    @classmethod
    def merge(
        cls,
        snapshots: Sequence[MonitorSnapshot],
        phase_reports: Optional[Dict[str, DetectionReport]] = None,
        shard_reports: Optional[Dict[str, "ServiceReport"]] = None,
    ) -> "ServiceReport":
        """The report over one or more ledgers' snapshots.

        A service reports its one snapshot; a sharded fleet merges its
        shards'.  Quality merges by summing confusion counts
        (:meth:`DetectionReport.merge`); throughput divides the records by
        the wall span from the earliest batch start to the latest commit
        over every ledger that served, so ledgers scoring at the same time
        are counted once; the latency stats pool the latency windows; the
        unknown-categorical tallies add up per column.
        """
        records = sum(s.records for s in snapshots)
        served = [s for s in snapshots if s.batches]
        wall_span = (
            max(s.wall_end for s in served) - min(s.wall_start for s in served)
            if served else 0.0
        )
        latencies = np.concatenate([s.latencies for s in snapshots])
        rollings = [s.rolling for s in snapshots if s.rolling is not None]
        unknown: Dict[str, int] = {}
        for s in snapshots:
            for column, count in s.unknown_categoricals.items():
                unknown[column] = unknown.get(column, 0) + count
        return cls(
            batches=sum(s.batches for s in snapshots),
            records=records,
            throughput=records / wall_span if wall_span > 0 else 0.0,
            mean_latency=float(np.mean(latencies)) if len(latencies) else 0.0,
            p95_latency=(
                float(np.percentile(latencies, 95)) if len(latencies) else 0.0
            ),
            rolling=DetectionReport.merge(rollings) if rollings else None,
            phase_reports=dict(phase_reports or {}),
            unknown_categoricals=unknown,
            shard_reports=dict(shard_reports or {}),
        )

    def __str__(self) -> str:
        rolling = f" rolling[{self.rolling}]" if self.rolling else ""
        unknown = sum(self.unknown_categoricals.values())
        drift = f" unknown-categoricals={unknown}" if unknown else ""
        return (
            f"{type(self).__name__}(records={self.records}, batches={self.batches}, "
            f"throughput={self.throughput:,.0f} rec/s, "
            f"p95={self.p95_latency * 1e3:.1f} ms{rolling}{drift})"
        )


class DetectionService:
    """Streaming front-end for a fitted :class:`PelicanDetector`.

    Parameters
    ----------
    detector:
        A fitted detector; its preprocessing pipeline and network are
        wrapped, not copied.
    max_batch_size / flush_interval:
        Micro-batching policy (see :class:`MicroBatcher`).
    window:
        Rolling ACC/DR/FAR window width in records.
    clock:
        Injectable time source shared by the batcher and the latency
        accounting.
    """

    def __init__(
        self,
        detector: PelicanDetector,
        max_batch_size: int = 256,
        flush_interval: float = 0.05,
        window: int = 512,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not detector.is_fitted:
            raise RuntimeError("DetectionService requires a fitted detector")
        self.clock = clock
        # The detector carries its encoder, so a hot-swap is one attribute
        # store: a concurrent score() never sees the new network with the old
        # vocabulary tables.
        self._detector = detector
        self.batcher = MicroBatcher(
            max_batch_size=max_batch_size,
            flush_interval=flush_interval,
            clock=clock,
        )
        self.monitor = ServiceMonitor(
            self.pipeline.normal_index, self.pipeline.schema.categorical_names, window
        )

    # ------------------------------------------------------------------ #
    @property
    def detector(self) -> PelicanDetector:
        """The currently serving detector (see :meth:`swap_detector`)."""
        return self._detector

    @property
    def pipeline(self) -> IDSPreprocessor:
        """The currently serving detector's feature encoder."""
        return self._detector.preprocessor

    def swap_detector(self, detector: PelicanDetector) -> PelicanDetector:
        """Atomically replace the serving detector; returns the retired one.

        The swap is a single attribute store, so concurrent scorers see
        either the old detector or the new one, never a mixture.  It commits
        on a *batch boundary* by construction — a batch that already read
        the detector finishes on the model it started with; the next batch
        picks up the replacement.  Callers that need stop-the-world
        equivalence (the :class:`~repro.serving.lifecycle.DriftSupervisor`)
        flush/join first so no batch is in flight and nothing is pending in
        the micro-batcher.

        The ledger (:attr:`monitor`: rolling window, throughput history,
        unknown-categorical tallies) and the micro-batcher survive the
        swap untouched: the service keeps one continuous record of the
        traffic it served, which is what makes a hot-swapped run's
        confusion counts equal a drain-stop-restart run's record for
        record.

        The replacement must pass :func:`check_challenger`: fitted, on the
        same schema, with the same class order.
        """
        old_detector = self._detector
        check_challenger(detector, old_detector)
        self._detector = detector
        return old_detector

    # ------------------------------------------------------------------ #
    def score(self, records: TrafficRecords) -> BatchResult:
        """Run preprocessing + inference on one batch, without side effects.

        Thread-safe: nothing is counted — not even the batch's unknown
        categoricals, which travel in the result — until the result is
        committed through :meth:`observe`, so concurrent callers may score
        at once.  The detector (network + encoder) is read once, so a
        concurrent :meth:`swap_detector` takes effect only between batches.
        """
        detector = self._detector
        pipeline = detector.preprocessor
        started = self.clock()
        predicted, unknown = score_records(detector, records)
        finished = self.clock()
        true_indices = pipeline.encode_labels(records)
        return BatchResult(
            size=len(records),
            latency=finished - started,
            predictions=pipeline.decode_labels(predicted),
            class_indices=predicted,
            true_indices=true_indices,
            finished=finished,
            unknown_categoricals=unknown,
        )

    def observe(self, result: BatchResult) -> None:
        """Commit one scored batch to the service's ledger."""
        self.monitor.observe(result)

    def process(self, records: TrafficRecords) -> BatchResult:
        """Run one batch through preprocessing + inference immediately.

        Bypasses the micro-batching queue; :meth:`submit` is the queued
        entry point.
        """
        result = self.score(records)
        self.observe(result)
        return result

    def submit(self, records: TrafficRecords) -> List[BatchResult]:
        """Enqueue records; process and return whatever batches became due."""
        return [self.process(batch) for batch in self.batcher.submit(records)]

    # ------------------------------------------------------------------ #
    # Raw-event ingress (see repro.ingest).  The extractor is created
    # lazily so services that never see packets pay nothing and the
    # serving layer has no import-time dependency on the ingest package.
    @property
    def event_extractor(self):
        """The service's raw-event ingress extractor (created on first use
        via :meth:`open_event_ingress`)."""
        return getattr(self, "_event_extractor", None)

    def open_event_ingress(
        self,
        window: int = 100,
        idle_timeout: Optional[float] = None,
        derive_features: bool = False,
    ):
        """Attach (and return) a flow-feature extractor for raw packet
        events targeting this service's schema; replaces any previous one.
        See :class:`repro.ingest.FlowFeatureExtractor` for the knobs."""
        from ..ingest import FlowFeatureExtractor

        self._event_extractor = FlowFeatureExtractor(
            self.pipeline.schema,
            window=window,
            idle_timeout=idle_timeout,
            derive_features=derive_features,
        )
        return self._event_extractor

    def submit_events(self, events, final: bool = True) -> List[BatchResult]:
        """Aggregate raw packet events into feature rows and enqueue them.

        The ingress path: events flow through the service's
        :class:`~repro.ingest.FlowFeatureExtractor` (attached on first use
        with default settings; call :meth:`open_event_ingress` first to
        configure it) and the closed flows' rows go through the ordinary
        :meth:`submit` queue.  ``final=False`` keeps quiet flows open
        across calls (streaming captures); the default closes each call's
        interval completely.
        """
        extractor = self.event_extractor or self.open_event_ingress()
        records = extractor.extract(events, final=final)
        if len(records) == 0:
            return []
        return self.submit(records)

    def poll(self) -> List[BatchResult]:
        """Process the pending partial batch if it aged past the interval."""
        batch = self.batcher.poll()
        return [self.process(batch)] if batch is not None else []

    def flush(self) -> List[BatchResult]:
        """Drain and process everything still queued."""
        batch = self.batcher.flush()
        return [self.process(batch)] if batch is not None else []

    def report(self) -> ServiceReport:
        """Current rolling quality + throughput summary (one consistent read
        of the ledger)."""
        return self._stream_report(phase_reports={})

    # ------------------------------------------------------------------ #
    # Stream-driver protocol (see repro.serving.driver): the service is an
    # engine with one lane, itself.
    @contextmanager
    def _stream_lanes(self):
        self.flush()  # records queued before the stream belong to no phase
        yield [(self, PhaseAttributor(self.pipeline.normal_index))]

    def _stream_report(self, phase_reports) -> ServiceReport:
        return ServiceReport.merge(
            [self.monitor.snapshot()], phase_reports=phase_reports
        )

    def run_stream(
        self,
        stream: Iterable[StreamBatch],
        max_batches: Optional[int] = None,
    ) -> ServiceReport:
        """Serve a :class:`~repro.data.generator.TrafficStream` end-to-end.

        Every stream batch goes through the micro-batching queue; a final
        flush drains the tail.  Because the queue preserves submission
        order, results can be attributed back to the emitting phase, giving
        the per-phase ACC/DR/FAR breakdown in the returned report.

        Records already queued when the stream starts belong to no phase:
        they are flushed through (scored and counted in the rolling
        monitors) before attribution begins, so the per-phase breakdown
        covers exactly the stream's records.  ``max_batches`` pulls at most
        that many batches from the stream.
        """
        with StreamDriver(self) as driver:
            return driver.run(stream, max_batches)

    def run_event_stream(
        self,
        events,
        extractor=None,
        max_batches: Optional[int] = None,
    ) -> ServiceReport:
        """Serve a raw packet-event stream end-to-end.

        ``events`` is an :class:`~repro.ingest.EventTrafficStream` or any
        iterable of :class:`~repro.ingest.EventBatch`.  Each event batch is
        aggregated into feature rows by ``extractor`` (default: this
        service's ingress extractor, attached on first use) when the driver
        pulls it, and then served exactly like :meth:`run_stream`,
        including the per-phase attribution.  The extractor's
        :meth:`~repro.ingest.FlowFeatureExtractor.stats_row` afterwards
        gives the events-vs-rows and time-in-extractor accounting.
        """
        from ..ingest import featurize_events

        extractor = extractor or self.event_extractor or self.open_event_ingress()
        return self.run_stream(featurize_events(events, extractor), max_batches)
