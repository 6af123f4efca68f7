"""The streaming detection service.

Architecture (one request path, three stages):

1. **Micro-batching** — incoming :class:`~repro.data.dataset.TrafficRecords`
   are buffered by a :class:`~repro.serving.batching.MicroBatcher` and
   released as model-sized batches (size trigger) or after a bounded wait
   (age trigger), so tiny submissions do not pay a full forward pass each.
2. **Cached preprocessing** — :class:`CachedPreprocessor` precomputes the
   one-hot layout (per-column value→position tables) and folds the standard
   scaler into a single multiply-add, replacing the per-record Python loops
   of the training-time :class:`~repro.preprocessing.pipeline.IDSPreprocessor`
   with vectorised lookups.  Numerics match the training pipeline to
   float64 round-off.  Categorical values missing from the training
   vocabulary are zero-encoded *and counted* per column — vocabulary drift
   is surfaced in every :class:`ServiceReport` instead of being swallowed.
3. **Graph-free inference** — the batch runs through
   ``Model.predict(..., fast=True)`` (see :mod:`repro.nn.inference`), and
   every batch updates a rolling ACC/DR/FAR monitor plus per-batch
   latency/throughput accounting.

Execution models on top of this path:

* **synchronous** (this module) — :meth:`DetectionService.submit` /
  :meth:`~DetectionService.poll` / :meth:`~DetectionService.flush` run
  everything on the calling thread;
* **worker pool** (:mod:`repro.serving.workers`) — scoring fans out to a
  thread pool, monitor updates commit in submission order;
* **process pool** (:mod:`repro.serving.procpool`) — scoring fans out to
  checkpoint-rehydrated child processes (off the GIL), committing through
  the same in-order protocol;
* **sharded** (:mod:`repro.serving.sharding`) — a router fans records out
  across several services (replicas or heterogeneous detectors) and their
  reports merge back into one.

The scoring path is split so those models compose: :meth:`DetectionService.score`
is pure (thread-safe, no monitor writes) and :meth:`DetectionService.observe`
applies a result to the monitors; :meth:`DetectionService.process` is simply
one followed by the other.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..core.detector import PelicanDetector
from ..data.dataset import TrafficRecords
from ..data.generator import StreamBatch
from ..metrics.ids_metrics import DetectionReport
from ..preprocessing.pipeline import IDSPreprocessor
from .batching import MicroBatcher
from .driver import PhaseAttributor, StreamDriver
from .monitor import RollingDetectionMonitor, ThroughputMonitor

__all__ = [
    "CachedPreprocessor",
    "BatchResult",
    "ServiceReport",
    "DetectionService",
]


class CachedPreprocessor:
    """Vectorised, cache-backed version of a fitted ``IDSPreprocessor``.

    Built once from the training-time preprocessor, it caches everything the
    per-request transform needs: the categorical value→column tables, the
    folded scaler coefficients and the label mapping.  The per-batch work is
    then one dict lookup per categorical value and a single fused
    multiply-add over the feature matrix.

    Categorical values outside the training vocabulary cannot be one-hot
    encoded; they contribute an all-zero block (the same behaviour the
    training pipeline has for unseen values) and are tallied per column in
    :attr:`unknown_categoricals` so the drift is visible to operators.
    """

    def __init__(self, preprocessor: IDSPreprocessor) -> None:
        scaler = preprocessor.scaler
        if scaler.mean_ is None or scaler.scale_ is None:
            raise RuntimeError(
                "CachedPreprocessor requires a fitted IDSPreprocessor"
            )
        self.schema = preprocessor.schema
        self._n_numeric = len(self.schema.numeric_features)
        # Per categorical column: (offset into the feature vector, value->slot).
        self._categorical_tables: List[Tuple[str, int, Dict[str, int]]] = []
        offset = self._n_numeric
        for name, vocabulary in preprocessor.encoder.categories_.items():
            table = {value: position for position, value in enumerate(vocabulary)}
            self._categorical_tables.append((name, offset, table))
            offset += len(vocabulary)
        self.num_features = offset
        # Fold (x - mean) / scale into x * weight + shift.
        self._scale_weight = 1.0 / scaler.scale_
        self._scale_shift = -scaler.mean_ / scaler.scale_
        self.class_names = list(preprocessor.label_encoder.classes_)
        self._label_table = {
            name: index for index, name in enumerate(self.class_names)
        }
        self.normal_index = self.class_names.index(self.schema.normal_class)
        self._unknown_lock = threading.Lock()
        self._unknown_counts: Dict[str, int] = {
            name: 0 for name, _, _ in self._categorical_tables
        }

    @property
    def unknown_categoricals(self) -> Dict[str, int]:
        """Per-column tally of values missing from the training vocabulary."""
        with self._unknown_lock:
            return dict(self._unknown_counts)

    def absorb_unknown_counts(self, counts: Dict[str, int]) -> None:
        """Fold a predecessor's drift tallies into this pipeline's counters.

        A hot-swapped service keeps one continuous drift history: the
        replacement pipeline starts from the retired pipeline's per-column
        counts (columns the new vocabulary does not declare are dropped).
        """
        with self._unknown_lock:
            for column, count in counts.items():
                if column in self._unknown_counts:
                    self._unknown_counts[column] += int(count)

    def transform_inputs(self, records: TrafficRecords) -> np.ndarray:
        """Records → network input ``(n, 1, features)`` (fitted statistics)."""
        n_records = len(records)
        features = np.zeros((n_records, self.num_features))
        features[:, : self._n_numeric] = records.numeric
        rows = np.arange(n_records)
        unknown_per_column: List[Tuple[str, int]] = []
        for name, offset, table in self._categorical_tables:
            positions = np.fromiter(
                (table.get(str(value), -1) for value in records.categorical[name]),
                dtype=np.int64,
                count=n_records,
            )
            known = positions >= 0
            n_unknown = n_records - int(known.sum())
            if n_unknown:
                unknown_per_column.append((name, n_unknown))
            features[rows[known], offset + positions[known]] = 1.0
        if unknown_per_column:
            with self._unknown_lock:
                for name, n_unknown in unknown_per_column:
                    self._unknown_counts[name] += n_unknown
        features = features * self._scale_weight + self._scale_shift
        return features[:, np.newaxis, :]

    def encode_labels(self, records: TrafficRecords) -> np.ndarray:
        """Class names → integer ids in the detector's class order."""
        try:
            return np.fromiter(
                (self._label_table[str(label)] for label in records.labels),
                dtype=np.int64,
                count=len(records),
            )
        except KeyError as exc:
            raise ValueError(f"unknown label {exc.args[0]!r}") from exc

    def decode_labels(self, class_indices: np.ndarray) -> np.ndarray:
        """Integer ids → class names (object array)."""
        names = np.asarray(self.class_names, dtype=object)
        return names[np.asarray(class_indices, dtype=np.int64)]


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one processed micro-batch."""

    size: int
    latency: float
    predictions: np.ndarray          # predicted class names
    class_indices: np.ndarray        # predicted integer classes
    true_indices: np.ndarray         # ground-truth integer classes
    finished: Optional[float] = None  # clock reading when scoring ended


@dataclass(frozen=True)
class ServiceReport:
    """Summary of a served stream (see :meth:`DetectionService.run_stream`)."""

    batches: int
    records: int
    throughput: float                # records / second of merged busy time
    mean_latency: float
    p95_latency: float
    rolling: Optional[DetectionReport]
    phase_reports: Dict[str, DetectionReport] = field(default_factory=dict)
    # Per categorical column: serve-time values unseen during training.
    unknown_categoricals: Dict[str, int] = field(default_factory=dict)
    # Per shard name: the shard's own report (sharded services only).
    shard_reports: Dict[str, "ServiceReport"] = field(default_factory=dict)
    # Fleet-controller event timeline (scaling and rollout events, in
    # order); a tuple of repro.serving.fleet.FleetEvent, kept loosely typed
    # here so the core report does not import the controller layer.
    timeline: Tuple = ()

    def __str__(self) -> str:
        rolling = f" rolling[{self.rolling}]" if self.rolling else ""
        unknown = sum(self.unknown_categoricals.values())
        drift = f" unknown-categoricals={unknown}" if unknown else ""
        return (
            f"ServiceReport(records={self.records}, batches={self.batches}, "
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
        Rolling-monitor width in records.
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
        # The scoring engine is one tuple so a hot-swap replaces detector and
        # pipeline in a single atomic attribute store: a concurrent score()
        # can never see the new network with the old vocabulary tables.
        self._engine: Tuple[PelicanDetector, CachedPreprocessor] = (
            detector,
            CachedPreprocessor(detector.preprocessor),
        )
        self.batcher = MicroBatcher(
            max_batch_size=max_batch_size,
            flush_interval=flush_interval,
            clock=clock,
        )
        self.monitor = RollingDetectionMonitor(
            normal_index=self.pipeline.normal_index, window=window
        )
        self.throughput = ThroughputMonitor(clock=clock)

    # ------------------------------------------------------------------ #
    @property
    def detector(self) -> PelicanDetector:
        """The currently serving detector (see :meth:`swap_detector`)."""
        return self._engine[0]

    @property
    def pipeline(self) -> CachedPreprocessor:
        """The currently serving cached preprocessor."""
        return self._engine[1]

    def swap_detector(self, detector: PelicanDetector) -> PelicanDetector:
        """Atomically replace the serving detector; returns the retired one.

        The swap is a single attribute store, so concurrent scorers see
        either the old engine or the new one, never a mixture.  It commits
        on a *batch boundary* by construction — a batch that already read
        the engine finishes on the model it started with; the next batch
        picks up the replacement.  Callers that need stop-the-world
        equivalence (the :class:`~repro.serving.lifecycle.DriftSupervisor`)
        flush/join first so no batch is in flight and nothing is pending in
        the micro-batcher.

        Monitors, the micro-batcher, the throughput history and the
        unknown-categorical counts all survive the swap: the service keeps
        one continuous record of the traffic it served, which is what makes
        a hot-swapped run's confusion counts equal a drain-stop-restart
        run's record for record.

        The replacement must be fitted on the same schema with the same
        class order — otherwise the rolling monitors' integer labels would
        silently change meaning mid-stream.
        """
        if not detector.is_fitted:
            raise RuntimeError("swap_detector requires a fitted detector")
        old_detector, old_pipeline = self._engine
        new_pipeline = CachedPreprocessor(detector.preprocessor)
        if new_pipeline.class_names != old_pipeline.class_names:
            raise ValueError(
                f"challenger class order {new_pipeline.class_names} does not "
                f"match the serving order {old_pipeline.class_names}"
            )
        if detector.schema.name != old_detector.schema.name:
            raise ValueError(
                f"challenger is fitted on schema {detector.schema.name!r}, "
                f"the service is serving {old_detector.schema.name!r}"
            )
        new_pipeline.absorb_unknown_counts(old_pipeline.unknown_categoricals)
        self._engine = (detector, new_pipeline)
        return old_detector

    # ------------------------------------------------------------------ #
    def score(self, records: TrafficRecords) -> BatchResult:
        """Run preprocessing + inference on one batch, without side effects.

        Thread-safe: touches no monitor state, so the worker pool calls it
        concurrently and commits the results through :meth:`observe`.  The
        engine (detector + pipeline) is read once, so a concurrent
        :meth:`swap_detector` takes effect only between batches.
        """
        detector, pipeline = self._engine
        started = self.clock()
        inputs = pipeline.transform_inputs(records)
        probabilities = detector.network.predict(
            inputs, batch_size=max(len(records), 1), fast=True
        )
        predicted = np.argmax(probabilities, axis=-1)
        finished = self.clock()
        true_indices = pipeline.encode_labels(records)
        return BatchResult(
            size=len(records),
            latency=finished - started,
            predictions=pipeline.decode_labels(predicted),
            class_indices=predicted,
            true_indices=true_indices,
            finished=finished,
        )

    def observe(self, result: BatchResult) -> None:
        """Fold one scored batch into the rolling and throughput monitors."""
        self.monitor.update(result.true_indices, result.class_indices)
        self.throughput.update(result.size, result.latency, end_time=result.finished)

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
        """Current rolling quality + throughput summary."""
        stats = self.throughput.snapshot()  # one lock: a consistent row
        return ServiceReport(
            batches=int(stats["batches"]),
            records=int(stats["records"]),
            throughput=stats["throughput_rps"],
            mean_latency=stats["mean_latency_s"],
            p95_latency=stats["p95_latency_s"],
            rolling=self.monitor.report(),
            unknown_categoricals=self.pipeline.unknown_categoricals,
        )

    # ------------------------------------------------------------------ #
    # Stream-driver protocol (see repro.serving.driver): the service is an
    # engine with one lane, itself.
    @contextmanager
    def _stream_lanes(self):
        self.flush()  # records queued before the stream belong to no phase
        yield [(self, PhaseAttributor(self.pipeline.normal_index))]

    def _stream_report(self, phase_reports) -> ServiceReport:
        return replace(self.report(), phase_reports=phase_reports)

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
