"""The benchmark's four workloads, driven only through public calls.

Each workload prepares its fixtures untimed (a detector trained in-process
from the workload seed, saved as a checkpoint; every input generated up
front; the sync-service oracle), then times its set-up several times, then
runs a timed phase and checks what the program committed:

* ``pelican-batch`` — closed loop: a sync :class:`DetectionService` serves
  the paper's Pelican (10 residual blocks, NSL-KDD) on a featurized flood
  scenario in 256-record submissions;
* ``events-batch`` — closed loop: :meth:`DetectionService.run_event_stream`
  serves SYN-flood packet events with a 1-block detector;
* ``pool-open`` — open loop: seeded Poisson bursts into a 1-child
  :class:`ProcessWorkerPool` with age-triggered micro-batching;
* ``train`` — closed loop: :meth:`PelicanDetector.fit` trains the 10-block
  residual network on seeded NSL-KDD records.

With tracing on, the workload wraps public methods on the instances it
built with :class:`~measure.Tracer` spans (no source edits) and derives the
per-layer metrics from them.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from measure import (
    DueBook,
    HostGauge,
    Tracer,
    percentile,
    poisson_schedule,
    records_for,
)
from repro.core import PelicanDetector
from repro.data import (
    NSLKDD_SCHEMA,
    TrafficRecords,
    TrafficStream,
    load_nslkdd,
    nslkdd_generator,
)
from repro.scenarios import syn_flood_event_scenario
from repro.serving import DetectionService, DetectorCheckpoint, ProcessWorkerPool

clock = time.perf_counter

#: Per-record latency limit behind ``bench.slo_miss_share``.
SLO_S = 0.050
#: Frozen open-loop offered rate (records/s) of ``pool-open``: ~15 % of the
#: warm 1-child pool's closed-loop capacity (~80k records/s in 256-record
#: batches on a 2-core host).  At a third of capacity the size trigger,
#: not the age trigger, would release most batches.
OFFERED_RATE = 12_000.0
#: ``pool-open`` burst sizes, uniform in [low, high] (mean 16 records).
BURST_SIZES = (8, 24)
#: ``pool-open`` micro-batch age trigger.  At 2 ms the open-loop p99 moved
#: by 2x between runs with host noise; at 10 ms the wait is most of the
#: latency and the figures hold still.
FLUSH_INTERVAL_S = 0.010
#: The traced run fails unless the driving thread's stage self times sum
#: to the traced phase's wall clock within this share.
SELF_TIME_TOLERANCE = 0.05
#: ``train`` fails if held-out accuracy after the last fit is below this.
TRAIN_ACCURACY_FLOOR = 0.9

#: End-to-end figures are medians over this many windows of the phase.
WINDOWS = 10
#: Closed-loop and set-up timings are scaled to a host on which
#: :func:`measure.reference_kernel` takes this long (see :class:`HostGauge`).
REFERENCE_S = 1.0e-3
#: A closed loop samples the host speed at most this often (~3 % of the
#: phase on the reference host).
GAUGE_INTERVAL_S = 0.040
#: Kernel runs just before each set-up, whose median gives its speed.
SETUP_GAUGE_SAMPLES = 5

SERVE_BATCH = 256
NUM_CLASSES = len(NSLKDD_SCHEMA.classes)
#: ``nn.block.<i>_s`` is reported for the top-level layers of Pelican:
#: 10 residual blocks, global average pooling and the classifier.
TOP_LEVEL_LAYERS = 12

END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "ingest.extract_s": "s",
    "ingest.events_per_row": "events/row",
    "ingest.flows_closed": "count",
    "preprocess.transform_s": "s",
    "nn.forward_s": "s",
    **{f"nn.block.{index}_s": "s" for index in range(TOP_LEVEL_LAYERS)},
    "batching.batches": "count",
    "batching.mean_batch_records": "records",
    "batching.age_trigger_share": "share",
    "batching.wait_ms_p50": "ms",
    "procpool.dispatch_s": "s",
    "procpool.round_trip_ms_p50": "ms",
    "procpool.round_trip_ms_p99": "ms",
    "procpool.commit_lag_ms_p99": "ms",
    "procpool.in_flight_mean": "batches",
    "procpool.start_s": "s",
    "transport.send_s": "s",
    "transport.slot_batches": "count",
    "transport.inline_batches": "count",
    "monitor.observe_s": "s",
    "lifecycle.restore_s": "s",
    "train.step_s": "s",
    "train.optimizer_s": "s",
    "train.loss_s": "s",
    "train.fwd_bwd_s": "s",
    "train.batches": "count",
    "train.samples_per_s": "1/s",
    "bench.latency_p99_ms": "ms",
    "bench.generator_lag_ms_p99": "ms",
    "bench.trace_overhead_share": "share",
    "bench.self_time_share": "share",
    "bench.slo_miss_share": "share",
    "bench.failed_share": "share",
}

# ---------------------------------------------------------------------- #
# Helpers
# ---------------------------------------------------------------------- #


def _confusion(true_indices, predicted) -> np.ndarray:
    """Class-by-class confusion counts (true row, predicted column)."""
    flat = np.asarray(true_indices, np.int64) * NUM_CLASSES + np.asarray(
        predicted, np.int64
    )
    return np.bincount(flat, minlength=NUM_CLASSES * NUM_CLASSES)


def _oracle(detector: PelicanDetector, batches: List[TrafficRecords]) -> list:
    """Per-batch confusion counts from a fresh synchronous service."""
    service = DetectionService(detector, max_batch_size=SERVE_BATCH)
    return [
        _confusion(result.true_indices, result.class_indices)
        for result in map(service.score, batches)
    ]


def _fixture(seed: int, num_blocks: int, out_dir: Path, name: str):
    """Train a fixture detector from the seed and checkpoint it."""
    detector = PelicanDetector(
        NSLKDD_SCHEMA, num_blocks=num_blocks, epochs=1, batch_size=64,
        dropout_rate=0.3, seed=seed,
    )
    detector.fit(load_nslkdd(n_records=384, seed=seed))
    path = DetectorCheckpoint.capture(detector).save(out_dir / f"{name}-seed{seed}")
    return detector, path


def _restore(path: Path):
    started = clock()
    detector = DetectorCheckpoint.load(path).restore()
    return detector, clock() - started


def _quiesce() -> None:
    """Collect, then move every object alive now — fixtures, generated
    inputs, oracles — out of the cyclic collector's reach, so the timed
    phase pays only for collecting what the program allocates in it."""
    gc.collect()
    gc.freeze()


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclass
class Phase:
    """What one timed phase submitted, committed and measured."""

    started: float
    wall_s: float
    book: DueBook
    confusion: np.ndarray
    expected: np.ndarray
    errors: List[str] = field(default_factory=list)
    lags: Optional[np.ndarray] = None
    layer: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.book.outstanding


class BatchingProbe:
    """Traced wrappers on a :class:`MicroBatcher`: batches released, the
    trigger that released them and each record's wait from arrival to
    release (a :class:`DueBook` on the batcher's FIFO)."""

    def __init__(self, batcher, tracer: Tracer) -> None:
        self.max_batch = batcher.max_batch_size
        self.wait = DueBook()
        self.releases: List[tuple] = []  # (release time, records)
        self.age = 0
        for method in ("submit", "poll", "flush"):
            self._wrap(batcher, method, tracer)

    def _wrap(self, batcher, method: str, tracer: Tracer) -> None:
        original = getattr(batcher, method)
        span = tracer.span

        def probed(*args):
            with span(f"batching.{method}"):
                if method == "submit":
                    self.wait.submit(clock(), len(args[0]))
                released = original(*args)
                now = clock()
                if method == "submit":
                    # A partial batch in the list came from submit's own
                    # call of poll(), whose wrapper already counted it.
                    batches = [b for b in released if len(b) == self.max_batch]
                else:
                    batches = [released] if released is not None else []
                    self.age += method == "poll" and released is not None
                for batch in batches:
                    self.wait.commit(now, len(batch))
                    self.releases.append((now, len(batch)))
                return released

        setattr(batcher, method, probed)

    def metrics(self) -> Dict[str, float]:
        count = len(self.releases)
        if not count:
            return {}
        waits = self.wait.latencies()
        return {
            "batching.batches": float(count),
            "batching.mean_batch_records": sum(n for _, n in self.releases) / count,
            "batching.age_trigger_share": self.age / count,
            "batching.wait_ms_p50": percentile(waits, 50) * 1e3,
        }


def _trace_service(service: DetectionService, tracer: Tracer) -> BatchingProbe:
    """Wrap the layers a synchronous service drives in this process."""
    for method in ("submit", "flush"):
        tracer.wrap(service, method, f"serving.{method}")
    tracer.wrap(service, "observe", "monitor.observe")
    pipeline = service.pipeline
    for method in ("transform_inputs", "encode_labels", "decode_labels"):
        tracer.wrap(pipeline, method, "preprocess.transform")
    network = service.detector.network
    tracer.wrap(network, "predict", "nn.forward")
    for index, layer in enumerate(network.layers):
        tracer.wrap(layer, "fast_call", f"nn.block.{index}")
    return BatchingProbe(service.batcher, tracer)


def _serving_layer_metrics(tracer: Tracer, probe: BatchingProbe) -> Dict[str, float]:
    blocks = {
        f"nn.block.{index}_s": tracer.self_time(f"nn.block.{index}")
        for index in range(TOP_LEVEL_LAYERS)
    }
    return {
        "preprocess.transform_s": tracer.self_time("preprocess.transform"),
        "nn.forward_s": tracer.self_time("nn.forward") + sum(blocks.values()),
        **blocks,
        "monitor.observe_s": tracer.self_time("monitor.observe"),
        **probe.metrics(),
    }


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #


class Workload:
    """Common shape: prepare (untimed), setup (timed, repeated), phase."""

    name = ""
    setup_repeats = 7
    #: A closed loop's timings follow the host's CPU speed, so its untraced
    #: phase samples a :class:`HostGauge` and is scaled by it.
    closed_loop = True

    def __init__(self, seed: int, out_dir: Path, tracer: Optional[Tracer]) -> None:
        self.seed = int(seed)
        self.out_dir = out_dir
        #: The traced run's tracer, inactive until its traced phase; set-up
        #: wraps what only exists while setting up (pool channels).
        self.tracer = tracer
        self.restore_s: List[float] = []
        self.start_s: List[float] = []
        self.gauge: Optional[HostGauge] = None
        #: The phase's clock: the gauge's while one samples, so the
        #: sampling stays out of every timing.
        self.clock = clock

    def use_gauge(self, gauge: Optional[HostGauge]) -> None:
        self.gauge = gauge
        self.clock = gauge.clock if gauge is not None else clock

    def tick(self) -> None:
        """Give the gauge a chance to sample, between calls into the program."""
        if self.gauge is not None:
            self.gauge.tick()

    def prepare(self) -> None:
        raise NotImplementedError

    def setup(self) -> float:
        """Cold start to the first verdict; returns its seconds."""
        raise NotImplementedError

    def discard(self) -> None:
        """Release what a superseded setup built."""

    def instrument(self, tracer: Tracer) -> None:
        raise NotImplementedError

    def phase(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        raise NotImplementedError

    def layer_metrics(self, tracer: Tracer, phase: Phase) -> Dict[str, float]:
        return dict(phase.layer)

    def checks(self, phase: Phase) -> List[str]:
        failures = []
        if not np.array_equal(phase.confusion, phase.expected):
            failures.append(
                f"{self.name}: confusion counts {phase.confusion.tolist()} differ "
                f"from the sync oracle {phase.expected.tolist()}"
            )
        return failures

    def close(self) -> None:
        pass


class PelicanBatch(Workload):
    name = "pelican-batch"

    def prepare(self) -> None:
        self.fixture, self.checkpoint = _fixture(self.seed, 10, self.out_dir, self.name)
        stream = TrafficStream.flood_scenario(
            nslkdd_generator(), batch_size=SERVE_BATCH, seed=self.seed
        )
        self.batches = [batch.records for batch in stream]
        self.oracle = _oracle(self.fixture, self.batches)

    def setup(self) -> float:
        started = clock()
        detector, restore = _restore(self.checkpoint)
        self.service = DetectionService(detector, max_batch_size=SERVE_BATCH)
        self.service.submit(self.batches[0])
        elapsed = clock() - started
        self.restore_s.append(restore)
        return elapsed

    def instrument(self, tracer: Tracer) -> None:
        self.probe = _trace_service(self.service, tracer)

    def layer_metrics(self, tracer: Tracer, phase: Phase) -> Dict[str, float]:
        return _serving_layer_metrics(tracer, self.probe)

    def phase(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        service, batches = self.service, self.batches
        book = DueBook()
        confusion = np.zeros(NUM_CLASSES * NUM_CLASSES, np.int64)
        sent = np.zeros(len(batches), np.int64)
        index = 0
        clock = self.clock
        _quiesce()
        started = clock()
        deadline = started + seconds
        while True:
            self.tick()
            submitted = clock()
            if submitted >= deadline:
                break
            position = index % len(batches)
            batch = batches[position]
            results = service.submit(batch)
            committed = clock()
            with _span(tracer, "bench.book"):
                book.submit(submitted, len(batch))
                for result in results:
                    book.commit(committed, result.size)
                    confusion += _confusion(result.true_indices, result.class_indices)
                sent[position] += 1
                index += 1
        for result in service.flush():
            book.commit(clock(), result.size)
            confusion += _confusion(result.true_indices, result.class_indices)
        wall = clock() - started
        expected = sum(count * oracle for count, oracle in zip(sent, self.oracle))
        return Phase(started, wall, book, confusion, expected)


class EventsBatch(Workload):
    name = "events-batch"

    def prepare(self) -> None:
        self.fixture, self.checkpoint = _fixture(self.seed, 1, self.out_dir, self.name)
        self.stream = syn_flood_event_scenario(
            nslkdd_generator(), batch_size=SERVE_BATCH, seed=self.seed
        )
        self.event_batches = list(self.stream.event_batches())
        self.featurized = [batch.records for batch in self.stream.stream]
        self.oracle = sum(_oracle(self.fixture, self.featurized))
        self._sink = None
        self.scored_rows: List[TrafficRecords] = []

    def setup(self) -> float:
        started = clock()
        detector, restore = _restore(self.checkpoint)
        service = DetectionService(detector, max_batch_size=SERVE_BATCH)
        service.open_event_ingress(window=self.stream.window)
        self._observe(service)
        service.run_event_stream(self.event_batches[:1])
        elapsed = clock() - started
        self.service = service
        self.restore_s.append(restore)
        return elapsed

    def _observe(self, service: DetectionService) -> None:
        """Observe commits through the return values of submit/flush."""
        for method in ("submit", "flush"):
            original = getattr(service, method)

            def observed(*args, _original=original):
                results = _original(*args)
                if self._sink is not None:
                    self._sink(args, results)
                return results

            setattr(service, method, observed)

    def instrument(self, tracer: Tracer) -> None:
        service = self.service
        self.probe = _trace_service(service, tracer)
        tracer.wrap(service, "run_event_stream", "serving.run_stream")
        tracer.wrap(service.event_extractor, "extract", "ingest.extract")

    def layer_metrics(self, tracer: Tracer, phase: Phase) -> Dict[str, float]:
        return {**_serving_layer_metrics(tracer, self.probe), **phase.layer}

    def phase(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        service = self.service
        book = DueBook()
        confusion = np.zeros(NUM_CLASSES * NUM_CLASSES, np.int64)
        capture = not self.scored_rows
        extractor = service.event_extractor
        before = extractor.stats_row()
        clock = self.clock

        def sink(args, results):
            now = clock()
            with _span(tracer, "bench.book"):
                if capture and args and len(self.scored_rows) < len(self.featurized):
                    self.scored_rows.append(args[0])
                for result in results:
                    book.commit(now, result.size)
                    confusion[:] += _confusion(
                        result.true_indices, result.class_indices
                    )

        def feed():
            for event_batch in self.event_batches:
                self.tick()
                book.submit(clock(), event_batch.n_records)
                yield event_batch

        self._sink = sink
        passes = 0
        _quiesce()
        started = clock()
        deadline = started + seconds
        try:
            while clock() < deadline:
                service.run_event_stream(feed())
                passes += 1
        finally:
            self._sink = None
        wall = clock() - started
        after = extractor.stats_row()
        rows = after["rows_emitted"] - before["rows_emitted"]
        layer = {
            "ingest.events_per_row": (after["events_seen"] - before["events_seen"])
            / max(rows, 1),
            "ingest.flows_closed": float(
                after["flows_closed"] - before["flows_closed"]
            ),
        }
        if tracer is not None:
            layer["ingest.extract_s"] = tracer.self_time("ingest.extract")
        return Phase(started, wall, book, confusion, passes * self.oracle, layer=layer)

    def checks(self, phase: Phase) -> List[str]:
        failures = super().checks(phase)
        if len(self.scored_rows) != len(self.featurized):
            failures.append("events-batch: the first stream pass was not captured")
        for index, (got, want) in enumerate(zip(self.scored_rows, self.featurized)):
            same = (
                np.array_equal(got.numeric, want.numeric)
                and list(got.labels) == list(want.labels)
                and all(
                    list(got.categorical[name]) == list(want.categorical[name])
                    for name in want.categorical
                )
            )
            if not same:
                failures.append(
                    f"events-batch: extracted rows of batch {index} differ from "
                    "the featurized stream"
                )
                break
        return failures


class PoolOpen(Workload):
    name = "pool-open"
    setup_repeats = 5
    # The offered rate and the age trigger, not the host, set its timings.
    closed_loop = False

    def prepare(self) -> None:
        self.fixture, self.checkpoint = _fixture(self.seed, 1, self.out_dir, self.name)
        stream = TrafficStream.flood_scenario(
            nslkdd_generator(), batch_size=SERVE_BATCH, seed=self.seed
        )
        batches = [batch.records for batch in stream]
        self.base = TrafficRecords.concatenate(batches)
        service = DetectionService(self.fixture, max_batch_size=SERVE_BATCH)
        predicted = np.concatenate([service.score(b).class_indices for b in batches])
        truth = service.pipeline.encode_labels(self.base)
        # Prefix sums of one-hot (true, predicted) pairs: the oracle counts
        # of any contiguous burst are a difference of two rows.
        pairs = np.zeros((len(self.base), NUM_CLASSES * NUM_CLASSES), np.int64)
        pairs[np.arange(len(self.base)), truth * NUM_CLASSES + predicted] = 1
        self.prefix = np.vstack(
            [np.zeros((1, pairs.shape[1]), np.int64), np.cumsum(pairs, axis=0)]
        )
        self.pool: Optional[ProcessWorkerPool] = None
        self.commits: Optional[list] = None
        self.phases_run = 0

    def _bursts(self, sizes: np.ndarray):
        """Slices of the base records starting on a fixed grid, so the
        distinct bursts (and their memory) stay few however long the run."""
        step = BURST_SIZES[1]
        starts = (np.arange(len(sizes)) * step) % (len(self.base) - step)
        cache: Dict[tuple, TrafficRecords] = {}
        bursts = []
        for start, size in zip(starts.tolist(), sizes.tolist()):
            burst = cache.get((start, size))
            if burst is None:
                burst = cache[start, size] = self.base.subset(
                    np.arange(start, start + size)
                )
            bursts.append(burst)
        return bursts, starts

    def _on_commit(self, result) -> None:
        # Keeps only numbers: a phase-long list of result objects would
        # grow the collector's work inside the timed phase.
        commits = self.commits
        if commits is not None:
            commits.append((clock(), result.size, result.latency))
            self.confusion += _confusion(result.true_indices, result.class_indices)

    def setup(self) -> float:
        started = clock()
        detector, restore = _restore(self.checkpoint)
        service = DetectionService(
            detector, max_batch_size=SERVE_BATCH, flush_interval=FLUSH_INTERVAL_S
        )
        pool = ProcessWorkerPool(
            service, num_workers=1, result_callback=self._on_commit
        )
        if self.tracer is not None:
            self._trace_transport(pool, self.tracer)
        self.pool = pool
        spawn = clock()
        pool.start()
        pool.submit(self.base.subset(np.arange(16)))
        pool.flush()
        finished = clock()
        self.restore_s.append(restore)
        self.start_s.append(finished - spawn)
        return finished - started

    @staticmethod
    def _trace_transport(pool: ProcessWorkerPool, tracer: Tracer) -> None:
        """Wrap each channel's send as it opens (set up before start)."""
        transport = pool.transport
        open_channel = transport.open_channel

        def traced_open(*args):
            channel = open_channel(*args)
            tracer.wrap(channel, "send_score", "transport.send")
            return channel

        transport.open_channel = traced_open

    def discard(self) -> None:
        self.close()

    def close(self) -> None:
        pool, self.pool = self.pool, None
        if pool is not None:
            pool.close()

    def instrument(self, tracer: Tracer) -> None:
        pool = self.pool
        for method in ("submit", "poll", "flush"):
            tracer.wrap(pool, method, f"procpool.{method}")
        service = pool.service
        tracer.wrap(service, "observe", "monitor.observe")
        for method in ("encode_labels", "decode_labels"):
            tracer.wrap(service.pipeline, method, "preprocess.transform")
        self.probe = BatchingProbe(service.batcher, tracer)
        self.counters = pool.transport_counters()

    def phase(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        pool = self.pool
        self.phases_run += 1
        offsets, sizes = poisson_schedule(
            self.seed * 16 + self.phases_run, OFFERED_RATE, seconds, *BURST_SIZES
        )
        bursts, starts = self._bursts(sizes)
        lags = np.empty(len(bursts))
        sent = 0
        in_flight: List[int] = []
        commits: list = []
        errors: List[str] = []
        self.confusion = np.zeros(NUM_CLASSES * NUM_CLASSES, np.int64)
        self.commits = commits
        sleep = time.sleep
        _quiesce()
        started = clock() + 0.005
        next_sample = started
        try:
            for index, burst in enumerate(bursts):
                due = started + offsets[index]
                now = clock()
                if now < due:
                    with _span(tracer, "bench.idle"):
                        sleep(due - now)
                    now = clock()
                lags[index] = now - due
                pool.submit(burst)
                sent += 1
                if tracer is not None and now >= next_sample:
                    with tracer.span("bench.sample"):
                        in_flight.append(pool.stats().in_flight)
                    next_sample = now + 0.005
            pool.flush()
        except Exception as exc:  # a surfaced pool error: count, keep going
            errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            self.commits = None
        ended = clock()
        book = DueBook()
        for offset, size in zip(offsets[:sent], sizes[:sent]):
            book.submit(started + offset, int(size))
        for at, size, _ in commits:
            book.commit(at, size)
        starts, ends = starts[:sent], starts[:sent] + sizes[:sent]
        expected = (self.prefix[ends] - self.prefix[starts]).sum(axis=0)
        # The open loop's timed phase ends at the last commit.
        finished = commits[-1][0] if commits and not errors else ended
        layer = {}
        if tracer is not None:
            layer = self._pool_layers(tracer, commits, in_flight)
        return Phase(
            started, finished - started, book, self.confusion, expected,
            errors, lags[:sent], layer,
        )

    def _pool_layers(self, tracer: Tracer, commits, in_flight) -> Dict[str, float]:
        # Per record, like the end-to-end latency: each record of a batch
        # shares the batch's round trip and commit lag.
        sizes = np.array([size for _, size, _ in commits])
        round_trips = np.repeat([latency for _, _, latency in commits], sizes)
        releases = self.probe.releases[-len(commits):] if commits else []
        lags = np.repeat([
            at - released - latency
            for (at, _, latency), (released, _) in zip(commits, releases)
        ], sizes)
        counters = {
            name: count - self.counters[name]
            for name, count in self.pool.transport_counters().items()
        }
        return {
            "procpool.dispatch_s": sum(
                tracer.self_time(f"procpool.{m}") for m in ("submit", "poll", "flush")
            ),
            "procpool.round_trip_ms_p50": percentile(round_trips, 50) * 1e3,
            "procpool.round_trip_ms_p99": percentile(round_trips, 99) * 1e3,
            "procpool.commit_lag_ms_p99": percentile(lags, 99) * 1e3,
            "procpool.in_flight_mean": float(np.mean(in_flight)) if in_flight else 0.0,
            "transport.send_s": tracer.self_time("transport.send"),
            "transport.slot_batches": float(counters["slot_batches"]),
            "transport.inline_batches": float(counters["inline_batches"]),
            "monitor.observe_s": tracer.self_time("monitor.observe"),
            "preprocess.transform_s": tracer.self_time("preprocess.transform"),
        }

    def layer_metrics(self, tracer: Tracer, phase: Phase) -> Dict[str, float]:
        return {**phase.layer, **self.probe.metrics()}

    def checks(self, phase: Phase) -> List[str]:
        failures = super().checks(phase)
        if phase.failed and not phase.errors:
            failures.append(
                f"pool-open: {phase.failed} records vanished without a surfaced error"
            )
        failures.extend(f"pool-open: {error}" for error in phase.errors)
        return failures


class Train(Workload):
    name = "train"
    #: Records per fit (one epoch of 12 steps of 64).
    records = 768
    held_out = 1024
    batch_size = 64

    def prepare(self) -> None:
        self._book: Optional[DueBook] = None
        self._traced = False
        self.losses: List[float] = []

    def setup(self) -> float:
        started = clock()
        self.train_records = load_nslkdd(n_records=self.records, seed=self.seed)
        self.held_out_records = load_nslkdd(
            n_records=self.held_out, seed=self.seed + 7919
        )
        detector = self._detector()
        prepared = detector.preprocessor.fit_transform(self.train_records)
        network = detector.build_untrained(prepared.num_classes, prepared.num_features)
        network.train_on_batch(
            prepared.inputs[: self.batch_size], prepared.targets[: self.batch_size]
        )
        return clock() - started

    def _detector(self) -> PelicanDetector:
        detector = PelicanDetector(
            NSLKDD_SCHEMA, num_blocks=10, epochs=1, batch_size=self.batch_size,
            seed=self.seed,
        )
        # The network is rebuilt inside every fit: hook its construction to
        # observe each training step (and, traced, to wrap its layers).
        build = detector._build_network

        def built(num_classes):
            network = build(num_classes)
            self._observe(network)
            return network

        detector._build_network = built
        return detector

    def _observe(self, network) -> None:
        tracer = self.tracer if self._traced else None
        if tracer is not None:
            tracer.wrap(network.optimizer, "step", "train.optimizer")
            tracer.wrap(network, "loss", "train.loss")
        step = network.train_on_batch

        def observed(x, y):
            self.tick()
            started = self.clock()
            logs = step(x, y)
            finished = self.clock()
            if self._book is not None:
                self._book.submit(started, len(x))
                self._book.commit(finished, len(x))
                self.losses.append(logs["loss"])
            return logs

        network.train_on_batch = observed
        if tracer is not None:
            tracer.wrap(network, "train_on_batch", "train.step")

    def instrument(self, tracer: Tracer) -> None:
        self._traced = True

    def phase(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        detector = self._detector()
        if tracer is not None:
            tracer.wrap(detector, "fit", "train.fit")
        book = DueBook()
        self._book = book
        clock = self.clock
        _quiesce()
        started = clock()
        deadline = started + seconds
        try:
            while clock() < deadline:
                detector.fit(self.train_records)
        finally:
            self._book = None
        wall = clock() - started
        self.detector = detector
        empty = np.zeros(NUM_CLASSES * NUM_CLASSES, np.int64)
        layer = {}
        if tracer is not None:
            step = tracer.self_time("train.step")
            optimizer = tracer.self_time("train.optimizer")
            loss = tracer.self_time("train.loss")
            layer = {
                "train.step_s": step + optimizer + loss,
                "train.optimizer_s": optimizer,
                "train.loss_s": loss,
                "train.fwd_bwd_s": step,
                "train.batches": float(tracer.calls("train.step")),
                "train.samples_per_s": book.committed / wall,
            }
        return Phase(started, wall, book, empty, empty, layer=layer)

    def checks(self, phase: Phase) -> List[str]:
        failures = []
        if not self.losses or not math.isfinite(self.losses[-1]):
            failures.append(f"train: final loss {self.losses[-1:]} is not finite")
        accuracy = self.detector.evaluate(self.held_out_records, fast=True).accuracy
        print(f"train: held-out accuracy {accuracy:.4f}", file=sys.stderr)
        if not accuracy >= TRAIN_ACCURACY_FLOOR:
            failures.append(
                f"train: held-out accuracy {accuracy:.4f} is below the floor "
                f"{TRAIN_ACCURACY_FLOOR}"
            )
        return failures


WORKLOADS = {
    workload.name: workload
    for workload in (PelicanBatch, EventsBatch, PoolOpen, Train)
}


# ---------------------------------------------------------------------- #
# One run
# ---------------------------------------------------------------------- #


def _end_to_end(
    setup_s: List[float], phase: Phase, gauge: Optional[HostGauge]
) -> Dict[str, float]:
    """Medians over up to :data:`WINDOWS` windows of the phase, each
    scaled by the host speed over it when a gauge sampled the phase.

    Records of one commit share its timing, so a window's p90 needs 10
    commits, not only 10 records, beyond it.
    """
    count = max(1, min(WINDOWS, phase.book.commit_count // records_for(90)))
    speed = gauge.speed if gauge is not None else None
    windows = phase.book.windows(phase.started, count, speed)
    return {
        "setup_s": statistics.median(setup_s),
        "verdicts_per_s": statistics.median(rate for rate, _ in windows),
        "latency_p50_ms": statistics.median(
            percentile(latencies, 50) for _, latencies in windows
        ) * 1e3,
        "latency_p90_ms": statistics.median(
            percentile(latencies, 90) for _, latencies in windows
        ) * 1e3,
    }


def _setup_speed() -> float:
    """Host speed factor just before a set-up, from a few kernel runs."""
    gauge = HostGauge(0.0, REFERENCE_S)
    for _ in range(SETUP_GAUGE_SAMPLES):
        gauge.sample()
    return gauge.speed()


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path):
    """Run one workload; returns ``(metrics, attempted, failed, failures)``."""
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.active = False
    workload = WORKLOADS[name](seed, out_dir, tracer)
    failures: List[str] = []
    phases: List[Phase] = []
    metrics: Dict[str, float] = {}
    try:
        workload.prepare()
        setup_s = []
        for repeat in range(workload.setup_repeats):
            if repeat:
                workload.discard()
            setup_s.append(_setup_speed() * workload.setup())
        if not trace:
            gauge = None
            if workload.closed_loop:
                gauge = HostGauge(GAUGE_INTERVAL_S, REFERENCE_S)
            workload.use_gauge(gauge)
            phases.append(workload.phase(seconds, None))
            workload.use_gauge(None)
            if gauge is not None:
                print(f"host speed {gauge.speed():.4f} over "
                      f"{len(gauge.samples)} samples", file=sys.stderr)
            failures += workload.checks(phases[-1])
            metrics = _end_to_end(setup_s, phases[-1], gauge)
        else:
            baseline = workload.phase(seconds / 2.0, None)
            phases.append(baseline)
            failures += workload.checks(baseline)
            tracer.active = True
            workload.instrument(tracer)
            traced = workload.phase(seconds / 2.0, tracer)
            tracer.active = False
            phases.append(traced)
            metrics = _layer_metrics(workload, tracer, baseline, traced)
            failures += workload.checks(traced)
            if workload.restore_s:
                metrics["lifecycle.restore_s"] = statistics.median(workload.restore_s)
            if workload.start_s:
                metrics["procpool.start_s"] = statistics.median(workload.start_s)
            share = metrics["bench.self_time_share"]
            if abs(1.0 - share) > SELF_TIME_TOLERANCE:
                failures.append(
                    f"{name}: stage self times cover {share:.4f} of the traced "
                    f"wall clock (tolerance {SELF_TIME_TOLERANCE})"
                )
            tracer.dump(out_dir / f"spans-{name}-seed{seed}.jsonl")
    finally:
        workload.close()
    attempted = sum(phase.book.submitted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    if not trace:
        metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, attempted, failed, failures


def _layer_metrics(workload: Workload, tracer: Tracer, baseline: Phase, traced: Phase):
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(workload.layer_metrics(tracer, traced))
    thread = threading.current_thread().name
    metrics["bench.self_time_share"] = tracer.thread_self_total(thread) / traced.wall_s
    untraced_rate = baseline.book.committed / baseline.wall_s
    traced_rate = traced.book.committed / traced.wall_s
    metrics["bench.trace_overhead_share"] = 1.0 - traced_rate / untraced_rate
    if traced.lags is not None:
        metrics["bench.generator_lag_ms_p99"] = percentile(traced.lags, 99) * 1e3
    latencies = traced.book.latencies()
    metrics["bench.latency_p99_ms"] = percentile(latencies, 99) * 1e3
    submitted = traced.book.submitted
    metrics["bench.failed_share"] = traced.failed / submitted
    metrics["bench.slo_miss_share"] = (
        int(np.count_nonzero(latencies > SLO_S)) + traced.failed
    ) / submitted
    if set(metrics) != set(PER_LAYER):
        raise KeyError(f"unlisted per-layer metrics {set(metrics) - set(PER_LAYER)}")
    return metrics
