"""Tests for the process-parallel execution model (ProcessWorkerPool).

The tier-1 acceptance bar:

* a stream served through child processes is **bit-equal** to the
  synchronous run — confusion counts, record/batch totals and the
  per-phase breakdown (tiny segments, spawn start method, so the smoke
  stays cheap and safe under the threaded test runner);
* a hot-swap re-ships the challenger's checkpoint to every child and the
  run's counts equal a drain-stop-restart deployment at the same boundary
  — including under a :class:`DriftSupervisor`;
* per-shard process pools behind :class:`ShardedDetectionService` merge to
  the same counts as the inline run;
* the pool surface itself: start-up refusals, scoring errors in a child,
  join timeouts, concurrent submitters, the age timer, stream ownership —
  and no child outlives a pool whose start (or a sharded fleet whose
  pool opening) fails partway.

Tests spawn one child unless they need more: every child is a fresh
interpreter importing :mod:`repro`.

Scaling claims live in the ``multicore``-marked test, skipped on
single-core hosts (the dev container), and in
``benchmarks/test_bench_serving_throughput.py``.
"""

import multiprocessing
import threading

import numpy as np
import pytest

from repro.data import nslkdd_generator
from repro.scenarios import flood_scenario
from repro.serving import (
    DetectionService,
    DriftPolicy,
    DriftSupervisor,
    PoolStats,
    ProcessWorkerPool,
    ShardedDetectionService,
)

pytestmark = pytest.mark.timeout(300)


def _service(detector, **overrides):
    kwargs = dict(max_batch_size=32, flush_interval=0.0, window=1 << 20)
    kwargs.update(overrides)
    return DetectionService(detector, **kwargs)


def _counts(report):
    rolling = report.rolling
    return (rolling.tp, rolling.tn, rolling.fp, rolling.fn)


def _serve_batches(sink, batches):
    results = []
    for stream_batch in batches:
        results.extend(sink.submit(stream_batch.records))
    results.extend(sink.flush())
    return results


def _serving_children():
    return [
        child for child in multiprocessing.active_children()
        if child.name.startswith("serving-proc-")
    ]


def _tiny_stream(seed=3):
    return flood_scenario(
        nslkdd_generator(), batch_size=32, seed=seed,
        baseline_batches=3, burst_batches=2, drift_batches=2,
    )


@pytest.fixture(scope="module")
def challenger(detector):
    """A second fitted NSL-KDD detector (the swap target)."""
    from repro.data import load_nslkdd

    clone = detector.clone_architecture(seed=5)
    clone.fit(load_nslkdd(n_records=300, seed=21))
    return clone


class TestProcessPoolBitEquality:
    def test_stream_report_equals_the_synchronous_run(self, detector):
        stream = _tiny_stream()
        sync_report = _service(detector).run_stream(stream)
        pool_report = ProcessWorkerPool(
            _service(detector), num_workers=2
        ).run_stream(stream)

        assert _counts(pool_report) == _counts(sync_report)
        assert pool_report.records == sync_report.records
        assert pool_report.batches == sync_report.batches
        assert set(pool_report.phase_reports) == set(sync_report.phase_reports)
        for phase, sync_phase in sync_report.phase_reports.items():
            pool_phase = pool_report.phase_reports[phase]
            assert (
                sync_phase.tp, sync_phase.tn, sync_phase.fp, sync_phase.fn
            ) == (
                pool_phase.tp, pool_phase.tn, pool_phase.fp, pool_phase.fn
            ), f"{phase}: per-phase counts diverge"

    def test_submit_flush_results_commit_in_submission_order(self, detector):
        batches = list(_tiny_stream())
        sync_results = _serve_batches(_service(detector), batches)
        service = _service(detector)
        with ProcessWorkerPool(service, num_workers=2) as pool:
            pool_results = _serve_batches(pool, batches)

        assert [r.size for r in pool_results] == [r.size for r in sync_results]
        assert np.array_equal(
            np.concatenate([r.class_indices for r in pool_results]),
            np.concatenate([r.class_indices for r in sync_results]),
        )
        assert np.array_equal(
            np.concatenate([r.true_indices for r in pool_results]),
            np.concatenate([r.true_indices for r in sync_results]),
        )

    def test_unknown_categorical_counts_flow_back_to_the_parent(self, detector, traffic):
        """Children tally vocabulary drift; the parent's report must show
        it exactly as a synchronous run would."""
        drifted = traffic.subset(range(len(traffic)))
        drifted.categorical["service"] = np.array(
            ["no-such-service"] * len(drifted), dtype=object
        )
        sync_service = _service(detector)
        sync_service.process(drifted)
        service = _service(detector)
        with ProcessWorkerPool(service, num_workers=2) as pool:
            pool.submit(drifted)
            pool.flush()
        assert (
            service.report().unknown_categoricals
            == sync_service.report().unknown_categoricals
        )

    def test_refuses_submissions_when_not_running(self, detector, traffic):
        service = _service(detector)
        pool = ProcessWorkerPool(service)
        with pytest.raises(RuntimeError, match="not running"):
            pool.submit(traffic)  # 150 records trip the size trigger
        # The refusal must come before the batcher is drained — otherwise
        # the due batches would be lost instead of scored after start().
        assert service.batcher.pending_count == 0
        assert service.throughput.total_records == 0
        with pytest.raises(RuntimeError, match="not running"):
            pool.flush()
        with pytest.raises(RuntimeError, match="not running"):
            pool.poll()

    def test_a_killed_child_surfaces_an_error_instead_of_hanging(self, detector):
        """Robustness bar: SIGTERM one child mid-run (the OOM-kill stand-in)
        and the pool must keep serving on the survivor, then raise the
        recorded death on the next flush — never deadlock.  This is the
        scenario that motivated per-child result queues: a child killed
        between a queue write and the lock release would wedge every other
        writer of a shared queue forever."""
        import time as time_module

        batches = list(_tiny_stream())
        service = _service(detector)
        pool = ProcessWorkerPool(service, num_workers=2)
        pool.start()
        try:
            pool.submit(batches[0].records)
            pool.submit(batches[1].records)
            pool.join()  # both children demonstrably serving
            pool._slots[0].process.terminate()
            pool._slots[0].process.join()
            time_module.sleep(0.3)  # let the liveness check diagnose it
            with pytest.raises(RuntimeError, match="exited unexpectedly"):
                for stream_batch in batches[2:]:
                    pool.submit(stream_batch.records)
                pool.flush()
        finally:
            try:
                pool.close()
            except RuntimeError:
                pass  # the recorded death may surface here again
        # The survivor kept scoring: everything either committed or was
        # written off explicitly — nothing is silently stuck in flight.
        assert pool._inflight == {}


class TestPoolSurface:
    def test_invalid_configuration_raises(self, detector):
        service = _service(detector)
        with pytest.raises(ValueError, match="num_workers"):
            ProcessWorkerPool(service, num_workers=0)
        with pytest.raises(ValueError, match="timer_interval"):
            ProcessWorkerPool(service, timer_interval=-1.0)

    def test_a_failed_start_stops_the_children_already_spawned(self, detector):
        """If spawning child k fails, children 0..k-1 must not keep
        running behind a pool that never started (and whose close()
        therefore has nothing to stop)."""
        pool = ProcessWorkerPool(_service(detector), num_workers=2)
        open_channel = pool.transport.open_channel
        opened = []

        def open_one_channel(context):
            if opened:
                raise OSError("no more queues")
            opened.append(open_channel(context))
            return opened[-1]

        pool.transport.open_channel = open_one_channel
        with pytest.raises(OSError, match="no more queues"):
            pool.start()
        assert not pool.running
        pool.close()
        assert _serving_children() == []

    def test_empty_submission_is_safe(self, detector, traffic):
        service = DetectionService(detector)
        with ProcessWorkerPool(service, num_workers=1, timer_interval=0) as pool:
            assert pool.submit(traffic.subset(range(0))) == []
            assert pool.flush() == []

    def test_a_child_scoring_error_skips_its_hole_and_surfaces_on_flush(
        self, detector, traffic
    ):
        """The child replies ("error", sequence, traceback) for a batch it
        cannot score: that sequence is committed as a hole, the batches
        after it still commit in order, and the error surfaces once."""
        good = [traffic.subset(range(0, 32)), traffic.subset(range(64, 96))]
        broken = traffic.subset(range(32, 64))
        # One numeric column short: the child's rebuild of the batch
        # rejects it.  An exactly batch-sized submission travels as is.
        broken.numeric = broken.numeric[:, :-1]
        service = _service(detector)
        with ProcessWorkerPool(service, num_workers=1, timer_interval=0) as pool:
            results = pool.submit(good[0])
            results += pool.submit(broken)
            results += pool.submit(good[1])
            with pytest.raises(RuntimeError, match="scoring failed"):
                pool.flush()
            results += pool.collect()
            assert pool.flush() == []  # surfaced once; the pool serves on
        oracle = _service(detector)
        assert [r.size for r in results] == [32, 32]
        np.testing.assert_array_equal(
            np.concatenate([r.class_indices for r in results]),
            np.concatenate([oracle.score(g).class_indices for g in good]),
        )
        assert service.report().records == 64

    def test_join_times_out_when_work_is_outstanding(self, detector, traffic):
        with ProcessWorkerPool(
            _service(detector), num_workers=1, timer_interval=0
        ) as pool:
            pool.submit(traffic.subset(range(32)))
            # The child is still importing repro: nothing can commit yet.
            with pytest.raises(TimeoutError, match="outstanding"):
                pool.join(timeout=0.01)
            pool.join(timeout=60.0)

    def test_concurrent_submitters_lose_no_records(self, detector, traffic):
        """Several threads hammering submit() while the timer drains
        partials: every record must be scored exactly once."""
        service = DetectionService(
            detector, max_batch_size=32, flush_interval=0.0
        )
        chunks = [traffic.subset(range(i, len(traffic), 5)) for i in range(5)]
        with ProcessWorkerPool(
            service, num_workers=1, timer_interval=0.001
        ) as pool:
            threads = [
                threading.Thread(target=pool.submit, args=(chunk,))
                for chunk in chunks
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
                assert not thread.is_alive()
            pool.flush()
        assert service.throughput.total_records == len(traffic)
        assert service.monitor.seen == len(traffic)

    def test_age_trigger_fires_on_the_timer(self, detector, traffic):
        """A partial batch must be scored without any further pool calls:
        close() leaves queued records in the batcher, so only the timer
        can have released them."""
        service = DetectionService(
            detector, max_batch_size=1024, flush_interval=0.02
        )
        scored = threading.Event()
        with ProcessWorkerPool(
            service, num_workers=1, result_callback=lambda result: scored.set()
        ) as pool:
            pool.submit(traffic.subset(range(10)))  # far below the size trigger
            assert scored.wait(timeout=60.0), "timer never fired the age trigger"
        assert service.report().records == 10


class TestStreamOwnership:
    def test_run_stream_on_running_pool_drains_prior_work_first(
        self, detector, traffic
    ):
        """A tail queued before run_stream must not consume phase records."""
        service = DetectionService(
            detector, max_batch_size=1024, flush_interval=1e9, window=4096
        )
        stream = _tiny_stream()
        with ProcessWorkerPool(service, num_workers=1, timer_interval=0) as pool:
            pool.submit(traffic.subset(range(10)))  # stays queued (no trigger)
            report = pool.run_stream(stream)
            # The pre-stream tail was scored outside the attribution FIFO
            # and stays collectable; the phase breakdown covers exactly the
            # stream's records.
            leftover = pool.collect()
        assert [r.size for r in leftover] == [10]
        assert report.records == stream.total_records + 10
        assert sum(r.total for r in report.phase_reports.values()) == (
            stream.total_records
        )

    def test_submit_is_rejected_while_a_stream_is_running(self, detector, traffic):
        """External submissions mid-stream would corrupt phase attribution,
        so run_stream owns the pool until it returns."""
        service = _service(detector)
        first_served = threading.Event()
        resume = threading.Event()

        def gated_stream():
            batches = list(_tiny_stream())
            yield batches[0]
            first_served.set()
            assert resume.wait(60.0)
            yield from batches[1:]

        with ProcessWorkerPool(service, num_workers=1) as pool:
            runner = threading.Thread(target=pool.run_stream, args=(gated_stream(),))
            runner.start()
            assert first_served.wait(60.0)
            with pytest.raises(RuntimeError, match="serving a stream"):
                pool.submit(traffic)
            resume.set()
            runner.join(60.0)
            assert not runner.is_alive()
            # Ownership is released once the stream completed.
            pool.submit(traffic.subset(range(5)))
            pool.flush()

    def test_run_stream_keeps_feeding_a_standing_result_callback(self, detector):
        delivered = []
        stream = _tiny_stream()
        pool = ProcessWorkerPool(
            _service(detector), num_workers=1, result_callback=delivered.append
        )
        pool.run_stream(stream)
        assert sum(result.size for result in delivered) == stream.total_records


class TestTransportCounters:
    def test_counters_cover_every_batch_across_a_retiring_resize(self, detector):
        """The counters the benchmark reads: every batch travels pickled on
        a queue, including those a child retired mid-stream had scored."""
        pool = ProcessWorkerPool(_service(detector), num_workers=2)

        def stream():
            for index, stream_batch in enumerate(_tiny_stream()):
                if index == 3:
                    pool.resize(1)
                yield stream_batch

        report = pool.run_stream(stream())
        assert pool.num_workers == 1
        assert report.batches > 3
        assert pool.transport_counters() == {
            "slot_batches": 0, "inline_batches": report.batches,
        }


class TestPoolStats:
    def test_stats_counts_shipped_and_buffered_not_counter_distance(
        self, detector
    ):
        """Regression for the counter-distance blind spot: inferring
        in_flight from ``dispatched - next_commit`` reads replies parked in
        the reorder buffer under head-of-line blocking as busy children.
        The snapshot must report from the pool's own books."""
        pool = ProcessWorkerPool(_service(detector), num_workers=2)
        # White-box head-of-line scenario: 6 batches dispatched, none
        # committed (sequence 0's reply is missing), children owe replies
        # for 2, and 4 replies are parked in the reorder buffer.
        pool._next_sequence = 6
        pool._next_commit = 0
        pool._inflight = {0: (None, 0, 0.0), 3: (None, 1, 0.0)}
        pool._out_of_order = {1: None, 2: None, 4: None, 5: None}

        stats = pool.stats()
        assert isinstance(stats, PoolStats)
        assert stats.in_flight == 6  # 2 owed + 4 buffered — all accounted
        assert stats.busy_fraction == 1.0  # 2 owed across 2 workers

        # Now the pure head-of-line case: every reply arrived except the
        # committed prefix — the children are idle, and the snapshot must
        # say so although the counter distance still reads "saturated".
        pool._inflight = {}
        pool._out_of_order = {1: None, 2: None, 3: None, 4: None, 5: None}
        stats = pool.stats()
        assert stats.busy_fraction == 0.0
        assert stats.in_flight == 5  # buffered only; nothing owed


class TestProcessPoolHotSwap:
    BOUNDARY = 4

    def test_swap_reships_the_checkpoint_to_children(
        self, detector, challenger
    ):
        """After swap_detector, child predictions come from the challenger:
        the run equals a drain-stop-restart deployment at the boundary."""
        batches = list(_tiny_stream())
        service = _service(detector)
        results = []
        with ProcessWorkerPool(service, num_workers=2) as pool:
            for index, stream_batch in enumerate(batches):
                if index == self.BOUNDARY:
                    results.extend(pool.flush())
                    retired = pool.swap_detector(challenger)
                    assert retired is detector
                results.extend(pool.submit(stream_batch.records))
            results.extend(pool.flush())

        baseline = _serve_batches(
            _service(detector), batches[: self.BOUNDARY]
        ) + _serve_batches(_service(challenger), batches[self.BOUNDARY:])
        assert np.array_equal(
            np.concatenate([r.predictions for r in results]),
            np.concatenate([r.predictions for r in baseline]),
        )
        assert service.report().records == sum(len(b.records) for b in batches)

    def test_supervised_swap_equals_drain_stop_restart(
        self, detector, challenger
    ):
        """The acceptance bar: a DriftSupervisor over a process pool
        re-ships the checkpoint at promotion, and the run's confusion
        counts equal serving [0, boundary) on the old model and
        [boundary, end) on the new one."""
        from repro.metrics.ids_metrics import DetectionReport

        stream = _tiny_stream(seed=7)
        batches = list(stream)
        service = _service(detector)
        pool = ProcessWorkerPool(service, num_workers=2)
        supervisor = DriftSupervisor(
            pool,
            policy=DriftPolicy(far_ceiling=0.0, min_records=1),
            trainer=lambda records, serving: challenger,
            background=False,
        )

        def paced():
            # Drain between batches: the tiny stream would otherwise be
            # fully submitted before the spawned children commit anything,
            # and the policy would never see a rolling report.
            for stream_batch in batches:
                yield stream_batch
                if pool.running:
                    pool.join()

        outcome = supervisor.run_stream(paced())
        assert outcome.promoted, [str(e) for e in outcome.events]
        promoted = next(e for e in outcome.events if e.kind == "promoted")
        boundary = promoted.batch_index + 1  # the swap commits after that batch

        service_a = _service(detector)
        service_b = _service(challenger)
        _serve_batches(service_a, batches[:boundary])
        _serve_batches(service_b, batches[boundary:])
        merged = DetectionReport.merge(
            [service_a.monitor.report(), service_b.monitor.report()]
        )
        supervised = service.monitor.report()
        assert (supervised.tp, supervised.tn, supervised.fp, supervised.fn) == (
            merged.tp, merged.tn, merged.fp, merged.fn
        )
        assert outcome.report.records == sum(len(b.records) for b in batches)


class TestShardedProcessBackend:
    def test_replica_shards_on_process_pools_match_the_inline_run(
        self, detector
    ):
        stream = _tiny_stream()

        def fleet():
            return ShardedDetectionService.replicated(
                detector, 2, max_batch_size=32, flush_interval=0.0,
                window=1 << 20,
            )

        inline = fleet().run_stream(stream)
        pooled = fleet().run_stream(stream, num_workers=1)
        assert _counts(pooled) == _counts(inline)
        assert pooled.records == inline.records

    def test_open_pools_closes_the_started_pools_when_a_later_one_fails(
        self, detector, monkeypatch
    ):
        """A shard whose pool cannot start must not strand the pools the
        fleet already started: their children are stopped before the
        error propagates."""
        fleet = ShardedDetectionService.replicated(
            detector, 2, max_batch_size=32, flush_interval=0.0
        )
        start = ProcessWorkerPool.start
        started = []

        def start_once(pool):
            if started:
                raise OSError("no room for another child")
            started.append(pool)
            return start(pool)

        monkeypatch.setattr(ProcessWorkerPool, "start", start_once)
        with pytest.raises(OSError, match="no room"):
            fleet.open_pools(1)
        assert len(started) == 1 and not started[0].running
        assert _serving_children() == []


@pytest.mark.multicore(2)
def test_process_pool_scales_past_the_gil(detector):
    """Only meaningful with real cores (skipped on single-core hosts):
    two checkpoint-rehydrated children must beat the synchronous path on
    a serving workload the GIL caps for in-process threads.  The margin is
    deliberately loose — this is a does-parallelism-exist gate, not the
    benchmark (see BENCH_serving.json for the curve)."""
    stream = flood_scenario(
        nslkdd_generator(), batch_size=64, seed=0,
        baseline_batches=30, burst_batches=20, drift_batches=20,
    )
    sync_report = _service(detector, max_batch_size=64).run_stream(stream)
    pool_report = ProcessWorkerPool(
        _service(detector, max_batch_size=64), num_workers=2
    ).run_stream(stream)
    assert _counts(pool_report) == _counts(sync_report)
    assert pool_report.throughput >= 1.1 * sync_report.throughput, (
        f"2-process pool reached {pool_report.throughput:,.0f} rec/s vs "
        f"{sync_report.throughput:,.0f} synchronous on a multi-core host"
    )
