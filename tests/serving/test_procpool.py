"""Tests for the process-parallel execution model (ProcessWorkerPool).

The tier-1 acceptance bar, mirrored from the thread pool's:

* a stream served through child processes is **bit-equal** to the
  synchronous run — confusion counts, record/batch totals and the
  per-phase breakdown (tiny segments, spawn start method, so the smoke
  stays cheap and safe under the threaded test runner);
* a hot-swap re-ships the challenger's checkpoint to every child and the
  run's counts equal a drain-stop-restart deployment at the same boundary
  — including under a :class:`DriftSupervisor`;
* per-shard process pools behind :class:`ShardedDetectionService` merge to
  the same counts as the inline run.

Scaling claims live in the ``multicore``-marked test, skipped on
single-core hosts (the dev container), and in
``benchmarks/test_bench_serving_throughput.py``.
"""

import numpy as np
import pytest

from repro.data import nslkdd_generator
from repro.scenarios import flood_scenario
from repro.serving import (
    DetectionService,
    DriftPolicy,
    DriftSupervisor,
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
        pool = ProcessWorkerPool(_service(detector))
        with pytest.raises(RuntimeError, match="not running"):
            pool.submit(traffic)

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
        """Regression for the inherited-stats blind spot: the base snapshot
        infers in_flight from sequence-counter distance, which under
        head-of-line blocking reads reorder-buffer-parked replies as busy
        children.  The override must report from the pool's own books."""
        from repro.serving import PoolStats, WorkerPool

        pool = ProcessWorkerPool(_service(detector), num_workers=2)
        # White-box head-of-line scenario: 6 batches dispatched, none
        # committed (sequence 0's reply is missing), children owe replies
        # for 2, and 4 replies are parked in the reorder buffer.
        pool._next_sequence = 6
        pool._next_commit = 0
        pool._inflight = {0: (None, 0, 0.0), 3: (None, 1, 0.0)}
        pool._out_of_order = {1: None, 2: None, 4: None, 5: None}

        base = WorkerPool.stats(pool)
        stats = pool.stats()

        assert base.in_flight == 6  # the blind spot: counter distance
        assert base.busy_fraction == 1.0
        assert isinstance(stats, PoolStats)
        assert stats.in_flight == 6  # 2 owed + 4 buffered — all accounted
        assert stats.busy_fraction == 1.0  # 2 owed across 2 workers

        # Now the pure head-of-line case: every reply arrived except the
        # committed prefix — the children are idle, and the override must
        # say so while the base formula still reads "saturated".
        pool._inflight = {}
        pool._out_of_order = {1: None, 2: None, 3: None, 4: None, 5: None}
        base = WorkerPool.stats(pool)
        stats = pool.stats()
        assert base.busy_fraction == 1.0
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
        pooled = fleet().run_stream(
            stream, num_workers=1, worker_backend="process"
        )
        assert _counts(pooled) == _counts(inline)
        assert pooled.records == inline.records

    def test_unknown_backend_is_rejected(self, detector):
        fleet = ShardedDetectionService.replicated(
            detector, 2, max_batch_size=32, flush_interval=0.0
        )
        with pytest.raises(ValueError, match="worker backend"):
            fleet.run_stream(iter(()), num_workers=1, worker_backend="mpi")


@pytest.mark.multicore(2)
def test_process_pool_scales_past_the_gil(detector):
    """Only meaningful with real cores (skipped on single-core hosts):
    two checkpoint-rehydrated children must beat the synchronous path on
    a serving workload the GIL caps for the thread pool.  The margin is
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
