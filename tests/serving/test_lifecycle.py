"""Tests for the detector lifecycle subsystem: checkpoints, shadow
deployment, drift supervision and the zero-drop hot-swap.

The hot-swap acceptance bar — served under live traffic, a swap drops or
duplicates zero records and the confusion counts are bitwise-equal to a
drain-stop-restart deployment at the same boundary — is asserted across
all three execution models (synchronous, process pool, sharded).
"""

import threading
import time

import numpy as np
import pytest

from repro.data import load_nslkdd, load_unswnb15, nslkdd_generator
from repro.metrics.ids_metrics import DetectionReport
from repro.nn.inference import weights_epoch
from repro.scenarios import flood_scenario, retrain_recovery_scenario
from repro.serving import (
    DetectionService,
    DetectorCheckpoint,
    DriftPolicy,
    DriftSupervisor,
    ReplayBuffer,
    ShadowDeployment,
    ProcessWorkerPool,
    ShardedDetectionService,
)

pytestmark = pytest.mark.timeout(120)


@pytest.fixture(scope="module")
def challenger(detector):
    """A second fitted NSL-KDD detector (the promotion target)."""
    clone = detector.clone_architecture(seed=5)
    clone.fit(load_nslkdd(n_records=300, seed=21))
    return clone


@pytest.fixture()
def stream():
    return flood_scenario(
        nslkdd_generator(), batch_size=32, seed=3,
        baseline_batches=3, burst_batches=2, drift_batches=2,
    )


def _service(detector, **overrides):
    kwargs = dict(max_batch_size=32, flush_interval=0.0, window=1 << 20)
    kwargs.update(overrides)
    return DetectionService(detector, **kwargs)


def _counts(report):
    rolling = report.rolling
    return (rolling.tp, rolling.tn, rolling.fp, rolling.fn)


def _serve_batches(sink, batches):
    """Push stream batches through a submit/flush interface, collecting
    every BatchResult in commit order."""
    results = []
    for stream_batch in batches:
        results.extend(sink.submit(stream_batch.records))
    results.extend(sink.flush())
    return results


def _merged_counts(*reports):
    merged = DetectionReport.merge([r.rolling for r in reports])
    return (merged.tp, merged.tn, merged.fp, merged.fn)


# ---------------------------------------------------------------------- #
# DetectorCheckpoint
# ---------------------------------------------------------------------- #
class TestDetectorCheckpoint:
    def test_roundtrip_is_bitwise_identical(self, detector, tmp_path):
        test_records = load_nslkdd(n_records=120, seed=31)
        reference_fast = detector.predict_proba(test_records, fast=True)
        reference_graph = detector.predict_proba(test_records, fast=False)

        path = DetectorCheckpoint.capture(detector).save(tmp_path / "pelican")
        restored = DetectorCheckpoint.load(path).restore()

        assert np.array_equal(
            restored.predict_proba(test_records, fast=True), reference_fast
        )
        assert np.array_equal(
            restored.predict_proba(test_records, fast=False), reference_graph
        )
        assert np.array_equal(
            restored.predict(test_records, fast=True),
            detector.predict(test_records, fast=True),
        )

    def test_folded_bn_cache_is_rederived_after_load(self, detector, tmp_path):
        """Restoring moves the weights epoch, so the fast path's folded
        batch-norm constants are recomputed from the restored buffers."""
        path = DetectorCheckpoint.capture(detector).save(tmp_path / "d")
        epoch_before = weights_epoch()
        restored = DetectorCheckpoint.load(path).restore()
        assert weights_epoch() > epoch_before
        # The rebuilt network's buffers equal the original's bitwise; the
        # bitwise-equal fast predictions above then prove the folded cache
        # was derived from them, not from the fresh build's zeros/ones.
        for ours, theirs in zip(
            restored.network.get_buffers(), detector.network.get_buffers()
        ):
            assert np.array_equal(ours, theirs)

    def test_preprocessor_statistics_restored_exactly(self, detector, tmp_path):
        path = DetectorCheckpoint.capture(detector).save(tmp_path / "d")
        restored = DetectorCheckpoint.load(path).restore()
        original = detector.preprocessor
        clone = restored.preprocessor
        assert clone.encoder.categories_ == original.encoder.categories_
        assert np.array_equal(clone.scaler.mean_, original.scaler.mean_)
        assert np.array_equal(clone.scaler.scale_, original.scaler.scale_)
        assert clone.label_encoder.classes_ == original.label_encoder.classes_

    def test_restored_detector_is_independent(self, detector, tmp_path):
        path = DetectorCheckpoint.capture(detector).save(tmp_path / "d")
        restored = DetectorCheckpoint.load(path).restore()
        test_records = load_nslkdd(n_records=60, seed=32)
        reference = detector.predict_proba(test_records, fast=True)
        # Corrupt the restored copy; the original must not move.
        restored.network.set_weights(
            [w * 0.5 for w in restored.network.get_weights()]
        )
        assert np.array_equal(
            detector.predict_proba(test_records, fast=True), reference
        )

    def test_capture_requires_a_fitted_detector(self):
        from repro.core import PelicanDetector
        from repro.data import NSLKDD_SCHEMA

        unfitted = PelicanDetector(NSLKDD_SCHEMA, num_blocks=1)
        with pytest.raises(RuntimeError, match="fitted"):
            DetectorCheckpoint.capture(unfitted)

    def test_weight_only_archives_are_rejected(self, detector, tmp_path):
        from repro.nn.serialization import save_weights

        path = save_weights(detector.network, tmp_path / "bare")
        with pytest.raises(ValueError, match="not a detector checkpoint"):
            DetectorCheckpoint.load(path)

    def test_restored_detector_serves(self, detector, stream, tmp_path):
        """End to end: a restored detector drops into the serving tier and
        produces the identical stream report."""
        path = DetectorCheckpoint.capture(detector).save(tmp_path / "d")
        restored = DetectorCheckpoint.load(path).restore()
        report_original = _service(detector).run_stream(stream)
        report_restored = _service(restored).run_stream(stream)
        assert _counts(report_original) == _counts(report_restored)


# ---------------------------------------------------------------------- #
# swap_detector
# ---------------------------------------------------------------------- #
class TestSwapDetector:
    def test_swap_rejects_unfitted_and_wrong_schema(self, detector, unsw_detector):
        from repro.core import PelicanDetector
        from repro.data import NSLKDD_SCHEMA

        service = _service(detector)
        with pytest.raises(RuntimeError, match="fitted"):
            service.swap_detector(PelicanDetector(NSLKDD_SCHEMA, num_blocks=1))
        with pytest.raises(ValueError, match="class order"):
            service.swap_detector(unsw_detector)

    def test_swap_returns_the_retired_detector(self, detector, challenger):
        service = _service(detector)
        retired = service.swap_detector(challenger)
        assert retired is detector
        assert service.detector is challenger

    def test_swap_preserves_monitor_history(self, detector, challenger):
        service = _service(detector)
        records = load_nslkdd(n_records=64, seed=33)
        service.process(records)
        seen_before = service.monitor.seen
        service.swap_detector(challenger)
        assert service.monitor.seen == seen_before
        service.process(records)
        assert service.monitor.seen == seen_before + len(records)

    def test_swap_carries_unknown_categorical_counts(self, detector, challenger):
        service = _service(detector)
        records = load_nslkdd(n_records=32, seed=34)
        records.categorical["service"][:] = "never-seen-service"
        service.process(records)
        assert service.report().unknown_categoricals["service"] == 32
        service.swap_detector(challenger)
        assert service.report().unknown_categoricals["service"] == 32
        service.process(records)
        assert service.report().unknown_categoricals["service"] == 64


# ---------------------------------------------------------------------- #
# Zero-drop hot-swap: bitwise equality with drain-stop-restart
# ---------------------------------------------------------------------- #
class TestHotSwapEquality:
    """The acceptance bar, per execution model: a hot-swap at batch
    boundary k produces record-for-record the results of draining service
    A over batches [0, k), stopping, and restarting service B over
    batches [k, end)."""

    BOUNDARY = 4

    def _baseline(self, detector, challenger, batches, make_sink):
        first = _serve_batches(make_sink(detector), batches[: self.BOUNDARY])
        second = _serve_batches(make_sink(challenger), batches[self.BOUNDARY:])
        return first + second

    @staticmethod
    def _predictions(results):
        return np.concatenate([r.predictions for r in results])

    def test_synchronous(self, detector, challenger, stream):
        batches = list(stream)
        service = _service(detector)
        results = []
        for index, stream_batch in enumerate(batches):
            if index == self.BOUNDARY:
                results.extend(service.flush())
                service.swap_detector(challenger)
            results.extend(service.submit(stream_batch.records))
        results.extend(service.flush())

        baseline = self._baseline(
            detector, challenger, batches, lambda d: _service(d)
        )
        assert np.array_equal(
            self._predictions(results), self._predictions(baseline)
        )
        service_a = _service(detector)
        service_b = _service(challenger)
        _serve_batches(service_a, batches[: self.BOUNDARY])
        _serve_batches(service_b, batches[self.BOUNDARY:])
        assert _counts(service.report()) == _merged_counts(
            service_a.report(), service_b.report()
        )
        assert service.report().records == sum(len(b.records) for b in batches)

    def test_worker_pool(self, detector, challenger, stream):
        batches = list(stream)
        service = _service(detector)
        results = []
        with ProcessWorkerPool(service, num_workers=1) as pool:
            for index, stream_batch in enumerate(batches):
                if index == self.BOUNDARY:
                    # flush joins every in-flight batch: the swap commits on
                    # a batch boundary with nothing pending anywhere, and
                    # the pool re-ships the challenger to its child.
                    results.extend(pool.flush())
                    pool.swap_detector(challenger)
                results.extend(pool.submit(stream_batch.records))
            results.extend(pool.flush())

        baseline = self._baseline(
            detector, challenger, batches, lambda d: _service(d)
        )
        assert np.array_equal(
            self._predictions(results), self._predictions(baseline)
        )
        assert service.report().records == sum(len(b.records) for b in batches)

    def test_sharded(self, detector, challenger, stream):
        batches = list(stream)
        sharded = ShardedDetectionService.replicated(
            detector, 2, max_batch_size=32, flush_interval=0.0, window=1 << 20
        )
        results = []
        for index, stream_batch in enumerate(batches):
            if index == self.BOUNDARY:
                results.extend(sharded.flush())
                for shard in sharded.shards:
                    shard.swap_detector(challenger)
            results.extend(sharded.submit(stream_batch.records))
        results.extend(sharded.flush())

        sharded_a = ShardedDetectionService.replicated(
            detector, 2, max_batch_size=32, flush_interval=0.0, window=1 << 20
        )
        sharded_b = ShardedDetectionService.replicated(
            challenger, 2, max_batch_size=32, flush_interval=0.0, window=1 << 20
        )
        _serve_batches(sharded_a, batches[: self.BOUNDARY])
        _serve_batches(sharded_b, batches[self.BOUNDARY:])
        assert _counts(sharded.report()) == _merged_counts(
            sharded_a.report(), sharded_b.report()
        )
        assert sharded.report().records == sum(len(b.records) for b in batches)


# ---------------------------------------------------------------------- #
# ShadowDeployment
# ---------------------------------------------------------------------- #
class TestShadowDeployment:
    def test_identical_challenger_has_zero_deltas(self, detector, stream):
        shadow = ShadowDeployment(_service(detector), detector)
        report = shadow.run_stream(stream)
        assert report.comparison.dr_delta == 0.0
        assert report.comparison.far_delta == 0.0
        assert report.comparison.acc_delta == 0.0
        assert report.challenger.records == report.primary.records
        assert set(report.challenger.phase_reports) == set(
            report.primary.phase_reports
        )

    def test_challenger_scores_every_record(self, detector, challenger, stream):
        shadow = ShadowDeployment(_service(detector), challenger)
        report = shadow.run_stream(stream)
        total = sum(len(b.records) for b in stream)
        assert report.primary.records == total
        assert report.challenger.records == total
        assert report.comparison.records == total
        assert report.comparison.phase_deltas.keys() == (
            report.primary.phase_reports.keys()
        )

    def test_primary_results_are_not_contaminated(self, detector, challenger, stream):
        solo = _service(detector).run_stream(stream)
        shadowed = ShadowDeployment(_service(detector), challenger).run_stream(stream)
        assert _counts(solo) == _counts(shadowed.primary)

    def test_shadow_over_worker_pool(self, detector, challenger, stream):
        pool = ProcessWorkerPool(_service(detector), num_workers=1)
        report = ShadowDeployment(pool, challenger).run_stream(stream)
        solo = _service(detector).run_stream(stream)
        assert _counts(report.primary) == _counts(solo)
        assert report.challenger.records == report.primary.records

    def test_shadow_over_sharded(self, detector, challenger, stream):
        sharded = ShardedDetectionService.replicated(
            detector, 2, max_batch_size=32, flush_interval=0.0, window=1 << 20
        )
        report = ShadowDeployment(sharded, challenger).run_stream(stream)
        assert report.challenger.records == report.primary.records

    def test_class_order_mismatch_rejected(self, detector, unsw_detector):
        with pytest.raises(ValueError, match="class order"):
            ShadowDeployment(_service(detector), unsw_detector)

    def test_challenger_wins_gate(self):
        from repro.serving.lifecycle.shadow import ShadowComparison

        better = ShadowComparison(records=100, dr_delta=0.05, far_delta=-0.01,
                                  acc_delta=0.04)
        worse = ShadowComparison(records=100, dr_delta=-0.02, far_delta=0.08,
                                 acc_delta=-0.05)
        assert better.challenger_wins()
        assert not worse.challenger_wins()
        assert not better.challenger_wins(min_dr_gain=0.10)
        assert better.challenger_wins(max_far_regression=0.0)


# ---------------------------------------------------------------------- #
# DriftPolicy / ReplayBuffer
# ---------------------------------------------------------------------- #
class TestDriftPolicy:
    def _report(self, tp, tn, fp, fn):
        from repro.metrics.ids_metrics import evaluate_detection

        true = np.array([1] * (tp + fn) + [0] * (tn + fp))
        predicted = np.array([1] * tp + [0] * fn + [0] * tn + [1] * fp)
        return evaluate_detection(true, predicted, normal_index=0)

    def test_needs_at_least_one_threshold(self):
        with pytest.raises(ValueError, match="at least one"):
            DriftPolicy()

    def test_far_ceiling_trips(self):
        policy = DriftPolicy(far_ceiling=0.10, min_records=10)
        healthy = self._report(tp=40, tn=50, fp=2, fn=2)
        degraded = self._report(tp=40, tn=40, fp=12, fn=2)
        assert policy.check(healthy, 0) is None
        assert "FAR" in policy.check(degraded, 0)

    def test_dr_floor_trips_only_with_attacks_in_window(self):
        policy = DriftPolicy(dr_floor=0.90, min_records=10)
        degraded = self._report(tp=10, tn=70, fp=1, fn=10)
        benign_only = self._report(tp=0, tn=90, fp=1, fn=0)
        assert "DR" in policy.check(degraded, 0)
        assert policy.check(benign_only, 0) is None  # vacuous DR must not trip

    def test_min_records_defers_quality_checks(self):
        policy = DriftPolicy(far_ceiling=0.01, min_records=1000)
        degraded = self._report(tp=10, tn=10, fp=10, fn=10)
        assert policy.check(degraded, 0) is None

    def test_unknown_ceiling_trips_without_quality_data(self):
        policy = DriftPolicy(unknown_ceiling=50)
        assert policy.check(None, 49) is None
        assert "unknown" in policy.check(None, 50)


class TestReplayBuffer:
    def test_evicts_oldest_whole_batches(self):
        buffer = ReplayBuffer(max_records=100)
        first = load_nslkdd(n_records=60, seed=1)
        second = load_nslkdd(n_records=60, seed=2)
        third = load_nslkdd(n_records=30, seed=3)
        buffer.append(first)
        buffer.append(second)
        assert len(buffer) == 60  # first batch evicted to honour the bound
        buffer.append(third)
        assert len(buffer) == 90
        snapshot = buffer.snapshot()
        assert len(snapshot) == 90
        assert np.array_equal(snapshot.labels[:60], second.labels)
        assert np.array_equal(snapshot.labels[60:], third.labels)

    def test_a_single_oversized_batch_is_kept(self):
        buffer = ReplayBuffer(max_records=10)
        big = load_nslkdd(n_records=40, seed=4)
        buffer.append(big)
        assert len(buffer) == 40  # never evicted down to nothing
        assert len(buffer.snapshot()) == 40

    def test_snapshot_of_empty_buffer_raises(self):
        with pytest.raises(RuntimeError, match="empty"):
            ReplayBuffer().snapshot()


# ---------------------------------------------------------------------- #
# DriftSupervisor
# ---------------------------------------------------------------------- #
class TestDriftSupervisor:
    POLICY = DriftPolicy(far_ceiling=0.0, min_records=32)  # trips on any FP

    def _stub_trainer(self, challenger):
        calls = []

        def trainer(records, serving):
            calls.append(len(records))
            return challenger

        trainer.calls = calls
        return trainer

    def test_sync_lifecycle_events_and_swap(self, detector, challenger, stream):
        service = _service(detector)
        trainer = self._stub_trainer(challenger)
        supervisor = DriftSupervisor(
            service, self.POLICY, trainer=trainer, background=False
        )
        outcome = supervisor.run_stream(stream)

        kinds = [event.kind for event in outcome.events]
        assert kinds[:3] == ["drift-detected", "retrain-complete", "promoted"]
        assert outcome.triggered and outcome.promoted
        assert outcome.recovery_batches is not None
        assert outcome.recovery_seconds is not None
        assert service.detector is challenger
        assert trainer.calls, "trainer was never invoked"
        total = sum(len(b.records) for b in stream)
        assert outcome.report.records == total
        assert len(outcome.dr_curve) == len(list(stream))
        assert sum(
            r.total for r in outcome.report.phase_reports.values()
        ) == total

    @pytest.mark.parametrize("model", ["synchronous", "sharded"])
    def test_supervised_swap_equals_drain_stop_restart(
        self, detector, challenger, stream, model
    ):
        """The acceptance criterion, supervisor-driven, per execution model:
        counts after a supervised hot-swap equal a drain-stop-restart run
        split at the boundary the supervisor actually committed on (the
        process pool's case is in ``test_procpool.py``)."""
        batches = list(stream)
        if model == "synchronous":
            target = _service(detector)
        else:
            target = ShardedDetectionService.replicated(
                detector, 2, max_batch_size=32, flush_interval=0.0,
                window=1 << 20,
            )
        supervisor = DriftSupervisor(
            target, self.POLICY, trainer=self._stub_trainer(challenger),
            background=False,
        )
        outcome = supervisor.run_stream(batches)
        assert outcome.promoted
        promoted = next(e for e in outcome.events if e.kind == "promoted")
        boundary = promoted.batch_index + 1  # swap commits after that batch

        service_a = _service(detector)
        service_b = _service(challenger)
        _serve_batches(service_a, batches[:boundary])
        _serve_batches(service_b, batches[boundary:])
        assert _counts(outcome.report) == _merged_counts(
            service_a.report(), service_b.report()
        )
        assert outcome.report.records == sum(len(b.records) for b in batches)

    def test_background_retrain_promotes(self, detector, challenger):
        service = _service(detector)
        trained = threading.Event()

        def slow_trainer(records, serving):
            time.sleep(0.02)
            trained.set()
            return challenger

        def paced(batches):
            # Serving continues while the trainer works; pacing guarantees
            # batch boundaries still occur after the retrain completes.
            for stream_batch in batches:
                yield stream_batch
                if not trained.is_set():
                    time.sleep(0.005)

        supervisor = DriftSupervisor(
            service, self.POLICY, trainer=slow_trainer, background=True
        )
        outcome = supervisor.run_stream(paced(self._long_stream()))
        assert outcome.promoted
        assert service.detector is challenger
        assert outcome.report.records == self._long_stream().total_records

    @staticmethod
    def _long_stream():
        return flood_scenario(
            nslkdd_generator(), batch_size=32, seed=3,
            baseline_batches=6, burst_batches=4, drift_batches=4,
        )

    def test_retrain_failure_is_an_event_not_a_crash(self, detector, stream):
        def failing_trainer(records, serving):
            raise RuntimeError("no GPU today")

        service = _service(detector)
        supervisor = DriftSupervisor(
            service, self.POLICY, trainer=failing_trainer, background=False,
            max_retrains=1,
        )
        outcome = supervisor.run_stream(stream)
        kinds = [event.kind for event in outcome.events]
        assert kinds == ["drift-detected", "retrain-failed"]
        assert service.detector is detector
        assert outcome.report.records == sum(len(b.records) for b in stream)

    def test_trial_rejection_keeps_the_primary(self, detector, challenger, stream):
        service = _service(detector)
        supervisor = DriftSupervisor(
            service, self.POLICY, trainer=self._stub_trainer(challenger),
            background=False, shadow_batches=2,
            promote_if=lambda trial, rolling: False,
        )
        outcome = supervisor.run_stream(self._long_stream())
        kinds = [event.kind for event in outcome.events]
        assert "trial-rejected" in kinds
        assert "promoted" not in kinds
        assert service.detector is detector

    def test_trial_approval_promotes_with_detail(self, detector, challenger):
        service = _service(detector)
        supervisor = DriftSupervisor(
            service, self.POLICY, trainer=self._stub_trainer(challenger),
            background=False, shadow_batches=2,
            promote_if=lambda trial, rolling: True,
        )
        outcome = supervisor.run_stream(self._long_stream())
        promoted = next(e for e in outcome.events if e.kind == "promoted")
        assert "trial" in promoted.detail
        assert service.detector is challenger

    def test_unknown_categorical_trigger(self, detector, challenger):
        def inject_unknown(batches):
            for stream_batch in batches:
                stream_batch.records.categorical["service"][:] = "vocab-drift"
                yield stream_batch

        service = _service(detector)
        supervisor = DriftSupervisor(
            service,
            DriftPolicy(unknown_ceiling=64),
            trainer=self._stub_trainer(challenger),
            background=False,
        )
        outcome = supervisor.run_stream(inject_unknown(self._long_stream()))
        detected = next(e for e in outcome.events if e.kind == "drift-detected")
        assert "unknown" in detected.detail["reason"]
        assert outcome.promoted

    def test_supervised_pool_feeds_a_standing_result_callback(
        self, detector, challenger, stream
    ):
        """A supervised pool keeps its own result callback: the callback sees
        every committed result in order, and the supervised counts equal a
        callback-less supervised run's."""
        batches = list(stream)

        def supervise(pool):
            # unknown_ceiling=0 trips at the first boundary whatever the
            # pool has committed by then, so both runs swap after batch 1.
            supervisor = DriftSupervisor(
                pool,
                DriftPolicy(unknown_ceiling=0),
                trainer=self._stub_trainer(challenger),
                background=False,
                max_retrains=1,
            )
            return supervisor.run_stream(batches)

        delivered = []
        with_callback = supervise(
            ProcessWorkerPool(
                _service(detector), num_workers=1,
                result_callback=delivered.append,
            )
        )
        without_callback = supervise(
            ProcessWorkerPool(_service(detector), num_workers=1)
        )

        pipeline = _service(detector).pipeline
        np.testing.assert_array_equal(
            np.concatenate([result.true_indices for result in delivered]),
            np.concatenate([pipeline.encode_labels(b.records) for b in batches]),
        )
        assert [e.kind for e in with_callback.events] == [
            e.kind for e in without_callback.events
        ]
        assert with_callback.promoted
        assert _counts(with_callback.report) == _counts(without_callback.report)
        assert {
            phase: report.as_dict()
            for phase, report in with_callback.report.phase_reports.items()
        } == {
            phase: report.as_dict()
            for phase, report in without_callback.report.phase_reports.items()
        }

    def test_recovery_on_the_retrain_recovery_preset(self, detector):
        """The headline story: evasion drift tanks DR, the supervisor
        retrains on its replay buffer and post-swap DR recovers."""
        stream = retrain_recovery_scenario(
            nslkdd_generator(), batch_size=48, seed=0,
            baseline_batches=3, onset_batches=4, degraded_batches=6,
            recovery_batches=4,
        )
        unsupervised = _service(detector, window=512).run_stream(stream)
        degraded_dr = unsupervised.phase_reports[
            "recovery-window"
        ].detection_rate

        service = _service(detector, window=512)
        supervisor = DriftSupervisor(
            service,
            DriftPolicy(dr_floor=0.80, far_ceiling=0.20, min_records=128),
            background=False,  # default trainer: clone + fit on the replay
            replay_records=1024,
        )
        outcome = supervisor.run_stream(stream)
        assert outcome.promoted, [str(e) for e in outcome.events]
        recovered_dr = outcome.report.phase_reports[
            "recovery-window"
        ].detection_rate
        assert recovered_dr > degraded_dr + 0.2, (
            f"supervised DR {recovered_dr:.3f} did not recover from "
            f"unsupervised {degraded_dr:.3f}"
        )
