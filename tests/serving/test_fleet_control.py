"""Tests for the fleet control plane: autoscaling and staged rollouts.

Acceptance bars (ISSUE 6):

* replaying a recorded autoscale/rollout schedule reproduces bit-equal
  confusion counts and an identical decision timeline;
* mid-rollout DR degradation demonstrably rolls every already-swapped
  shard back to the primary checkpoint.
"""

import time

import numpy as np
import pytest

from repro.data import load_nslkdd, nslkdd_generator
from repro.scenarios import (
    build_replica_fleet,
    flood_scenario,
    overload_scenario,
    rollout_drift_scenario,
)
from repro.serving import (
    AutoscalePolicy,
    DetectionService,
    DetectorCheckpoint,
    DriftPolicy,
    DriftSupervisor,
    FleetController,
    ProcessWorkerPool,
    RolloutPolicy,
)

pytestmark = pytest.mark.timeout(300)


def _counts(report):
    rolling = report.rolling
    return (rolling.tp, rolling.tn, rolling.fp, rolling.fn)


def _fleet(detector, n_shards=2, **overrides):
    kwargs = dict(max_batch_size=32, flush_interval=0.0, window=1 << 20)
    kwargs.update(overrides)
    return build_replica_fleet(detector, n_shards, **kwargs)


def _poisoned(detector):
    """A scoring-broken challenger: predicts the normal class for every
    record, so its DR is exactly zero while FAR stays zero too."""
    challenger = DetectorCheckpoint.capture(detector).restore()
    final = challenger.network.layers[-1]
    normal_index = challenger.preprocessor.label_encoder.classes_.index(
        challenger.schema.normal_class
    )
    final.kernel.data[...] = 0.0
    final.bias.data[...] = 0.0
    final.bias.data[normal_index] = 10.0
    return challenger


@pytest.fixture(scope="module")
def overload_stream():
    return overload_scenario(nslkdd_generator(), batch_size=48, seed=3)


@pytest.fixture(scope="module")
def rollout_stream():
    return rollout_drift_scenario(nslkdd_generator(), batch_size=48, seed=5)


# ---------------------------------------------------------------------- #
# Pool seams: stats snapshots and live resize
# ---------------------------------------------------------------------- #
class TestPoolSeams:
    def test_stats_snapshot_fields(self, detector, traffic):
        service = DetectionService(
            detector, max_batch_size=32, flush_interval=0.0, window=256
        )
        with ProcessWorkerPool(service, num_workers=1, timer_interval=0) as pool:
            pool.submit(traffic)
            pool.join()
            stats = pool.stats()
        assert stats.workers == 1
        assert stats.queue_depth == 0
        assert stats.in_flight == 0
        assert stats.busy_fraction == 0.0
        assert stats.backlog_per_worker == 0.0

    def test_resize_requires_a_running_pool(self, detector):
        service = DetectionService(detector, max_batch_size=32)
        pool = ProcessWorkerPool(service, num_workers=1, timer_interval=0)
        with pytest.raises(RuntimeError, match="resize"):
            pool.resize(3)
        with pool:
            with pytest.raises(ValueError, match="positive"):
                pool.resize(0)

    def test_resize_mid_stream_keeps_counts_equal(self, detector, traffic):
        """Children spawn from a checkpoint and retire through the
        graveyard on batch boundaries; the report still equals sync."""
        sync = DetectionService(
            detector, max_batch_size=32, flush_interval=0.0, window=1 << 20
        )
        for start in range(0, len(traffic), 50):
            sync.submit(traffic.subset(range(start, min(start + 50, len(traffic)))))
        sync.flush()

        service = DetectionService(
            detector, max_batch_size=32, flush_interval=0.0, window=1 << 20
        )
        with ProcessWorkerPool(service, num_workers=1, timer_interval=0) as pool:
            sizes = [2, 3, 1, 2]
            for step, start in enumerate(range(0, len(traffic), 50)):
                pool.submit(
                    traffic.subset(range(start, min(start + 50, len(traffic))))
                )
                pool.resize(sizes[step % len(sizes)])
            pool.flush()
        assert _counts(service.report()) == _counts(sync.report())

    def test_utilization_is_exported_and_bounded(self, detector, traffic):
        service = DetectionService(
            detector, max_batch_size=32, flush_interval=0.0, window=256
        )
        service.submit(traffic)
        service.flush()
        snapshot = service.throughput.snapshot()
        assert 0.0 < snapshot["utilization"] <= 1.0
        assert snapshot["utilization"] == service.throughput.utilization


# ---------------------------------------------------------------------- #
# Autoscaling
# ---------------------------------------------------------------------- #
class TestAutoscale:
    # Hair-trigger thresholds: any in-flight batch at a control tick means
    # grow, any idle tick means shrink — so a run over ~18 ticks records
    # scaling events in both directions regardless of host speed.  Two
    # children per shard at most: every grow spawns an interpreter.
    POLICY = AutoscalePolicy(
        min_workers=1, max_workers=2,
        scale_up_backlog=0.01, scale_down_backlog=0.005,
    )

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="hysteresis"):
            AutoscalePolicy(scale_up_backlog=0.2, scale_down_backlog=0.5)
        with pytest.raises(ValueError, match="min_workers"):
            AutoscalePolicy(min_workers=0)
        with pytest.raises(ValueError, match="max_workers"):
            AutoscalePolicy(min_workers=4, max_workers=2)

    def test_autoscaled_counts_equal_the_synchronous_fleet(
        self, detector, overload_stream
    ):
        controller = FleetController(
            _fleet(detector), num_workers=1, autoscale=self.POLICY
        )
        outcome = controller.run_stream(overload_stream)
        sync_report = _fleet(detector).run_stream(overload_stream)

        assert outcome.report.records == sync_report.records
        assert _counts(outcome.report) == _counts(sync_report)
        resizes = [e for e in outcome.events if e.kind == "resize"]
        assert resizes, "the overload preset should force scaling events"
        for event in resizes:
            assert 1 <= event.detail["workers"] <= self.POLICY.max_workers
            assert event.detail["workers"] != event.detail["workers_before"]
        # The timeline rides along on the merged report.
        assert outcome.report.timeline == tuple(outcome.events)

    def test_replaying_the_realized_schedule_is_bit_equal(
        self, detector, overload_stream
    ):
        """Acceptance bar: record an autoscaled run, replay its schedule
        with the autoscaler off, and get bit-equal counts plus an
        identical decision timeline."""
        recorded = FleetController(
            _fleet(detector), num_workers=1, autoscale=self.POLICY
        ).run_stream(overload_stream)

        replayed = FleetController(
            _fleet(detector), num_workers=1, schedule=recorded.schedule()
        ).run_stream(overload_stream)

        assert _counts(replayed.report) == _counts(recorded.report)
        assert replayed.report.records == recorded.report.records
        assert replayed.schedule() == recorded.schedule()
        # And replaying the replay is a fixed point.
        again = FleetController(
            _fleet(detector), num_workers=1, schedule=replayed.schedule()
        ).run_stream(overload_stream)
        assert _counts(again.report) == _counts(recorded.report)

    def test_fixed_run_equals_autoscaled_run(self, detector, overload_stream):
        """The determinism contract's other face: a plain fixed-size fleet
        serves the same confusion counts as any autoscaled run."""
        fixed = FleetController(_fleet(detector), num_workers=1).run_stream(
            overload_stream
        )
        assert not fixed.resized
        auto = FleetController(
            _fleet(detector), num_workers=1, autoscale=self.POLICY
        ).run_stream(overload_stream)
        assert _counts(fixed.report) == _counts(auto.report)


# ---------------------------------------------------------------------- #
# Staged canary rollout
# ---------------------------------------------------------------------- #
class TestRollout:
    def test_identical_challenger_promotes_and_completes(
        self, detector, rollout_stream
    ):
        fleet = _fleet(detector)
        controller = FleetController(
            fleet, num_workers=1,
            rollout=RolloutPolicy(
                shadow_batches=3, stagger_batches=2, min_watch_records=32
            ),
        )
        challenger = DetectorCheckpoint.capture(detector).restore()
        controller.request_rollout(challenger)
        outcome = controller.run_stream(rollout_stream)

        kinds = [event.kind for event in outcome.events]
        assert kinds[:2] == ["shadow-start", "promote"]
        assert kinds.count("swap") == 2
        assert outcome.promoted and outcome.completed
        assert not outcome.rolled_back
        assert all(shard.detector is challenger for shard in fleet.shards)
        # The canary swaps first, the follower after the stagger.
        swaps = [e for e in outcome.events if e.kind == "swap"]
        assert swaps[0].shard == 0
        assert swaps[1].batch_index - swaps[0].batch_index >= 2

    def test_losing_challenger_is_rejected(self, detector, rollout_stream):
        fleet = _fleet(detector)
        primaries = [shard.detector for shard in fleet.shards]
        controller = FleetController(
            fleet, num_workers=1,
            rollout=RolloutPolicy(shadow_batches=2),  # default strict gate
        )
        controller.request_rollout(_poisoned(detector))
        outcome = controller.run_stream(rollout_stream)

        kinds = [event.kind for event in outcome.events]
        assert "reject" in kinds
        assert "swap" not in kinds and "promote" not in kinds
        assert [shard.detector for shard in fleet.shards] == primaries

    def test_mid_rollout_degradation_rolls_back_swapped_shards(
        self, detector, rollout_stream
    ):
        """Acceptance bar: the challenger passes a (deliberately
        permissive) gate, both shards swap, the post-swap watch sees DR
        collapse below the floor, and every swapped shard reverts to its
        primary."""
        fleet = _fleet(detector)
        primaries = [shard.detector for shard in fleet.shards]
        controller = FleetController(
            fleet, num_workers=1,
            rollout=RolloutPolicy(
                shadow_batches=2,
                stagger_batches=1,
                # Permissive gate: the poisoned challenger promotes ...
                min_dr_gain=-1.0, max_far_regression=1.0,
                # ... and a high watch threshold holds the floor judgment
                # until after both shards have swapped.
                dr_floor=0.5, min_watch_records=200,
            ),
        )
        controller.request_rollout(_poisoned(detector))
        outcome = controller.run_stream(rollout_stream)

        kinds = [event.kind for event in outcome.events]
        assert outcome.rolled_back and not outcome.completed
        assert kinds.count("swap") == 2, "both shards must swap before rollback"
        assert kinds.count("rollback") == 2
        assert kinds.index("rollback") > kinds.index("swap")
        rollback_shards = {
            e.shard for e in outcome.events if e.kind == "rollback"
        }
        assert rollback_shards == {0, 1}
        assert [shard.detector for shard in fleet.shards] == primaries
        # The rollback reason is recorded with the observed DR and floor.
        rollback = next(e for e in outcome.events if e.kind == "rollback")
        assert float(rollback.detail["dr"]) < float(rollback.detail["floor"])

    def test_rollout_requires_a_homogeneous_fleet(
        self, detector, unsw_detector
    ):
        controller = FleetController(_fleet(detector), num_workers=1)
        with pytest.raises(ValueError, match="schema"):
            controller.request_rollout(unsw_detector)

    def test_rollout_accepts_a_checkpoint(self, detector, rollout_stream):
        fleet = _fleet(detector)
        controller = FleetController(
            fleet, num_workers=1,
            rollout=RolloutPolicy(
                shadow_batches=2, stagger_batches=1, min_watch_records=32
            ),
        )
        controller.request_rollout(DetectorCheckpoint.capture(detector))
        outcome = controller.run_stream(rollout_stream)
        assert outcome.promoted and outcome.completed

    def test_unfinished_trial_is_reported(self, detector, rollout_stream):
        controller = FleetController(
            _fleet(detector), num_workers=1,
            rollout=RolloutPolicy(shadow_batches=10_000),
        )
        controller.request_rollout(DetectorCheckpoint.capture(detector).restore())
        outcome = controller.run_stream(rollout_stream, max_batches=4)
        kinds = [event.kind for event in outcome.events]
        assert kinds == ["shadow-start", "trial-abandoned"]


# ---------------------------------------------------------------------- #
# Supervisor delegation and structured retrain failures
# ---------------------------------------------------------------------- #
class TestSupervisorIntegration:
    POLICY = DriftPolicy(far_ceiling=0.0, min_records=32)  # trips on any FP

    @staticmethod
    def _stream():
        return flood_scenario(
            nslkdd_generator(), batch_size=32, seed=3,
            baseline_batches=6, burst_batches=4, drift_batches=4,
        )

    def test_promotion_hook_delegates_instead_of_swapping(self, detector):
        challenger = DetectorCheckpoint.capture(detector).restore()
        handed_off = []
        service = DetectionService(
            detector, max_batch_size=32, flush_interval=0.0, window=1 << 20
        )
        supervisor = DriftSupervisor(
            service, self.POLICY,
            trainer=lambda records, serving: challenger,
            background=False, shadow_batches=2,
            promote_if=lambda trial, rolling: True,
            promotion_hook=handed_off.append,
            max_retrains=1,  # one delegation; the primary never improves
        )
        outcome = supervisor.run_stream(self._stream())

        kinds = [event.kind for event in outcome.events]
        assert "promotion-delegated" in kinds
        assert "promoted" not in kinds
        assert handed_off == [challenger]
        # Delegation hands the challenger over; the supervisor's own
        # service keeps serving the primary.
        assert service.detector is detector

    def test_retrain_failure_records_structured_detail(self, detector):
        def failing_trainer(records, serving):
            raise ValueError("synthetic retrain explosion")

        service = DetectionService(
            detector, max_batch_size=32, flush_interval=0.0, window=1 << 20
        )
        supervisor = DriftSupervisor(
            service, self.POLICY, trainer=failing_trainer,
            background=False, max_retrains=1,
        )
        outcome = supervisor.run_stream(self._stream())
        failed = next(e for e in outcome.events if e.kind == "retrain-failed")
        assert failed.detail["error_type"] == "ValueError"
        assert "synthetic retrain explosion" in failed.detail["error_message"]


# ---------------------------------------------------------------------- #
# Multi-core scaling (satellite: arms on >= 4-core hosts)
# ---------------------------------------------------------------------- #
class TestProcessFleetScaling:
    @pytest.mark.multicore(4)
    @pytest.mark.slow
    def test_autoscaled_process_fleet_keeps_up_with_the_fixed_fleet(
        self, detector
    ):
        """On a multi-core host an autoscaled process fleet (1 -> up to 4
        workers per shard) must serve the overload preset at least as fast
        as the single-worker fixed fleet it started as, child-spawn
        overhead included (a small tolerance absorbs scheduler noise)."""
        stream = overload_scenario(
            nslkdd_generator(), batch_size=512, seed=3,
            calm_batches=2, surge_batches=12, cooldown_batches=2,
        )

        def run(autoscale):
            fleet = _fleet(detector, max_batch_size=128)
            controller = FleetController(
                fleet, num_workers=1, autoscale=autoscale,
            )
            started = time.monotonic()
            outcome = controller.run_stream(stream)
            return time.monotonic() - started, outcome

        fixed_elapsed, fixed = run(None)
        auto_elapsed, auto = run(
            AutoscalePolicy(
                min_workers=1, max_workers=4,
                scale_up_backlog=0.01, scale_down_backlog=0.005,
            )
        )
        assert auto.resized
        assert _counts(auto.report) == _counts(fixed.report)
        assert auto_elapsed <= fixed_elapsed * 1.10, (
            f"autoscaled fleet took {auto_elapsed:.2f}s vs fixed "
            f"{fixed_elapsed:.2f}s"
        )
