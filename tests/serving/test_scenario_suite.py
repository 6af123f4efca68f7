"""Tests for the ScenarioSuite cross-model sweep.

Includes the tier-1 cross-model smoke: *every* preset in the library, at
tiny segment lengths, served synchronously, through a process pool and
through a replica-sharded fleet (inline and on per-shard process pools)
with bit-equal confusion counts — so the serving tier's ordering guarantee
is checked on every ``pytest`` run, not only in the benchmark harness.
"""

import pytest

from repro.scenarios import (
    ScenarioSuite,
    flood_scenario,
    imbalance_shift_scenario,
    probe_sweep_scenario,
    retrain_recovery_scenario,
    slow_dos_scenario,
)
from repro.scenarios.suite import FLEET_MODELS, SINGLE_STREAM_MODELS
from repro.data import nslkdd_generator
from repro.serving import (
    DetectionService,
    DriftPolicy,
    ProcessWorkerPool,
    ShardedDetectionService,
)

pytestmark = pytest.mark.timeout(300)


def trimmed_flood(generator, batch_size=64, seed=0):
    return flood_scenario(
        generator, batch_size=batch_size, seed=seed,
        baseline_batches=2, burst_batches=1, drift_batches=2,
    )


def trimmed_slow_dos(generator, batch_size=64, seed=0):
    return slow_dos_scenario(
        generator, batch_size=batch_size, seed=seed,
        baseline_batches=1, creep_batches=2, hold_batches=3, spike_batches=2,
    )


TRIMMED = {"flood": trimmed_flood, "slow-dos": trimmed_slow_dos}


def overall_counts(row):
    overall = row["overall"]
    return (overall["tp"], overall["tn"], overall["fp"], overall["fn"])


@pytest.fixture(scope="module")
def results(fleet_detectors):
    suite = ScenarioSuite(
        fleet_detectors, batch_size=32, seed=0, scenarios=TRIMMED,
        num_workers=1,
    )
    return suite.run()


@pytest.fixture(scope="module")
def challenger_stub(detector):
    """A free 'retrainer': hands back the already fitted detector, so
    lifecycle plumbing tests never pay for a real training run."""

    def trainer(records, serving):
        return detector

    return trainer


class TestScenarioSuite:
    def test_every_scenario_and_model_is_swept(self, results):
        assert set(results["scenarios"]) == {"flood", "slow-dos", "fleet"}
        for name in TRIMMED:
            models = results["scenarios"][name]["models"]
            assert set(models) == set(SINGLE_STREAM_MODELS)
        assert set(results["scenarios"]["fleet"]["models"]) == set(FLEET_MODELS)

    def test_rows_carry_quality_and_throughput(self, results):
        for entry in results["scenarios"].values():
            for row in entry["models"].values():
                assert row["records"] == entry["total_records"]
                assert row["throughput_rps"] > 0
                assert 0.0 <= row["overall"]["dr"] <= 1.0
                assert 0.0 <= row["overall"]["far"] <= 1.0
                assert row["phases"], "per-phase breakdown missing"
                phase_total = sum(q["records"] for q in row["phases"].values())
                assert phase_total == entry["total_records"]

    def test_execution_models_agree_on_the_confusion_counts(self, results):
        for name, entry in results["scenarios"].items():
            counts = {overall_counts(row) for row in entry["models"].values()}
            assert len(counts) == 1, f"{name}: models disagree on counts"

    def test_rate_hints_are_recorded(self, results):
        hints = results["scenarios"]["slow-dos"]["rate_hints"]
        assert hints["low-and-slow"] < hints["benign-baseline"]

    def test_fleet_covers_both_corpora(self, results):
        entry = results["scenarios"]["fleet"]
        assert entry["dataset"] == "nsl-kdd+unsw-nb15"
        row = entry["models"]["sharded"]
        assert any(phase.startswith("nsl-kdd:") for phase in row["phases"])
        assert any(phase.startswith("unsw-nb15:") for phase in row["phases"])

    def test_fleet_is_skipped_without_the_second_detector(self, detector):
        suite = ScenarioSuite(
            {"nsl-kdd": detector}, batch_size=32, seed=0, scenarios=TRIMMED,
            num_workers=1,
        )
        results = suite.run()
        assert "fleet" not in results["scenarios"]

    def test_include_fleet_false_skips_it(self, fleet_detectors):
        suite = ScenarioSuite(
            fleet_detectors, batch_size=32, seed=0,
            scenarios={"flood": trimmed_flood}, include_fleet=False,
            num_workers=1,
        )
        assert "fleet" not in suite.run()["scenarios"]

    def test_mis_keyed_detectors_are_rejected(self, detector):
        with pytest.raises(ValueError, match="fitted on schema"):
            ScenarioSuite({"unsw-nb15": detector})
        with pytest.raises(ValueError, match="at least one"):
            ScenarioSuite({})


    def test_default_registry_covers_the_whole_library(self, detector):
        suite = ScenarioSuite({"nsl-kdd": detector})
        assert set(suite.scenarios) == {
            "flood", "probe-sweep", "imbalance-shift", "slow-dos",
            "retrain-recovery",
        }

    def test_lifecycle_entry_records_recovery(self, detector, challenger_stub):
        """The suite's lifecycle run produces the retrain-recovery baseline
        row: events, DR/FAR curves and recovery time."""
        suite = ScenarioSuite(
            {"nsl-kdd": detector}, batch_size=32, seed=0,
            scenarios={}, include_fleet=False,
            include_lifecycle=True,
            lifecycle_policy=DriftPolicy(
                dr_floor=0.80, far_ceiling=0.20, min_records=64,
            ),
            lifecycle_trainer=challenger_stub,
            lifecycle_scenario=lambda g, batch_size=32, seed=0: (
                retrain_recovery_scenario(
                    g, batch_size=batch_size, seed=seed,
                    baseline_batches=2, onset_batches=3,
                    degraded_batches=4, recovery_batches=2,
                )
            ),
        )
        results = suite.run()
        entry = results["lifecycle"]
        assert entry["scenario"] == "retrain-recovery"
        assert entry["triggered"] and entry["promoted"]
        assert entry["recovery_batches"] is not None
        assert len(entry["dr_curve"]) == entry["total_batches"]
        assert len(entry["far_curve"]) == entry["total_batches"]
        assert entry["report"]["records"] == entry["total_records"]
        kinds = [event["kind"] for event in entry["events"]]
        assert kinds[:3] == ["drift-detected", "retrain-complete", "promoted"]

    def test_lifecycle_is_off_by_default(self, results):
        assert "lifecycle" not in results

    def test_fleet_control_entry_records_both_loops(self, detector):
        """The suite's fleet-control run produces the overload row (scaling
        events, counts equal to the uncontrolled run) and the rollout row
        (promotion, per-stage swaps, stage timings)."""
        suite = ScenarioSuite(
            {"nsl-kdd": detector}, batch_size=32, seed=0,
            scenarios={}, include_fleet=False,
            include_fleet_control=True, num_workers=1,
        )
        results = suite.run()
        entry = results["fleet_control"]

        overload = entry["overload"]
        assert overload["report"]["records"] == overload["total_records"]
        assert overload["counts_equal_uncontrolled"]
        assert overload["scaling_events"] == overload["event_counts"].get(
            "resize", 0
        )

        rollout = entry["rollout"]
        assert rollout["report"]["records"] == rollout["total_records"]
        assert rollout["promoted"] and rollout["completed"]
        assert not rollout["rolled_back"]
        assert rollout["event_counts"]["swap"] == 2
        assert len(rollout["stage_timings_s"]) == 1
        kinds = [event["kind"] for event in rollout["events"]]
        assert kinds[:2] == ["shadow-start", "promote"]

    def test_fleet_control_is_off_by_default(self, results):
        assert "fleet_control" not in results


# ---------------------------------------------------------------------- #
# Tier-1 cross-model smoke: every preset, every execution model, bit-equal
# ---------------------------------------------------------------------- #
def tiny_flood(generator, batch_size=16, seed=0):
    return flood_scenario(
        generator, batch_size=batch_size, seed=seed,
        baseline_batches=2, burst_batches=1, drift_batches=2,
    )


def tiny_probe_sweep(generator, batch_size=16, seed=0):
    return probe_sweep_scenario(
        generator, batch_size=batch_size, seed=seed,
        baseline_batches=1, sweep_batches=2, scan_batches=1,
    )


def tiny_imbalance_shift(generator, batch_size=16, seed=0):
    return imbalance_shift_scenario(
        generator, batch_size=batch_size, seed=seed,
        steady_batches=2, flip_batches=1,
    )


def tiny_slow_dos(generator, batch_size=16, seed=0):
    return slow_dos_scenario(
        generator, batch_size=batch_size, seed=seed,
        baseline_batches=1, creep_batches=1, hold_batches=3, spike_batches=2,
    )


def tiny_retrain_recovery(generator, batch_size=16, seed=0):
    return retrain_recovery_scenario(
        generator, batch_size=batch_size, seed=seed,
        baseline_batches=1, onset_batches=2, degraded_batches=2,
        recovery_batches=1,
    )


TINY_PRESETS = {
    "flood": tiny_flood,
    "probe-sweep": tiny_probe_sweep,
    "imbalance-shift": tiny_imbalance_shift,
    "slow-dos": tiny_slow_dos,
    "retrain-recovery": tiny_retrain_recovery,
}


class TestEveryPresetCrossModelSmoke:
    """Scaled-down cross-model agreement, in tier-1 on every pytest run.

    Every preset in the library runs synchronously, through a one-child
    process pool and through a two-shard replica fleet, inline and on
    one-child per-shard pools; the confusion counts must match bit for bit
    (the in-order-commit and replica-merge guarantees).  Segment lengths
    are tiny, so the sweep's cost is the children's start-up.
    """

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("name", sorted(TINY_PRESETS))
    def test_every_execution_model_agrees_bit_for_bit(self, detector, name):
        stream = TINY_PRESETS[name](nslkdd_generator(), batch_size=16, seed=0)
        kwargs = dict(max_batch_size=16, flush_interval=0.0, window=1 << 20)

        def sharded():
            return ShardedDetectionService.replicated(detector, 2, **kwargs)

        sync_report = DetectionService(detector, **kwargs).run_stream(stream)
        reports = {
            "process-pool": ProcessWorkerPool(
                DetectionService(detector, **kwargs), num_workers=1
            ).run_stream(stream),
            "sharded": sharded().run_stream(stream),
            "sharded-pools": sharded().run_stream(stream, num_workers=1),
        }

        def counts(report):
            return (report.tp, report.tn, report.fp, report.fn)

        for model, report in reports.items():
            assert counts(report.rolling) == counts(sync_report.rolling), model
            assert report.records == stream.total_records, model
            assert set(report.phase_reports) == set(sync_report.phase_reports)
            for phase, sync_phase in sync_report.phase_reports.items():
                assert counts(report.phase_reports[phase]) == counts(
                    sync_phase
                ), f"{name}/{model}/{phase}: per-phase counts diverge"

    def test_tiny_registry_mirrors_the_default_registry(self, detector):
        assert set(TINY_PRESETS) == set(ScenarioSuite({"nsl-kdd": detector}).scenarios)
