"""Tests for shard routing and the merged sharded service reports."""

import numpy as np
import pytest

from repro.data import NSLKDD_SCHEMA, TrafficStream, load_nslkdd, nslkdd_generator
from repro.data.generator import StreamBatch
from repro.serving import DetectionService, ShardedDetectionService, ShardRouter

pytestmark = pytest.mark.timeout(300)


def make_stream(seed=11, batch_size=48):
    return TrafficStream.flood_scenario(nslkdd_generator(), batch_size=batch_size, seed=seed)


def empty_stream(schema, batches=3):
    """A stream whose every batch carries zero records (edge-of-feed lulls)."""
    empty = load_nslkdd(n_records=10, seed=0).subset(range(0))
    for index in range(batches):
        yield StreamBatch(
            records=empty, phase="idle", index=index, phase_index=index, mix={}
        )


class TestShardRouter:
    def test_validation(self):
        with pytest.raises(ValueError, match="n_shards"):
            ShardRouter(0)
        with pytest.raises(ValueError, match="unknown policy"):
            ShardRouter(2, "round-robin")
        with pytest.raises(ValueError, match="assignment"):
            ShardRouter(2, "dataset")
        with pytest.raises(ValueError, match="outside"):
            ShardRouter(2, "dataset", {"nsl-kdd": 5})
        with pytest.raises(ValueError, match="outside"):
            ShardRouter(2, "class-family", {"dos": 0}, default=7)

    def test_replica_striping_balances_and_covers(self, traffic):
        router = ShardRouter(3, "replica")
        parts = router.route(traffic)
        sizes = [len(indices) for indices in parts]
        assert sum(sizes) == len(traffic)
        assert max(sizes) - min(sizes) <= 1
        together = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(together, np.arange(len(traffic)))
        # The stripe continues across submissions instead of restarting.
        followup = router.route(traffic.subset(range(1)))
        (shard,) = [i for i, part in enumerate(followup) if len(part)]
        assert shard == len(traffic) % 3

    def test_dataset_policy_routes_whole_submissions(self, traffic):
        router = ShardRouter(2, "dataset", {"nsl-kdd": 1, "unsw-nb15": 0})
        parts = router.route(traffic)
        assert len(parts[0]) == 0
        assert len(parts[1]) == len(traffic)

    def test_dataset_policy_unknown_schema_raises_without_default(self, traffic):
        router = ShardRouter(2, "dataset", {"unsw-nb15": 0})
        with pytest.raises(KeyError, match="no shard assigned"):
            router.route(traffic)
        with_default = ShardRouter(2, "dataset", {"unsw-nb15": 0}, default=1)
        assert len(with_default.route(traffic)[1]) == len(traffic)

    def test_class_family_policy_routes_per_record(self, traffic):
        assignment = {"normal": 0, "dos": 0, "probe": 1, "r2l": 1, "u2r": 1}
        router = ShardRouter(2, "class-family", assignment)
        parts = router.route(traffic)
        labels = traffic.labels
        for shard, indices in enumerate(parts):
            assert all(assignment[str(label)] == shard for label in labels[indices])
        assert sum(len(indices) for indices in parts) == len(traffic)

    def test_class_family_policy_with_custom_key(self, traffic):
        column = NSLKDD_SCHEMA.categorical_names[0]
        values = sorted(set(traffic.categorical[column]))
        assignment = {value: index % 2 for index, value in enumerate(values)}
        router = ShardRouter(
            2, "class-family", assignment,
            key=lambda records: records.categorical[column],
        )
        parts = router.route(traffic)
        assert sum(len(indices) for indices in parts) == len(traffic)


class TestShardedDetectionService:
    def test_shard_count_must_match_router(self, detector):
        service = DetectionService(detector)
        with pytest.raises(ValueError, match="router expects"):
            ShardedDetectionService([service], ShardRouter(2, "replica"))

    def test_replica_sharding_matches_single_service_counts(self, detector):
        """Acceptance: a replica-sharded run merges to the exact confusion
        counts (rolling and per phase) of the single-service run."""
        window = 4096  # wider than the stream so nothing is evicted
        single = DetectionService(
            detector, max_batch_size=96, flush_interval=0.0, window=window
        )
        single_report = single.run_stream(make_stream())

        sharded = ShardedDetectionService.replicated(
            detector, 3, max_batch_size=96, flush_interval=0.0, window=window
        )
        merged_report = sharded.run_stream(make_stream())

        assert merged_report.records == single_report.records
        assert merged_report.rolling.as_dict() == single_report.rolling.as_dict()
        assert set(merged_report.phase_reports) == set(single_report.phase_reports)
        for phase, expected in single_report.phase_reports.items():
            assert merged_report.phase_reports[phase].as_dict() == expected.as_dict()
        # Every shard actually served a share of the traffic.
        assert len(merged_report.shard_reports) == 3
        assert all(
            report.records > 0 for report in merged_report.shard_reports.values()
        )

    def test_sharded_run_with_workers_matches_inline_run(self, detector):
        window = 4096
        inline = ShardedDetectionService.replicated(
            detector, 2, max_batch_size=96, flush_interval=0.0, window=window
        )
        inline_report = inline.run_stream(make_stream())
        pooled = ShardedDetectionService.replicated(
            detector, 2, max_batch_size=96, flush_interval=0.0, window=window
        )
        pooled_report = pooled.run_stream(make_stream(), num_workers=1)
        assert pooled_report.records == inline_report.records
        assert pooled_report.rolling.as_dict() == inline_report.rolling.as_dict()
        for phase, expected in inline_report.phase_reports.items():
            assert pooled_report.phase_reports[phase].as_dict() == expected.as_dict()

    def test_class_family_sharding_partitions_the_stream(self, detector):
        assignment = {"normal": 0, "dos": 0, "probe": 1, "r2l": 1, "u2r": 1}
        shards = [
            DetectionService(detector, max_batch_size=96, flush_interval=0.0)
            for _ in range(2)
        ]
        sharded = ShardedDetectionService(
            shards,
            ShardRouter(2, "class-family", assignment),
            names=["volumetric", "stealth"],
        )
        stream = TrafficStream.probe_sweep_scenario(
            nslkdd_generator(), batch_size=48, seed=7
        )
        report = sharded.run_stream(stream)
        assert report.records == stream.total_records
        assert set(report.shard_reports) == {"volumetric", "stealth"}
        # The sweep phases carry probe traffic, so the stealth shard works.
        assert report.shard_reports["stealth"].records > 0
        assert "horizontal-sweep" in report.phase_reports
        assert "family-mix" in report.phase_reports

    def test_run_stream_clears_prequeued_shard_tails_before_attribution(
        self, detector, traffic
    ):
        sharded = ShardedDetectionService.replicated(
            detector, 2, max_batch_size=1024, flush_interval=1e9, window=4096
        )
        sharded.submit(traffic)  # tails stay queued on both shards
        stream = make_stream()
        report = sharded.run_stream(stream)
        assert report.records == stream.total_records + len(traffic)
        assert sum(r.total for r in report.phase_reports.values()) == (
            stream.total_records
        )

    def test_all_empty_stream_does_not_crash(self, detector):
        single = DetectionService(detector)
        single_report = single.run_stream(empty_stream(NSLKDD_SCHEMA))
        assert single_report.records == 0
        assert single_report.rolling is None
        assert single_report.phase_reports == {}

        sharded = ShardedDetectionService.replicated(detector, 2)
        merged = sharded.run_stream(empty_stream(NSLKDD_SCHEMA))
        assert merged.records == 0
        assert merged.batches == 0
        assert merged.rolling is None
        assert merged.throughput == 0.0
        assert merged.phase_reports == {}

    def test_merged_report_sums_unknown_categoricals(self, detector, traffic):
        sharded = ShardedDetectionService.replicated(detector, 2, flush_interval=0.0)
        drifted = traffic.subset(range(len(traffic)))
        column = NSLKDD_SCHEMA.categorical_names[0]
        drifted.categorical[column][:20] = "quic-v2"
        sharded.submit(drifted)
        sharded.flush()
        report = sharded.report()
        assert report.unknown_categoricals[column] == 20
        assert report.records == len(traffic)
