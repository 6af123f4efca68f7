"""Cross-dataset fleet serving: two corpora, dataset routing, one report."""

import numpy as np
import pytest

from repro.scenarios import build_fleet_service, fleet_scenario
from repro.serving import DetectionService

pytestmark = pytest.mark.timeout(300)


@pytest.fixture()
def fleet_stream():
    return fleet_scenario(batch_size=32, seed=0)


class TestBuildFleetService:
    def test_one_shard_per_detector_with_dataset_routing(self, fleet_detectors):
        fleet = build_fleet_service(fleet_detectors)
        assert fleet.names == ["nsl-kdd", "unsw-nb15"]
        assert fleet.router.policy == "dataset"
        assert fleet.router.assignment == {"nsl-kdd": 0, "unsw-nb15": 1}

    def test_mis_keyed_detector_is_rejected(self, detector):
        with pytest.raises(ValueError, match="fitted on schema"):
            build_fleet_service({"unsw-nb15": detector})
        with pytest.raises(ValueError, match="at least one detector"):
            build_fleet_service({})

    def test_service_kwargs_reach_the_shards(self, fleet_detectors):
        fleet = build_fleet_service(fleet_detectors, max_batch_size=32, window=64)
        assert all(shard.batcher.max_batch_size == 32 for shard in fleet.shards)
        assert all(shard.monitor.window == 64 for shard in fleet.shards)


class TestFleetServing:
    def test_records_route_to_their_corpus_shard(self, fleet_detectors, fleet_stream):
        fleet = build_fleet_service(
            fleet_detectors, max_batch_size=64, flush_interval=0.0, window=4096
        )
        report = fleet.run_stream(fleet_stream)
        per_corpus = {
            stream.schema.name: stream.total_records
            for stream in fleet_stream.streams
        }
        assert report.records == fleet_stream.total_records
        for name, shard_report in report.shard_reports.items():
            assert shard_report.records == per_corpus[name]

    def test_phase_reports_keep_the_corpus_prefix(self, fleet_detectors, fleet_stream):
        fleet = build_fleet_service(
            fleet_detectors, max_batch_size=64, flush_interval=0.0, window=4096
        )
        report = fleet.run_stream(fleet_stream)
        expected = {
            f"{stream.schema.name}:{phase.name}"
            for stream in fleet_stream.streams
            for phase in stream.phases
        }
        assert set(report.phase_reports) == expected
        phase_total = sum(r.total for r in report.phase_reports.values())
        assert phase_total == fleet_stream.total_records

    def test_merged_counts_equal_per_corpus_single_services(
        self, fleet_detectors, fleet_stream
    ):
        fleet = build_fleet_service(
            fleet_detectors, max_batch_size=64, flush_interval=0.0, window=4096
        )
        merged = fleet.run_stream(fleet_stream).rolling
        totals = np.zeros(4, dtype=np.int64)
        for stream in fleet_stream.streams:
            service = DetectionService(
                fleet_detectors[stream.schema.name],
                max_batch_size=64, flush_interval=0.0, window=4096,
            )
            rolling = service.run_stream(stream).rolling
            totals += np.array([rolling.tp, rolling.tn, rolling.fp, rolling.fn])
        assert (merged.tp, merged.tn, merged.fp, merged.fn) == tuple(totals)

    def test_worker_pools_do_not_change_the_counts(
        self, fleet_detectors, fleet_stream
    ):
        """One process pool (one child) per corpus shard vs inline."""
        def run(num_workers):
            fleet = build_fleet_service(
                fleet_detectors, max_batch_size=64, flush_interval=0.0, window=4096
            )
            rolling = fleet.run_stream(fleet_stream, num_workers=num_workers).rolling
            return (rolling.tp, rolling.tn, rolling.fp, rolling.fn)

        assert run(1) == run(0)

    def test_unknown_corpus_fails_loudly(self, detector):
        fleet = build_fleet_service({"nsl-kdd": detector})
        stream = fleet_scenario(batch_size=16, seed=0)
        with pytest.raises(KeyError, match="unsw-nb15"):
            fleet.run_stream(stream)
