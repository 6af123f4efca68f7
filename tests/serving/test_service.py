"""Tests for the cached preprocessing pipeline, monitors and DetectionService."""

import numpy as np
import pytest

from repro.core import PelicanDetector
from repro.data import NSLKDD_SCHEMA, TrafficStream, nslkdd_generator
from repro.serving import (
    CachedPreprocessor,
    DetectionService,
    RollingDetectionMonitor,
    ThroughputMonitor,
)


class TestCachedPreprocessor:
    def test_matches_training_pipeline(self, detector, traffic):
        prepared = detector.preprocessor.transform(traffic)
        cached = CachedPreprocessor(detector.preprocessor)
        np.testing.assert_allclose(
            cached.transform_inputs(traffic), prepared.inputs, atol=1e-9, rtol=0
        )
        np.testing.assert_array_equal(
            cached.encode_labels(traffic), prepared.class_indices
        )
        assert cached.normal_index == prepared.normal_index
        assert cached.class_names == prepared.class_names

    def test_decode_inverts_encode(self, detector, traffic):
        cached = CachedPreprocessor(detector.preprocessor)
        decoded = cached.decode_labels(cached.encode_labels(traffic))
        np.testing.assert_array_equal(decoded, traffic.labels)

    def test_requires_fitted_preprocessor(self):
        from repro.preprocessing import IDSPreprocessor

        with pytest.raises(RuntimeError, match="fitted"):
            CachedPreprocessor(IDSPreprocessor(NSLKDD_SCHEMA))


class TestMonitors:
    def test_rolling_report_uses_only_the_window(self):
        monitor = RollingDetectionMonitor(normal_index=0, window=4)
        # First four records: all wrong (attacks missed).
        monitor.update(np.array([1, 1, 1, 1]), np.array([0, 0, 0, 0]))
        assert monitor.report().detection_rate == 0.0
        # Four perfect records push the misses out of the window.
        monitor.update(np.array([1, 1, 0, 0]), np.array([2, 1, 0, 0]))
        report = monitor.report()
        assert report.detection_rate == 1.0
        assert report.false_alarm_rate == 0.0
        assert monitor.seen == 8
        assert monitor.current_size == 4

    def test_empty_monitor_reports_none(self):
        assert RollingDetectionMonitor(normal_index=0).report() is None

    def test_throughput_monitor_aggregates(self):
        # Two back-to-back batches: ends at t=0.5 and t=1.0, each 0.5 long.
        monitor = ThroughputMonitor()
        monitor.update(100, 0.5, end_time=0.5)
        monitor.update(300, 0.5, end_time=1.0)
        assert monitor.total_records == 400
        assert monitor.total_batches == 2
        assert monitor.total_time == pytest.approx(1.0)
        assert monitor.busy_time == pytest.approx(1.0)
        assert monitor.busy_span == pytest.approx(1.0)
        assert monitor.throughput == pytest.approx(400.0)
        assert monitor.mean_latency == pytest.approx(0.5)
        snapshot = monitor.snapshot()
        assert snapshot["records"] == 400.0
        assert snapshot["busy_time_s"] == pytest.approx(1.0)
        assert snapshot["throughput_rps"] == pytest.approx(400.0)

    def test_throughput_overlapping_batches_use_the_wall_clock_span(self):
        """Regression: summed latencies understate concurrent throughput.

        Two workers each score a 1-second batch over the *same* wall-clock
        second.  Dividing by the 2 s latency sum would report half the real
        rate; the busy span (1 s) reports the truth.
        """
        monitor = ThroughputMonitor()
        monitor.update(100, 1.0, end_time=1.0)
        monitor.update(100, 1.0, end_time=1.0)
        assert monitor.total_time == pytest.approx(2.0)
        assert monitor.busy_time == pytest.approx(1.0)
        assert monitor.throughput == pytest.approx(200.0)

    def test_throughput_excludes_idle_gaps_between_batches(self):
        """A long-lived, sporadically loaded service must report serving
        capacity, not records-per-uptime."""
        monitor = ThroughputMonitor()
        monitor.update(1000, 1.0, end_time=1.0)
        monitor.update(1000, 1.0, end_time=3601.0)  # an hour of idle between
        assert monitor.busy_time == pytest.approx(2.0)
        assert monitor.busy_span == pytest.approx(3601.0)
        assert monitor.throughput == pytest.approx(1000.0)

    def test_throughput_degenerate_span_falls_back_to_summed_time(self):
        monitor = ThroughputMonitor()
        monitor.update(100, 0.0, end_time=1.0)  # zero-length span
        assert monitor.busy_span == 0.0
        assert monitor.throughput == 0.0
        monitor.update(100, 0.5, end_time=1.0)
        assert monitor.throughput == pytest.approx(400.0)


class TestDetectionService:
    def test_requires_fitted_detector(self):
        unfitted = PelicanDetector(NSLKDD_SCHEMA, num_blocks=1)
        with pytest.raises(RuntimeError, match="fitted"):
            DetectionService(unfitted)

    def test_process_matches_detector_predictions(self, detector, traffic):
        service = DetectionService(detector)
        result = service.process(traffic)
        np.testing.assert_array_equal(result.predictions, detector.predict(traffic))
        assert result.size == len(traffic)
        assert result.latency >= 0.0

    def test_fast_and_graph_service_agree(self, detector, traffic):
        """The service's fast-path verdicts equal the autodiff-graph forward
        pass on the same preprocessed inputs."""
        service = DetectionService(detector)
        served = service.process(traffic)
        inputs = service.pipeline.transform_inputs(traffic)
        graph = np.argmax(detector.network.predict(inputs, fast=False), axis=-1)
        np.testing.assert_array_equal(served.class_indices, graph)

    def test_submit_respects_micro_batching(self, detector, traffic):
        service = DetectionService(detector, max_batch_size=64, flush_interval=1e9)
        results = service.submit(traffic)  # 150 records -> two 64-record batches
        assert [r.size for r in results] == [64, 64]
        assert service.batcher.pending_count == 22
        (tail,) = service.flush()
        assert tail.size == 22
        assert service.throughput.total_records == len(traffic)

    def test_empty_submission_is_safe(self, detector, traffic):
        service = DetectionService(detector)
        assert service.submit(traffic.subset(range(0))) == []
        assert service.flush() == []

    def test_process_empty_batch_is_safe(self, detector, traffic):
        service = DetectionService(detector)
        result = service.process(traffic.subset(range(0)))
        assert result.size == 0
        assert result.predictions.shape == (0,)

    def test_monitor_tracks_rolling_quality(self, detector, traffic):
        service = DetectionService(detector, window=128)
        service.process(traffic)
        report = service.report()
        assert report.records == len(traffic)
        assert report.rolling is not None
        assert report.rolling.total == 128  # clipped to the window

    def test_run_stream_clears_prequeued_records_before_attribution(
        self, detector, traffic
    ):
        """Records queued before the stream belong to no phase; they must be
        flushed through instead of consuming the attribution FIFO."""
        service = DetectionService(
            detector, max_batch_size=1024, flush_interval=1e9, window=4096
        )
        service.submit(traffic)  # stays queued below every trigger
        stream = TrafficStream.flood_scenario(
            nslkdd_generator(), batch_size=48, seed=11
        )
        report = service.run_stream(stream)
        assert report.records == stream.total_records + len(traffic)
        assert sum(r.total for r in report.phase_reports.values()) == (
            stream.total_records
        )

    def test_unknown_categorical_values_are_counted_not_swallowed(
        self, detector, traffic
    ):
        """Vocabulary drift: a protocol the detector never trained on must be
        surfaced in the report, not silently zero-encoded."""
        service = DetectionService(detector)
        clean = service.process(traffic)
        assert all(
            count == 0 for count in service.report().unknown_categoricals.values()
        )
        drifted = traffic.subset(range(len(traffic)))
        column = NSLKDD_SCHEMA.categorical_names[0]
        drifted.categorical[column][:10] = "quic-v2"  # outside the vocabulary
        service.process(drifted)
        report = service.report()
        assert report.unknown_categoricals[column] == 10
        assert sum(report.unknown_categoricals.values()) == 10
        assert "unknown-categoricals=10" in str(report)
        # The drifted records still score (zero block, like training-time
        # unseen values): the record count keeps growing.
        assert report.records == clean.size + len(drifted)
