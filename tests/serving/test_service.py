"""Tests for the served inputs, the service ledger and DetectionService."""

import numpy as np
import pytest

from repro.core import PelicanDetector
from repro.data import NSLKDD_SCHEMA, TrafficStream, load_nslkdd, nslkdd_generator
from repro.preprocessing import IDSPreprocessor
from repro.serving import DetectionService, ServiceMonitor, ServiceReport


class TestCachedPreprocessor:
    """The served inputs: :meth:`IDSPreprocessor.transform_inputs`, the
    training encoder's matrix rounded once to float32."""

    def test_matches_training_pipeline(self, detector, traffic):
        preprocessor = detector.preprocessor
        prepared = preprocessor.transform(traffic)
        inputs, unknown = preprocessor.transform_inputs(traffic)
        assert unknown == {}
        assert inputs.dtype == np.float32
        np.testing.assert_array_equal(inputs, prepared.inputs.astype(np.float32))
        np.testing.assert_array_equal(
            preprocessor.encode_labels(traffic), prepared.class_indices
        )
        assert preprocessor.normal_index == prepared.normal_index
        assert preprocessor.class_names == prepared.class_names
        # A drifted batch: each column's unseen values are tallied, and
        # their one-hot block is zero before standardization.
        drifted = traffic.subset(range(len(traffic)))
        for shift, name in enumerate(NSLKDD_SCHEMA.categorical_names):
            drifted.categorical[name][shift::5] = "never-seen"
        inputs, unknown = preprocessor.transform_inputs(drifted)
        np.testing.assert_array_equal(
            inputs, preprocessor.transform(drifted).inputs.astype(np.float32)
        )
        assert unknown == {
            name: len(range(shift, len(traffic), 5))
            for shift, name in enumerate(NSLKDD_SCHEMA.categorical_names)
        }
        state = preprocessor.export_state()
        absent = ((0.0 - state["scaler_mean"]) / state["scaler_scale"]).astype(
            np.float32
        )
        offset = len(NSLKDD_SCHEMA.numeric_features)
        for shift, feature in enumerate(NSLKDD_SCHEMA.categorical_features):
            block = slice(offset, offset + feature.cardinality)
            rows = inputs[shift::5, 0, block]
            np.testing.assert_array_equal(
                rows, np.broadcast_to(absent[block], rows.shape)
            )
            offset += feature.cardinality

    def test_decode_inverts_encode(self, detector, traffic):
        preprocessor = detector.preprocessor
        decoded = preprocessor.decode_labels(preprocessor.encode_labels(traffic))
        np.testing.assert_array_equal(decoded, traffic.labels)

    def test_requires_fitted_preprocessor(self, traffic):
        with pytest.raises(RuntimeError, match="fitted"):
            IDSPreprocessor(NSLKDD_SCHEMA).transform_inputs(traffic)


class TestServedDtype:
    """The served path is float32 end to end, within 1e-5 of float64."""

    def test_transform_and_fast_predict_are_float32(
        self, detector, traffic, monkeypatch
    ):
        service = DetectionService(detector)
        network = detector.network
        seen = []
        predict = network.predict

        def spy(x, *args, **kwargs):
            probabilities = predict(x, *args, **kwargs)
            seen.append((x.dtype, kwargs.get("fast"), probabilities.dtype))
            return probabilities

        monkeypatch.setattr(network, "predict", spy)
        result = service.score(traffic)
        assert seen == [(np.float32, True, np.float32)]
        inputs, _ = service.pipeline.transform_inputs(traffic)
        assert inputs.dtype == np.float32
        np.testing.assert_array_equal(
            result.class_indices, np.argmax(predict(inputs, fast=True), axis=-1)
        )

    @pytest.fixture(scope="class")
    def pelican10(self):
        """A trained 10-block Pelican."""
        detector = PelicanDetector(
            NSLKDD_SCHEMA, num_blocks=10, epochs=1, batch_size=64,
            dropout_rate=0.3, seed=1,
        )
        detector.fit(load_nslkdd(n_records=384, seed=1))
        return detector

    @staticmethod
    def _flood():
        return TrafficStream.flood_scenario(
            nslkdd_generator(), batch_size=256, seed=1
        )

    def test_float32_tracks_float64_on_a_trained_pelican_flood(self, pelican10):
        """A trained 10-block Pelican scores a flood stream at float32 within
        1e-5 of its float64 tape probabilities, with no verdict flipped; the
        float64 fast path stays within 1e-6 of the tape."""
        detector = pelican10
        pipeline = detector.preprocessor
        stream = self._flood()
        worst = flips = records = 0
        for batch in stream:
            served = detector.network.predict(
                pipeline.transform_inputs(batch.records)[0], fast=True
            )
            inputs = detector.preprocessor.transform(batch.records).inputs
            oracle = detector.network.predict(inputs)
            np.testing.assert_allclose(
                detector.network.predict(inputs, fast=True), oracle,
                atol=1e-6, rtol=0,
            )
            assert served.dtype == np.float32 and oracle.dtype == np.float64
            worst = max(worst, float(np.abs(served - oracle).max()))
            flips += int((served.argmax(-1) != oracle.argmax(-1)).sum())
            records += len(batch.records)
        assert records > 5000
        assert worst <= 1e-5
        assert flips == 0

    def test_float32_scores_do_not_depend_on_the_batch(self, pelican10):
        """Every record scores bit for bit the same in batches of 1 to 64
        rows as in one 256-record batch.  OpenBLAS sums a 1-row GEMM, and
        the 5-wide classifier GEMM at some row counts, in another order;
        the fast path pads both shapes away."""
        records = next(iter(self._flood())).records
        assert len(records) == 256
        inputs, _ = pelican10.preprocessor.transform_inputs(records)
        network = pelican10.network
        whole = network.predict(inputs, batch_size=256, fast=True)
        for rows in [*range(1, 65), 256]:
            np.testing.assert_array_equal(
                network.predict(inputs, batch_size=rows, fast=True), whole,
                err_msg=f"{rows}-row batches",
            )


def _report(monitor):
    return ServiceReport.merge([monitor.snapshot()])


class TestMonitors:
    def test_rolling_report_uses_only_the_window(self, committed):
        monitor = ServiceMonitor(normal_index=0, columns=[], window=4)
        # First four records: all wrong (attacks missed).
        monitor.observe(committed(4, true=[1, 1, 1, 1], predicted=[0, 0, 0, 0]))
        assert monitor.snapshot().rolling.detection_rate == 0.0
        # Four perfect records push the misses out of the window.
        monitor.observe(committed(4, true=[1, 1, 0, 0], predicted=[2, 1, 0, 0]))
        snapshot = monitor.snapshot()
        assert snapshot.rolling.detection_rate == 1.0
        assert snapshot.rolling.false_alarm_rate == 0.0
        assert snapshot.records == 8
        assert snapshot.rolling.total == 4

    def test_empty_monitor_reports_none(self):
        monitor = ServiceMonitor(normal_index=0, columns=["protocol_type"])
        assert monitor.snapshot().rolling is None
        report = _report(monitor)
        assert (report.records, report.batches, report.throughput) == (0, 0, 0.0)
        assert (report.mean_latency, report.p95_latency) == (0.0, 0.0)
        assert report.unknown_categoricals == {"protocol_type": 0}

    def test_observe_rejects_a_malformed_result_and_counts_nothing(self, committed):
        monitor = ServiceMonitor(normal_index=0, columns=["service"])
        for malformed in (
            committed(2, true=[1, 1], predicted=[0], unknown={"service": 2}),
            committed(-1, 0.5, 1.0, unknown={"service": 2}),
            committed(1, -0.5, 1.0, unknown={"service": 2}),
        ):
            with pytest.raises(ValueError):
                monitor.observe(malformed)
        snapshot = monitor.snapshot()
        assert (snapshot.batches, snapshot.records, len(snapshot.latencies)) == (
            0, 0, 0
        )
        assert snapshot.unknown_categoricals == {"service": 0}

    def test_unknown_tallies_add_up_per_column(self, committed):
        monitor = ServiceMonitor(normal_index=0, columns=["service", "flag"])
        monitor.observe(committed(10, unknown={"service": 3}))
        monitor.observe(committed(10, unknown={"service": 2, "flag": 1}))
        assert monitor.snapshot().unknown_categoricals == {"service": 5, "flag": 1}

    def test_throughput_monitor_aggregates(self, committed):
        # Two back-to-back batches: ends at t=0.5 and t=1.0, each 0.5 long.
        monitor = ServiceMonitor(normal_index=0, columns=[])
        monitor.observe(committed(100, 0.5, 0.5))
        monitor.observe(committed(300, 0.5, 1.0))
        snapshot = monitor.snapshot()
        assert snapshot.records == 400
        assert snapshot.batches == 2
        assert snapshot.wall_start == pytest.approx(0.0)
        assert snapshot.wall_end == pytest.approx(1.0)
        report = _report(monitor)
        assert report.records == 400
        assert report.throughput == pytest.approx(400.0)
        assert report.mean_latency == pytest.approx(0.5)

    def test_throughput_overlapping_batches_use_the_wall_clock_span(self, committed):
        """Regression: summed latencies understate concurrent throughput.

        Two workers each score a 1-second batch over the *same* wall-clock
        second.  Dividing by the 2 s latency sum would report half the real
        rate; the wall span (1 s) reports the truth.
        """
        monitor = ServiceMonitor(normal_index=0, columns=[])
        monitor.observe(committed(100, 1.0, 1.0))
        monitor.observe(committed(100, 1.0, 1.0))
        snapshot = monitor.snapshot()
        assert snapshot.wall_end - snapshot.wall_start == pytest.approx(1.0)
        assert _report(monitor).throughput == pytest.approx(200.0)

    def test_throughput_counts_idle_gaps_between_batches(self, committed):
        """Throughput is wall clock: an hour of idle time between two
        1-second batches counts, so 2000 records span 3601 s."""
        monitor = ServiceMonitor(normal_index=0, columns=[])
        monitor.observe(committed(1000, 1.0, 1.0))
        monitor.observe(committed(1000, 1.0, 3601.0))  # an hour of idle between
        snapshot = monitor.snapshot()
        assert snapshot.wall_end - snapshot.wall_start == pytest.approx(3601.0)
        assert _report(monitor).throughput == pytest.approx(2000.0 / 3601.0)

    def test_throughput_is_zero_until_the_span_opens(self, committed):
        monitor = ServiceMonitor(normal_index=0, columns=[])
        monitor.observe(committed(100, 0.0, 1.0))  # zero-length span
        snapshot = monitor.snapshot()
        assert snapshot.wall_end - snapshot.wall_start == 0.0
        assert _report(monitor).throughput == 0.0
        monitor.observe(committed(100, 0.5, 1.0))
        assert _report(monitor).throughput == pytest.approx(400.0)


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
        inputs, _ = service.pipeline.transform_inputs(traffic)
        graph = np.argmax(detector.network.predict(inputs, fast=False), axis=-1)
        np.testing.assert_array_equal(served.class_indices, graph)

    def test_submit_respects_micro_batching(self, detector, traffic):
        service = DetectionService(detector, max_batch_size=64, flush_interval=1e9)
        results = service.submit(traffic)  # 150 records -> two 64-record batches
        assert [r.size for r in results] == [64, 64]
        assert service.batcher.pending_count == 22
        (tail,) = service.flush()
        assert tail.size == 22
        assert service.report().records == len(traffic)

    def test_wall_span_starts_when_scoring_starts(self, detector, traffic):
        """On the service clock the span opens at the first score() start,
        not at the first record's arrival: the 100 s the first batch waited
        in the queue is left out, the 60 s idle gap after it counts."""
        now = [0.0]
        service = DetectionService(
            detector, max_batch_size=1024, flush_interval=1e9,
            clock=lambda: now[0],
        )
        service.submit(traffic.subset(range(10)))  # queued at t=0
        now[0] = 100.0
        service.flush()
        now[0] = 160.0
        service.submit(traffic.subset(range(10, 30)))
        service.flush()
        snapshot = service.monitor.snapshot()
        assert snapshot.wall_start == 100.0
        assert snapshot.wall_end == 160.0
        assert service.report().throughput == pytest.approx(30 / 60.0)

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

    def test_score_leaves_the_report_unchanged(self, detector, traffic):
        """score() is pure: a drifted batch scored but never committed moves
        no number, not even the unknown-categorical tallies, which travel
        in the result instead."""
        service = DetectionService(detector)
        service.process(traffic)
        before = service.report()
        drifted = traffic.subset(range(len(traffic)))
        column = NSLKDD_SCHEMA.categorical_names[0]
        drifted.categorical[column][:10] = "quic-v2"  # outside the vocabulary
        result = service.score(drifted)
        assert service.report() == before
        assert result.unknown_categoricals == {column: 10}
        service.observe(result)
        assert service.report().unknown_categoricals[column] == 10

    def test_non_finite_features_fail_the_batch_and_commit_nothing(
        self, detector, traffic
    ):
        """A NaN or inf feature raises, naming its column, before anything
        is scored: neither process() nor submit() commits the batch."""
        batch = traffic.subset(np.arange(64))
        batch.numeric[0, 1] = np.nan
        batch.numeric[1, 4] = np.inf
        names = NSLKDD_SCHEMA.numeric_names
        message = rf"non-finite.*'{names[1]}', '{names[4]}'"
        service = DetectionService(detector, max_batch_size=64)
        with pytest.raises(ValueError, match=message):
            service.process(batch)
        with pytest.raises(ValueError, match=message):
            service.submit(batch)
        assert service.report().records == 0
        assert service.report().batches == 0
