"""Cross-model bit-equality for the packet-level preset.

The determinism contract of the whole PR, asserted end to end: the
``syn-flood-events`` preset — a scenario lowered to packets and aggregated
back through the flow table — must score with **identical confusion
counts** on every serving execution model (synchronous, thread pool,
process pool, replica-sharded), and identical to the
underlying featurized stream.  A single count off by one means the event
plane is not a transparent ingestion front-end anymore.
"""

import pytest

from repro.scenarios import ScenarioSuite, syn_flood_event_scenario
from repro.serving.service import DetectionService
from repro.serving.sharding import ShardedDetectionService

pytestmark = pytest.mark.ingest


def _tiny_events(generator, batch_size=32, seed=0):
    return syn_flood_event_scenario(
        generator, batch_size=batch_size, seed=seed,
        baseline_batches=1, flood_batches=1,
    )


def _counts(row):
    overall = row["overall"]
    return (overall["tp"], overall["tn"], overall["fp"], overall["fn"])


def _phase_counts(row):
    return {
        phase: (q["tp"], q["tn"], q["fp"], q["fn"])
        for phase, q in row["phases"].items()
    }


@pytest.mark.timeout(300)
def test_event_preset_bit_equal_across_all_models(detector, generator):
    """All four execution models, one packet-level preset, identical counts
    per phase and overall — driven through the suite's sweep so the test
    also covers the ``include_events`` plumbing."""
    suite = ScenarioSuite(
        {"nsl-kdd": detector},
        batch_size=32,
        seed=9,
        scenarios={},                       # skip the featurized sweep
        event_scenarios={"syn-flood-events": _tiny_events},
        include_events=True,
        include_fleet=False,
        num_workers=2,
    )
    results = suite.run()
    entry = results["scenarios"]["syn-flood-events"]
    assert entry["plane"] == "packet-events"
    models = entry["models"]
    assert set(models) == {
        "synchronous", "worker-pool", "process-pool", "sharded",
    }
    reference = models["synchronous"]
    for name, row in models.items():
        assert _counts(row) == _counts(reference), name
        assert _phase_counts(row) == _phase_counts(reference), name
    # The event plane scores identically to the featurized record plane.
    event_stream = _tiny_events(generator, batch_size=32, seed=9)
    featurized = DetectionService(
        detector, max_batch_size=32, flush_interval=0.0, window=1 << 20
    ).run_stream(event_stream.stream)
    rolling = featurized.rolling
    assert _counts(reference) == (
        rolling.tp, rolling.tn, rolling.fp, rolling.fn
    )


@pytest.mark.timeout(120)
def test_run_event_stream_matches_run_stream(detector, generator):
    """The raw-packet ingress (`run_event_stream`) and the adapter path
    (`run_stream` over the event stream) agree, per phase, on both the
    single service and the replica-sharded fleet."""
    event_stream = _tiny_events(generator, batch_size=32, seed=4)

    def svc():
        return DetectionService(
            detector, max_batch_size=32, flush_interval=0.0, window=1 << 20
        )

    via_events = svc().run_event_stream(event_stream)
    via_adapter = svc().run_stream(event_stream)
    assert via_events.rolling is not None
    assert (
        via_events.rolling.tp, via_events.rolling.tn,
        via_events.rolling.fp, via_events.rolling.fn,
    ) == (
        via_adapter.rolling.tp, via_adapter.rolling.tn,
        via_adapter.rolling.fp, via_adapter.rolling.fn,
    )
    assert {
        phase: (q.tp, q.tn, q.fp, q.fn)
        for phase, q in via_events.phase_reports.items()
    } == {
        phase: (q.tp, q.tn, q.fp, q.fn)
        for phase, q in via_adapter.phase_reports.items()
    }

    sharded = ShardedDetectionService.replicated(
        detector, 2, max_batch_size=32, flush_interval=0.0, window=1 << 20
    )
    via_sharded = sharded.run_event_stream(event_stream)
    assert (
        via_sharded.rolling.tp, via_sharded.rolling.tn,
        via_sharded.rolling.fp, via_sharded.rolling.fn,
    ) == (
        via_adapter.rolling.tp, via_adapter.rolling.tn,
        via_adapter.rolling.fp, via_adapter.rolling.fn,
    )


@pytest.mark.timeout(120)
def test_ingress_extractor_accounting(detector, generator):
    """`run_event_stream` leaves honest accounting on the service's
    ingress extractor: every lowered packet seen, every record emitted."""
    event_stream = _tiny_events(generator, batch_size=32, seed=4)
    total_events = sum(len(eb.events) for eb in event_stream.event_batches())
    service = DetectionService(
        detector, max_batch_size=32, flush_interval=0.0, window=1 << 20
    )
    report = service.run_event_stream(event_stream)
    stats = service.event_extractor.stats_row()
    assert report.records == event_stream.total_records
    assert stats["events_seen"] == total_events
    assert stats["rows_emitted"] == event_stream.total_records
    assert stats["flows_opened"] == stats["flows_closed"]
    assert stats["open_flows"] == 0
    assert stats["extract_seconds"] > 0.0
