"""The stream driver's contract, asserted on every engine built on it.

Every ``run_stream`` is one :class:`~repro.serving.driver.StreamDriver`
loop, so the same two guarantees must hold whichever engine drives:

* ``max_batches=k`` pulls exactly ``k`` batches from the stream — no
  batch is pulled and then dropped, and on the raw-event path every row
  the extractor emits is served (the record conservation law);
* per-phase rows are exact totals: they sum to the stream's records
  whatever the service's rolling window.
"""

import pytest

from repro.data import nslkdd_generator
from repro.scenarios import flood_scenario, syn_flood_event_scenario
from repro.serving import (
    DetectionService,
    DriftPolicy,
    DriftSupervisor,
    FleetController,
    ProcessWorkerPool,
    ShadowDeployment,
    ShardedDetectionService,
)

pytestmark = pytest.mark.timeout(120)

BATCH = 32


def _stream():
    return flood_scenario(
        nslkdd_generator(), batch_size=BATCH, seed=3,
        baseline_batches=3, burst_batches=2, drift_batches=2,
    )


def _service(detector, **overrides):
    kwargs = dict(max_batch_size=BATCH, flush_interval=0.0)
    kwargs.update(overrides)
    return DetectionService(detector, **kwargs)


def _sharded(detector):
    return ShardedDetectionService.replicated(
        detector, 2, max_batch_size=BATCH, flush_interval=0.0
    )


def _report(outcome):
    """The service report inside whatever an engine's run_stream returns."""
    return getattr(outcome, "report", getattr(outcome, "primary", outcome))


ENGINES = {
    "synchronous": lambda d: _service(d).run_stream,
    "process-pool": lambda d: ProcessWorkerPool(
        _service(d), num_workers=1
    ).run_stream,
    "sharded": lambda d: _sharded(d).run_stream,
    "sharded-pools": lambda d: (
        lambda stream, max_batches: _sharded(d).run_stream(
            stream, max_batches=max_batches, num_workers=1
        )
    ),
    "shadow": lambda d: ShadowDeployment(_service(d), d).run_stream,
    "supervisor": lambda d: DriftSupervisor(
        _service(d), DriftPolicy(far_ceiling=1.0), background=False
    ).run_stream,
    "fleet": lambda d: FleetController(_sharded(d), num_workers=1).run_stream,
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_max_batches_pulls_exactly_that_many_batches(detector, engine):
    pulled = []

    def counting(stream):
        for stream_batch in stream:
            pulled.append(stream_batch.index)
            yield stream_batch

    run_stream = ENGINES[engine](detector)
    report = _report(run_stream(counting(_stream()), max_batches=2))
    assert pulled == [0, 1]
    assert report.records == 2 * BATCH
    assert sum(r.total for r in report.phase_reports.values()) == 2 * BATCH


@pytest.mark.parametrize("engine", ["synchronous", "sharded"])
def test_run_event_stream_serves_every_extracted_row(detector, engine):
    events = syn_flood_event_scenario(
        nslkdd_generator(), batch_size=BATCH, seed=5,
        baseline_batches=2, flood_batches=2,
    )
    if engine == "synchronous":
        service = _service(detector)
        extractor = service.open_event_ingress(window=events.window)
        report = service.run_event_stream(events, max_batches=2)
    else:
        from repro.ingest import FlowFeatureExtractor

        extractor = FlowFeatureExtractor(detector.schema, window=events.window)
        report = _sharded(detector).run_event_stream(
            events, extractor=extractor, max_batches=2
        )
    assert report.records == 2 * BATCH
    assert extractor.rows_emitted == report.records


@pytest.mark.parametrize("engine", ["synchronous", "sharded"])
def test_phase_rows_are_exact_totals_under_the_default_window(detector, engine):
    """The README quickstart: a default-window (512-record) service over
    the built-in flood scenario reports phases that cover all 6,912
    records, not the last 512 of each phase."""
    stream = flood_scenario(nslkdd_generator(), batch_size=256, seed=11)
    if engine == "synchronous":
        service = DetectionService(detector)
    else:
        service = ShardedDetectionService.replicated(detector, 2)
    report = service.run_stream(stream)
    assert report.records == stream.total_records
    assert sum(r.total for r in report.phase_reports.values()) == (
        stream.total_records
    )
