"""The stream driver's contract, asserted on every engine built on it.

Every ``run_stream`` is one :class:`~repro.serving.driver.StreamDriver`
loop, so the same two guarantees must hold whichever engine drives:

* ``max_batches=k`` pulls exactly ``k`` batches from the stream — no
  batch is pulled and then dropped, and on the raw-event path every row
  the extractor emits is served (the record conservation law);
* per-phase rows are exact totals: they sum to the stream's records
  whatever the service's rolling window.

It also holds the driver's two control-plane seams: the tee to an
attached :class:`~repro.serving.lifecycle.Trial` and the event log, whose
stamps are read from the engine's service clock.
"""

from itertools import count, islice

import numpy as np
import pytest

from repro.data import nslkdd_generator
from repro.scenarios import flood_scenario, syn_flood_event_scenario
from repro.serving import (
    DetectionService,
    DriftPolicy,
    DriftSupervisor,
    FleetController,
    ProcessWorkerPool,
    RolloutPolicy,
    ShadowDeployment,
    ShardedDetectionService,
    StreamDriver,
)
from repro.serving.lifecycle import Trial

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


def _sharded(detector, **overrides):
    kwargs = dict(max_batch_size=BATCH, flush_interval=0.0)
    kwargs.update(overrides)
    return ShardedDetectionService.replicated(detector, 2, **kwargs)


def _fleet_with_rollout(detector):
    """A fleet whose queued rollout opens a canary trial at the first
    boundary: the trial's flush and tee run inside the stream."""
    controller = FleetController(_sharded(detector), num_workers=1)
    controller.request_rollout(detector)
    return controller.run_stream


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
    "supervisor-trial": lambda d: DriftSupervisor(
        _service(d), DriftPolicy(unknown_ceiling=0), trainer=lambda r, s: s,
        background=False, shadow_batches=2,
    ).run_stream,
    "fleet": lambda d: FleetController(_sharded(d), num_workers=1).run_stream,
    "fleet-rollout": _fleet_with_rollout,
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


def test_a_trial_tees_only_while_it_is_attached(detector):
    first, second, third = islice(_stream(), 3)
    with StreamDriver(_service(detector)) as driver:
        trial = Trial(driver, detector)
        assert driver.trial is trial
        driver.submit(first)
        driver.submit(second)
        trial.verdict()
        teed = trial.challenger.report().records
        driver.submit(third)
        driver.flush()
    assert driver.trial is None
    assert trial.batches == 2
    assert teed == trial.challenger.report().records == 2 * BATCH
    assert trial.primary_report.total == 2 * BATCH


class _CountingClock:
    """A service clock that remembers every reading it hands out."""

    def __init__(self):
        self._ticks = count()
        self.readings = set()

    def __call__(self):
        reading = float(next(self._ticks))
        self.readings.add(reading)
        return reading


def _assert_stamped(events, clock, flushed_kinds):
    """Every event's time is a reading of ``clock``, in log order, and an
    event logged on a flushed boundary counts exactly the records the
    stream had submitted up to its batch."""
    submitted = np.cumsum([len(batch.records) for batch in _stream()])
    assert events
    times = [event.time for event in events]
    assert set(times) <= clock.readings
    assert times == sorted(times)
    flushed = [event for event in events if event.kind in flushed_kinds]
    assert flushed
    for event in flushed:
        assert event.records_seen == submitted[event.batch_index]


def test_supervisor_events_are_stamped_on_the_service_clock(detector):
    clock = _CountingClock()
    outcome = DriftSupervisor(
        _service(detector, clock=clock), DriftPolicy(unknown_ceiling=0),
        trainer=lambda records, serving: serving, background=False,
        shadow_batches=2,
    ).run_stream(_stream())
    assert outcome.promoted
    # A promotion is logged right after the swap boundary's flush.
    _assert_stamped(outcome.events, clock, {"promoted"})


def test_fleet_events_are_stamped_on_the_service_clock(detector):
    clock = _CountingClock()
    controller = FleetController(
        _sharded(detector, clock=clock), num_workers=1,
        rollout=RolloutPolicy(shadow_batches=2, stagger_batches=1),
    )
    controller.request_rollout(detector)
    outcome = controller.run_stream(_stream())
    assert outcome.completed
    # Every rollout decision is logged on a flushed boundary.
    kinds = {event.kind for event in outcome.events}
    assert kinds == {"shadow-start", "promote", "swap", "rollout-complete"}
    _assert_stamped(outcome.events, clock, kinds)
