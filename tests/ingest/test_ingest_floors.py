"""Speed floors of the raw-event ingestion front-end (``--runslow``).

Both run on the ``syn-flood-events`` preset at 256-record batches with 8
baseline and 8 flood batches:

* extraction alone — packet events through the replay-mode
  :class:`~repro.ingest.FlowFeatureExtractor`, best of 3 — stays at or
  above 100k events/s, the vectorisation floor (a per-event Python path
  runs an order of magnitude below it);
* serving — :meth:`~repro.serving.DetectionService.run_event_stream` over
  the suite's 1-block detector — spends less than half of its wall clock
  in the extractor, by the extractor's own accounting.

The round trip's bit-exactness is locked in tier-1 by
``test_event_lowering_golden.py``.
"""

import time

import pytest

from repro.ingest import FlowFeatureExtractor
from repro.scenarios import syn_flood_event_scenario
from repro.serving import DetectionService

pytestmark = [pytest.mark.ingest, pytest.mark.slow]


@pytest.fixture(scope="module")
def event_stream(generator):
    return syn_flood_event_scenario(
        generator, batch_size=256, seed=0, baseline_batches=8, flood_batches=8
    )


def test_extraction_reaches_100k_events_per_second(event_stream):
    event_batches = list(event_stream.event_batches())
    events = sum(len(batch.events) for batch in event_batches)
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        extractor = FlowFeatureExtractor(
            event_stream.schema, window=event_stream.window
        )
        for batch in event_batches:
            extractor.extract(batch.events, final=True)
        best = min(best, time.perf_counter() - started)
    assert extractor.rows_emitted == event_stream.total_records
    rate = events / best
    assert rate >= 100_000, (
        f"extraction throughput {rate:,.0f} events/s below the 100k "
        "vectorization floor"
    )


def test_extractor_takes_under_half_the_serving_wall_clock(
    detector, event_stream
):
    service = DetectionService(
        detector, max_batch_size=event_stream.batch_size,
        flush_interval=0.0, window=1 << 20,
    )
    started = time.perf_counter()
    report = service.run_event_stream(event_stream)
    total = time.perf_counter() - started
    assert report.records == event_stream.total_records
    fraction = service.event_extractor.stats_row()["extract_seconds"] / total
    assert fraction < 0.5, (
        f"extractor consumed {fraction:.1%} of the serving wall clock"
    )
