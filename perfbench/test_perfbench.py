"""Self-tests of the benchmark's own code, on injected clocks.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import numpy as np
import pytest

from measure import (
    MIN_TAIL_SAMPLES,
    DueBook,
    HostGauge,
    InsufficientSamples,
    Tracer,
    percentile,
    poisson_schedule,
    records_for,
    reference_kernel,
    samples_beyond,
)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


# ---------------------------------------------------------------------- #
# FIFO due times -> committed verdicts
# ---------------------------------------------------------------------- #


def test_split_submission_spans_two_commits():
    book = DueBook()
    book.submit(1.0, 10)
    book.commit(1.5, 4)   # the batch took the first 4 records
    book.commit(3.0, 6)   # the tail waited for the next batch
    assert book.latencies().tolist() == [0.5] * 4 + [2.0] * 6
    assert book.outstanding == 0


def test_merged_submissions_share_one_commit():
    book = DueBook()
    book.submit(1.0, 3)
    book.submit(2.0, 2)
    book.submit(2.5, 1)
    book.commit(4.0, 6)
    assert book.latencies().tolist() == [3.0] * 3 + [2.0] * 2 + [1.5]


def test_micro_batcher_releases_map_back_to_arrivals():
    """Size-triggered batches split and merge submissions; each record's
    latency still runs from its own submission."""
    from repro.data import load_nslkdd
    from repro.serving import MicroBatcher

    clock = FakeClock()
    batcher = MicroBatcher(max_batch_size=256, flush_interval=10.0, clock=clock)
    records = load_nslkdd(n_records=100, seed=3)
    book = DueBook()
    for arrival in (0.0, 1.0, 2.0):
        clock.now = arrival
        book.submit(arrival, len(records))
        for batch in batcher.submit(records):
            book.commit(clock.now + 0.25, len(batch))
    clock.now = 5.0
    book.commit(clock.now, len(batcher.flush()))
    latencies = book.latencies()
    # Batch one: 100 @ t0, 100 @ t1 and 56 @ t2, released at 2.25.
    assert latencies[:100].tolist() == [2.25] * 100
    assert latencies[100:200].tolist() == [1.25] * 100
    assert latencies[200:256].tolist() == [0.25] * 56
    # The 44-record tail keeps its t2 arrival until the flush at 5.0.
    assert latencies[256:].tolist() == [3.0] * 44
    assert book.outstanding == 0


def test_windows_split_commits_into_rates_and_latencies():
    book = DueBook()
    for second in range(4):
        book.submit(float(second), 100)
        book.commit(second + 0.5, 60)
        book.commit(second + 1.0, 40)
    windows = book.windows(start=0.0, count=2)
    assert [rate for rate, _ in windows] == [100.0, 100.0]
    assert [len(latencies) for _, latencies in windows] == [200, 200]
    assert windows[1][1].tolist() == ([0.5] * 60 + [1.0] * 40) * 2
    # A window never ends inside a commit: 3 windows of 400 records still
    # cut at commit boundaries.
    cuts = [len(latencies) for _, latencies in book.windows(0.0, 3)]
    assert sum(cuts) == 400 and all(cut % 20 == 0 for cut in cuts)


def test_windows_scale_by_host_speed():
    book = DueBook()
    for second in range(4):
        book.submit(float(second), 100)
        book.commit(second + 1.0, 100)
    # The host ran at half speed over the first window, full speed after.
    windows = book.windows(0.0, 2, speed=lambda start, end: 0.5 if start < 1 else 1.0)
    assert [rate for rate, _ in windows] == [200.0, 100.0]
    assert windows[0][1].tolist() == [0.5] * 100 + [0.5] * 100
    assert windows[1][1].tolist() == [1.0] * 200


# ---------------------------------------------------------------------- #
# Host speed gauge
# ---------------------------------------------------------------------- #


def test_gauge_clock_leaves_out_sampling_and_speed_is_per_interval():
    clock = FakeClock()
    durations = iter([0.002, 0.001, 0.004])

    def work():
        clock.now += next(durations)

    gauge = HostGauge(interval=1.0, reference_s=0.001, clock=clock, work=work)
    gauge.tick()                      # samples at 0 (2 ms)
    assert gauge.clock() == 0.0       # the sample's 2 ms is left out
    clock.now += 0.5
    gauge.tick()                      # last sample under 1 s old: no sample
    clock.now += 0.6
    gauge.tick()                      # samples at gauge clock 1.1 (1 ms)
    clock.now += 2.0
    gauge.tick()                      # samples at gauge clock 3.1 (4 ms)
    assert [round(at, 9) for at, _ in gauge.samples] == [0.0, 1.1, 3.1]
    assert gauge.clock() == pytest.approx(3.1)
    assert gauge.speed(0.0, 1.0) == pytest.approx(0.5)
    assert gauge.speed(1.0, 2.0) == pytest.approx(1.0)
    assert gauge.speed() == pytest.approx(0.5)       # median of 2, 1, 4 ms
    assert gauge.speed(5.0, 6.0) == pytest.approx(0.5)  # empty: every sample


def test_reference_kernel_is_deterministic():
    assert reference_kernel()() == reference_kernel()()


def test_commit_beyond_outstanding_is_a_conservation_error():
    book = DueBook()
    book.submit(0.0, 5)
    with pytest.raises(ValueError):
        book.commit(1.0, 6)


# ---------------------------------------------------------------------- #
# Percentiles need ten samples beyond them
# ---------------------------------------------------------------------- #


def test_samples_beyond():
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    assert samples_beyond(20, 50) == 10
    assert records_for(99) == 1000 and records_for(50) == 20


@pytest.mark.parametrize("count, q", [(999, 99), (19, 50), (199, 95)])
def test_percentile_refuses_thin_tails(count, q):
    with pytest.raises(InsufficientSamples):
        percentile(np.arange(count, dtype=float), q)


@pytest.mark.parametrize("count, q", [(1000, 99), (20, 50), (200, 95)])
def test_percentile_reports_supported_tails(count, q):
    values = np.arange(count, dtype=float)
    assert percentile(values, q) == pytest.approx(np.percentile(values, q))
    assert np.count_nonzero(values > percentile(values, q)) >= MIN_TAIL_SAMPLES


# ---------------------------------------------------------------------- #
# The Poisson schedule is reproducible from the seed
# ---------------------------------------------------------------------- #


def test_poisson_schedule_reproducible():
    first = poisson_schedule(7, 12_000.0, 5.0, 8, 24)
    again = poisson_schedule(7, 12_000.0, 5.0, 8, 24)
    other = poisson_schedule(8, 12_000.0, 5.0, 8, 24)
    assert np.array_equal(first[0], again[0])
    assert np.array_equal(first[1], again[1])
    assert not np.array_equal(first[0][:100], other[0][:100])


def test_poisson_schedule_shape_and_rate():
    offsets, sizes = poisson_schedule(3, 12_000.0, 5.0, 8, 24)
    assert len(offsets) == len(sizes)
    assert np.all(np.diff(offsets) > 0)
    assert offsets[0] >= 0.0 and offsets[-1] < 5.0
    assert sizes.min() >= 8 and sizes.max() <= 24
    assert sizes.sum() / 5.0 == pytest.approx(12_000.0, rel=0.05)


# ---------------------------------------------------------------------- #
# Tracer self time
# ---------------------------------------------------------------------- #


def test_self_time_excludes_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("outer"):
        clock.now += 1.0
        with tracer.span("inner"):
            clock.now += 2.0
            with tracer.span("leaf"):
                clock.now += 0.5
        clock.now += 0.25
    assert tracer.self_time("outer") == pytest.approx(1.25)
    assert tracer.self_time("inner") == pytest.approx(2.0)
    assert tracer.self_time("leaf") == pytest.approx(0.5)
    # Self times of one thread add up to its outermost span.
    assert tracer.thread_self_total("MainThread") == pytest.approx(3.75)
    parents = {span[2]: span[1] for span in tracer.spans}
    ids = {span[2]: span[0] for span in tracer.spans}
    assert parents == {"outer": 0, "inner": ids["outer"], "leaf": ids["inner"]}


def test_wrap_traces_instance_calls_only():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    class Layer:
        def call(self, value):
            clock.now += 1.0
            return value * 2

    traced, plain = Layer(), Layer()
    tracer.wrap(traced, "call", "layer")
    assert traced.call(3) == 6 and plain.call(3) == 6
    assert tracer.calls("layer") == 1
    assert tracer.self_time("layer") == pytest.approx(1.0)


def test_inactive_tracer_records_nothing(tmp_path):
    tracer = Tracer(clock=FakeClock())
    tracer.active = False
    with tracer.span("ignored"):
        pass
    assert tracer.spans == [] and tracer.calls("ignored") == 0
    tracer.active = True
    with tracer.span("kept"):
        pass
    tracer.dump(tmp_path / "spans.jsonl")
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert [json.loads(line)[2] for line in lines] == ["kept"]


# ---------------------------------------------------------------------- #
# BENCHMARK.json lists exactly the metrics a run prints
# ---------------------------------------------------------------------- #


def test_benchmark_json_matches_the_metrics():
    import workloads

    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
