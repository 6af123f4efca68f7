"""Seeded fuzz test for the ThroughputMonitor wall-clock accounting.

Under process-parallel scoring, batches commit in arbitrary order with
arbitrarily overlapping ``[end - latency, end]`` intervals.  The monitor
must hold its invariants under *any* commit order:

* every committed batch and record is counted exactly once;
* ``wall_span == max(end) - min(start)`` exactly — the span from the
  earliest batch start to the latest commit, overlaps counted once and
  idle gaps included;
* commit order is irrelevant: shuffled commits of the same batches give
  the same span and the same throughput.
"""

import numpy as np
import pytest

from repro.serving import ThroughputMonitor

N_SCHEDULES = 200


def _random_batches(rng, n):
    """n (size, latency, end) batches with overlaps, nesting, gaps and
    duplicates.  A batch starts at ``end - latency``, as in the monitor."""
    sizes = rng.integers(0, 300, size=n)
    latencies = rng.uniform(0.0, 5.0, size=n)
    ends = rng.uniform(0.0, 50.0, size=n) + latencies
    return [
        (int(size), float(latency), float(end))
        for size, latency, end in zip(sizes, latencies, ends)
    ]


def _commit(batches, order):
    monitor = ThroughputMonitor()
    for index in order:
        size, latency, end = batches[index]
        monitor.update(size, latency, end_time=end)
    return monitor


class TestWallClockFuzz:
    def test_shuffled_commits_count_once_and_span_exactly(self):
        failures = []
        for schedule in range(N_SCHEDULES):
            rng = np.random.default_rng(schedule)
            batches = _random_batches(rng, int(rng.integers(1, 80)))
            monitor = _commit(batches, rng.permutation(len(batches)))

            records = sum(size for size, _, _ in batches)
            span = max(end for _, _, end in batches) - min(
                end - latency for _, latency, end in batches
            )
            checks = [
                (
                    monitor.total_batches == len(batches),
                    f"batches {monitor.total_batches} != {len(batches)}",
                ),
                (
                    monitor.total_records == records,
                    f"records {monitor.total_records} != {records}",
                ),
                (
                    monitor.wall_span == span,
                    f"span {monitor.wall_span} != {span}",
                ),
            ]
            for ok, message in checks:
                if not ok:
                    failures.append(f"schedule {schedule}: {message}")
        assert not failures, "\n".join(failures[:10])

    def test_commit_order_is_irrelevant(self):
        rng = np.random.default_rng(7)
        batches = _random_batches(rng, 40)
        rows = {
            (
                monitor.total_records,
                monitor.total_batches,
                monitor.wall_span,
                monitor.throughput,
            )
            for monitor in (
                _commit(batches, rng.permutation(len(batches))) for _ in range(5)
            )
        }
        assert len(rows) == 1

    def test_snapshot_bounds_are_the_earliest_start_and_latest_end(self):
        """The span bounds a sharded fleet merges: for every commit order
        the snapshot's start and end are exact and agree with its span and
        throughput."""
        failures = []
        for schedule in range(N_SCHEDULES):
            rng = np.random.default_rng(schedule)
            batches = _random_batches(rng, int(rng.integers(1, 80)))
            snapshot = _commit(batches, rng.permutation(len(batches))).snapshot()

            start = min(end - latency for _, latency, end in batches)
            end = max(end for _, _, end in batches)
            span = snapshot["wall_span_s"]
            records = sum(size for size, _, _ in batches)
            rate = records / span if span > 0 else 0.0
            if (
                snapshot["wall_start_s"] != start
                or snapshot["wall_end_s"] != end
                or span != end - start
                or snapshot["throughput_rps"] != rate
            ):
                failures.append(f"schedule {schedule}: {snapshot}")
        assert not failures, "\n".join(failures[:10])

    def test_long_lived_monitor_keeps_only_the_latency_window(self):
        """Memory stays bounded: latencies are kept for the last ``window``
        batches only, while the totals and the span cover every batch."""
        monitor = ThroughputMonitor(window=16)
        for index in range(1000):
            latency = 9.0 if index < 984 else 1.0  # only the last 16 are 1 s
            monitor.update(10, latency, end_time=10.0 * (index + 1))
        assert len(monitor.recent_latencies) == 16
        assert monitor.mean_latency == pytest.approx(1.0)
        assert monitor.p95_latency == pytest.approx(1.0)
        assert monitor.total_batches == 1000
        assert monitor.total_records == 10000
        assert monitor.wall_span == pytest.approx(10000.0 - 1.0)

    def test_partial_overlap_extends_the_span_by_the_uncovered_portion(self):
        monitor = ThroughputMonitor()
        monitor.update(1, 4.0, end_time=10.0)   # [6, 10]
        monitor.update(1, 4.0, end_time=8.0)    # [4, 8]: 2 new seconds
        assert monitor.wall_span == pytest.approx(6.0)
        assert monitor.throughput == pytest.approx(2 / 6.0)

    def test_straggler_before_the_span_extends_it(self):
        """[10, 20] then a late commit of [0, 5]: the span grows to 20 s."""
        monitor = ThroughputMonitor()
        monitor.update(100, 10.0, end_time=20.0)
        monitor.update(100, 5.0, end_time=5.0)
        assert monitor.wall_span == pytest.approx(20.0)
        assert monitor.throughput == pytest.approx(10.0)

    def test_nested_batch_leaves_the_span_unchanged(self):
        monitor = ThroughputMonitor()
        monitor.update(100, 10.0, end_time=20.0)
        monitor.update(100, 2.0, end_time=15.0)  # nested inside [10, 20]
        assert monitor.wall_span == pytest.approx(10.0)
        assert monitor.throughput == pytest.approx(20.0)
