"""Seeded fuzz test for the ServiceMonitor wall-clock accounting.

Under process-parallel scoring, batches commit in arbitrary order with
arbitrarily overlapping ``[end - latency, end]`` intervals.  The ledger
must hold its invariants under *any* commit order:

* every committed batch and record is counted exactly once;
* the span ``wall_end - wall_start == max(end) - min(start)`` exactly —
  from the earliest batch start to the latest commit, overlaps counted
  once and idle gaps included;
* commit order is irrelevant: shuffled commits of the same batches give
  the same span and the same throughput.
"""

import numpy as np
import pytest

from repro.serving import ServiceMonitor, ServiceReport
from repro.serving.monitor import LATENCY_WINDOW

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


def _monitor(committed, *batches):
    """A ledger fed (size, latency, end) batches without labels: only the
    totals, the span and the latency window move."""
    monitor = ServiceMonitor(normal_index=0, columns=[])
    for size, latency, end in batches:
        monitor.observe(committed(size, latency, end))
    return monitor


def _commit(committed, batches, order):
    return _monitor(committed, *(batches[index] for index in order)).snapshot()


def _span(snapshot):
    return snapshot.wall_end - snapshot.wall_start


def _throughput(snapshot):
    return ServiceReport.merge([snapshot]).throughput


class TestWallClockFuzz:
    def test_shuffled_commits_count_once_and_span_exactly(self, committed):
        failures = []
        for schedule in range(N_SCHEDULES):
            rng = np.random.default_rng(schedule)
            batches = _random_batches(rng, int(rng.integers(1, 80)))
            snapshot = _commit(committed, batches, rng.permutation(len(batches)))

            records = sum(size for size, _, _ in batches)
            span = max(end for _, _, end in batches) - min(
                end - latency for _, latency, end in batches
            )
            checks = [
                (
                    snapshot.batches == len(batches),
                    f"batches {snapshot.batches} != {len(batches)}",
                ),
                (
                    snapshot.records == records,
                    f"records {snapshot.records} != {records}",
                ),
                (
                    _span(snapshot) == span,
                    f"span {_span(snapshot)} != {span}",
                ),
            ]
            for ok, message in checks:
                if not ok:
                    failures.append(f"schedule {schedule}: {message}")
        assert not failures, "\n".join(failures[:10])

    def test_commit_order_is_irrelevant(self, committed):
        rng = np.random.default_rng(7)
        batches = _random_batches(rng, 40)
        rows = {
            (
                snapshot.records,
                snapshot.batches,
                _span(snapshot),
                _throughput(snapshot),
            )
            for snapshot in (
                _commit(committed, batches, rng.permutation(len(batches)))
                for _ in range(5)
            )
        }
        assert len(rows) == 1

    def test_snapshot_bounds_are_the_earliest_start_and_latest_end(self, committed):
        """The span bounds a sharded fleet merges: for every commit order
        the snapshot's start and end are exact and agree with its span and
        throughput."""
        failures = []
        for schedule in range(N_SCHEDULES):
            rng = np.random.default_rng(schedule)
            batches = _random_batches(rng, int(rng.integers(1, 80)))
            snapshot = _commit(committed, batches, rng.permutation(len(batches)))

            start = min(end - latency for _, latency, end in batches)
            end = max(end for _, _, end in batches)
            span = _span(snapshot)
            records = sum(size for size, _, _ in batches)
            rate = records / span if span > 0 else 0.0
            if (
                snapshot.wall_start != start
                or snapshot.wall_end != end
                or span != end - start
                or _throughput(snapshot) != rate
            ):
                failures.append(f"schedule {schedule}: {snapshot}")
        assert not failures, "\n".join(failures[:10])

    def test_long_lived_monitor_keeps_only_the_latency_window(self, committed):
        """Memory stays bounded: latencies are kept for the last
        ``LATENCY_WINDOW`` batches only, while the totals and the span
        cover every batch."""
        n_batches = LATENCY_WINDOW + 1000
        snapshot = _monitor(committed, *(
            # Only the last LATENCY_WINDOW batches take 1 s.
            (10, 9.0 if index < 1000 else 1.0, 10.0 * (index + 1))
            for index in range(n_batches)
        )).snapshot()
        assert len(snapshot.latencies) == LATENCY_WINDOW
        report = ServiceReport.merge([snapshot])
        assert report.mean_latency == pytest.approx(1.0)
        assert report.p95_latency == pytest.approx(1.0)
        assert snapshot.batches == n_batches
        assert snapshot.records == 10 * n_batches
        assert _span(snapshot) == pytest.approx(10.0 * n_batches - 1.0)

    def test_partial_overlap_extends_the_span_by_the_uncovered_portion(
        self, committed
    ):
        snapshot = _monitor(
            committed,
            (1, 4.0, 10.0),   # [6, 10]
            (1, 4.0, 8.0),    # [4, 8]: 2 new seconds
        ).snapshot()
        assert _span(snapshot) == pytest.approx(6.0)
        assert _throughput(snapshot) == pytest.approx(2 / 6.0)

    def test_straggler_before_the_span_extends_it(self, committed):
        """[10, 20] then a late commit of [0, 5]: the span grows to 20 s."""
        snapshot = _monitor(committed, (100, 10.0, 20.0), (100, 5.0, 5.0)).snapshot()
        assert _span(snapshot) == pytest.approx(20.0)
        assert _throughput(snapshot) == pytest.approx(10.0)

    def test_nested_batch_leaves_the_span_unchanged(self, committed):
        snapshot = _monitor(
            committed,
            (100, 10.0, 20.0),
            (100, 2.0, 15.0),  # nested inside [10, 20]
        ).snapshot()
        assert _span(snapshot) == pytest.approx(10.0)
        assert _throughput(snapshot) == pytest.approx(20.0)
