"""Unit tests for the micro-batching queue."""

import numpy as np
import pytest

from repro.data import NSLKDD_SCHEMA, load_nslkdd
from repro.serving import MicroBatcher


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TickingClock(FakeClock):
    """A clock that advances on every reading, like a real one."""

    def __init__(self, tick: float) -> None:
        super().__init__()
        self.tick = tick

    def __call__(self) -> float:
        now = self.now
        self.now += self.tick
        return now


@pytest.fixture()
def records():
    return load_nslkdd(n_records=100, seed=3)


def make_batcher(max_batch_size=32, flush_interval=1.0):
    clock = FakeClock()
    return MicroBatcher(max_batch_size, flush_interval, clock=clock), clock


class TestMicroBatcher:
    def test_small_submissions_stay_pending(self, records):
        batcher, _ = make_batcher()
        assert batcher.submit(records.subset(range(10))) == []
        assert batcher.pending_count == 10

    def test_size_trigger_releases_exact_batches(self, records):
        batcher, _ = make_batcher(max_batch_size=32)
        ready = batcher.submit(records.subset(range(80)))
        assert [len(b) for b in ready] == [32, 32]
        assert batcher.pending_count == 16

    def test_size_trigger_splits_across_submissions(self, records):
        batcher, _ = make_batcher(max_batch_size=32)
        assert batcher.submit(records.subset(range(20))) == []
        ready = batcher.submit(records.subset(range(20, 45)))
        assert [len(b) for b in ready] == [32]
        assert batcher.pending_count == 13

    def test_fifo_order_is_preserved(self, records):
        batcher, _ = make_batcher(max_batch_size=30)
        batcher.submit(records.subset(range(20)))
        (batch,) = batcher.submit(records.subset(range(20, 50)))
        expected = records.subset(range(30))
        np.testing.assert_array_equal(batch.numeric, expected.numeric)
        np.testing.assert_array_equal(batch.labels, expected.labels)

    def test_age_trigger_flushes_partial_batch(self, records):
        batcher, clock = make_batcher(max_batch_size=32, flush_interval=1.0)
        batcher.submit(records.subset(range(5)))
        assert batcher.poll() is None
        clock.advance(0.5)
        assert batcher.poll() is None
        clock.advance(0.6)
        batch = batcher.poll()
        assert batch is not None and len(batch) == 5
        assert batcher.pending_count == 0

    def test_poll_releases_exactly_at_the_deadline(self, records):
        batcher, clock = make_batcher(max_batch_size=32, flush_interval=1.0)
        assert batcher.deadline is None
        clock.advance(0.4)
        batcher.submit(records.subset(range(5)))
        assert batcher.deadline == 0.4 + 1.0
        clock.now = np.nextafter(batcher.deadline, 0.0)
        assert batcher.poll() is None
        clock.now = batcher.deadline
        assert len(batcher.poll()) == 5
        assert batcher.deadline is None

    def test_age_trigger_fires_inside_submit(self, records):
        batcher, clock = make_batcher(max_batch_size=32, flush_interval=1.0)
        batcher.submit(records.subset(range(5)))
        clock.advance(2.0)
        ready = batcher.submit(records.subset(range(5, 8)))
        assert [len(b) for b in ready] == [8]

    def test_size_drain_does_not_restart_the_age_clock(self, records):
        """Regression: leftover records keep their true arrival time.

        The batcher used to re-stamp the pending tail with "now" after a
        size-triggered drain, so a leftover record could wait up to twice
        the flush interval.  With a clock that ticks on every reading (as a
        real clock does), the drain happens measurably after the submission
        arrived — the age trigger must still fire relative to the arrival.
        """
        clock = TickingClock(tick=0.1)
        batcher = MicroBatcher(max_batch_size=32, flush_interval=1.0, clock=clock)
        ready = batcher.submit(records.subset(range(40)))  # arrives at t=0.0
        assert [len(b) for b in ready] == [32]
        assert batcher.pending_count == 8
        assert batcher.oldest_arrival == 0.0  # not the post-drain reading
        # Just before one interval after the *arrival*: no release.
        clock.now = 0.85
        assert batcher.poll() is None
        # One interval after the arrival the leftover is released; measured
        # from the (later) post-drain reading it would still be under the
        # interval, so a re-stamping batcher would hold the records back.
        clock.now = 1.0
        batch = batcher.poll()
        assert batch is not None and len(batch) == 8

    def test_split_tail_keeps_the_oldest_arrival(self, records):
        clock = FakeClock()
        batcher = MicroBatcher(max_batch_size=32, flush_interval=1.0, clock=clock)
        batcher.submit(records.subset(range(20)))      # arrives at t=0.0
        clock.advance(0.4)
        batcher.submit(records.subset(range(20, 40)))  # arrives at t=0.4
        assert batcher.pending_count == 8
        # The leftover tail comes from the t=0.4 submission and must age
        # from 0.4, not from the first submission nor from "now".
        assert batcher.oldest_arrival == pytest.approx(0.4)
        clock.advance(0.9)  # t=1.3: only 0.9 since the tail arrived
        assert batcher.poll() is None
        clock.advance(0.2)  # t=1.5: 1.1 since the tail arrived
        batch = batcher.poll()
        assert batch is not None and len(batch) == 8

    def test_flush_drains_everything(self, records):
        batcher, _ = make_batcher(max_batch_size=32)
        batcher.submit(records.subset(range(7)))
        batch = batcher.flush()
        assert len(batch) == 7
        assert batcher.flush() is None

    def test_empty_submission_is_a_noop(self, records):
        batcher, _ = make_batcher()
        assert batcher.submit(records.subset(range(0))) == []
        assert batcher.pending_count == 0

    def test_invalid_configuration_raises(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(flush_interval=-1.0)
