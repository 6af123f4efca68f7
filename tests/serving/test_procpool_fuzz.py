"""Seeded schedule fuzz for the process pool against the synchronous oracle.

The process pool's correctness claim is that moving scoring into child
processes is invisible: the same schedule of submissions, mid-stream
flushes, live resizes, hot-swaps and child kills must commit a report
record-for-record identical to the synchronous service's, unknown-
categorical tallies included.  Each seeded schedule is pre-drawn (so both
runs mirror the same flush points), uses real fitted detectors (children
rehydrate from checkpoints — stubs cannot be shipped), and injects kills
only at drained boundaries so nothing in flight is lost and the counts
stay exactly comparable.

Schedules are few but adversarial — every spawned child costs a fresh
interpreter, so the budget goes into action diversity per schedule rather
than schedule count (``test_reorder_buffer_fuzz.py`` carries the
high-volume fuzz of the commit seam, with no children).
"""

import time

import numpy as np
import pytest

from repro.serving import DetectionService, ProcessWorkerPool

pytestmark = pytest.mark.timeout(300)

N_SCHEDULES = 2


def _service(detector):
    return DetectionService(
        detector, max_batch_size=32, flush_interval=1e9, window=1 << 20
    )


def _report_row(service):
    report = service.report()
    rolling = report.rolling
    return (
        report.records, report.batches,
        rolling.tp, rolling.tn, rolling.fp, rolling.fn,
        tuple(sorted(report.unknown_categoricals.items())),
    )


def _submissions(traffic, rng):
    cuts, start = [], 0
    while start < len(traffic):
        size = int(rng.integers(8, 61))
        cuts.append(traffic.subset(range(start, min(start + size, len(traffic)))))
        start += size
    return cuts


def _draw_actions(rng, n):
    """One pre-drawn action per submission, shared by both runs."""
    actions = []
    killed = False
    for _ in range(n):
        roll = rng.random()
        if roll < 0.25:
            actions.append(("resize", int(rng.integers(2, 5))))
        elif roll < 0.40:
            actions.append(("flush", None))
        elif roll < 0.55:
            actions.append(("swap", None))
        elif roll < 0.65 and not killed:
            killed = True  # at most one kill: a survivor must always remain
            actions.append(("kill", None))
        else:
            actions.append(("none", None))
    return actions


def _run_pool(detector, submissions, actions):
    service = _service(detector)
    pool = ProcessWorkerPool(service, num_workers=2)
    pool.start()
    errored = 0

    def guarded(operation):
        # A kill leaves one recorded error behind; it surfaces exactly once
        # on the next join/flush/close and the retry then runs clean.
        nonlocal errored
        try:
            operation()
        except RuntimeError:
            errored += 1
            operation()

    try:
        for records, (action, target) in zip(submissions, actions):
            pool.submit(records)
            if action == "resize":
                pool.resize(target)
            elif action == "flush":
                guarded(pool.flush)
            elif action == "swap":
                # Same-detector swap: exercises the checkpoint re-ship and
                # ack machinery without changing what the oracle predicts.
                guarded(lambda: pool.swap_detector(detector))
            elif action == "kill":
                guarded(pool.join)  # drained boundary: nothing in flight
                victim = pool._slots[0]
                victim.process.kill()
                victim.process.join()
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if victim.token in pool._failed_workers:
                        break
                    time.sleep(0.02)
                assert victim.token in pool._failed_workers
        guarded(pool.flush)
    finally:
        try:
            pool.close()
        except RuntimeError:
            errored += 1
    killed = "kill" in [action for action, _ in actions]
    assert errored == (1 if killed else 0)
    return _report_row(service)


@pytest.mark.parametrize("schedule", range(N_SCHEDULES))
def test_process_pool_commits_the_sync_report(detector, schedule):
    """pool == sync for every schedule, counts and drift tallies."""
    from repro.data import load_nslkdd

    rng = np.random.default_rng(7_000 + schedule)
    traffic = load_nslkdd(n_records=220, seed=31 + schedule)
    # Salt in out-of-schema categoricals so the children's unknown tallies,
    # folded back into the parent, are checked under every action mix.
    drift_rows = rng.choice(len(traffic), size=12, replace=False)
    for row in drift_rows:
        traffic.categorical["service"][row] = f"fuzz-svc-{row}"
    submissions = _submissions(traffic, rng)
    actions = _draw_actions(rng, len(submissions))

    sync_service = _service(detector)
    for records, (action, _) in zip(submissions, actions):
        sync_service.submit(records)
        if action == "flush":
            sync_service.flush()
    sync_service.flush()
    oracle = _report_row(sync_service)

    row = _run_pool(detector, submissions, actions)
    assert row == oracle, f"schedule {schedule}: {row} != {oracle}"
