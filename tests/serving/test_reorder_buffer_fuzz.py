"""Seeded fuzz of the process pool's reorder buffer.

Every reply a :class:`ProcessWorkerPool` collects — and every hole its
error path and orphan sweeps write off — enters one seam,
``_commit(sequence, result | None)``.  Replies arrive in whatever order
the children finish; monitor updates and deliveries must leave strictly in
submission order.  This fuzz drives that seam directly on a pool that was
never started (no child is spawned), so ~200 schedules cost well under a
second.  Per seeded schedule, sequences are committed in a shuffled order,
some of them as ``None`` holes, and the test asserts:

* delivery (the result callback, or :meth:`collect`) is always an in-order
  prefix of the surviving results, and holes are skipped while the commit
  cursor still advances past them;
* afterwards the buffer is empty and the cursor stands past the last
  sequence;
* the service report equals committing the same results in order.
"""

import numpy as np
import pytest

from repro.data import load_nslkdd
from repro.serving import DetectionService, ProcessWorkerPool

pytestmark = pytest.mark.timeout(120)

N_SCHEDULES = 200
HOLE_RATE = 0.15


def _service(detector):
    return DetectionService(
        detector, max_batch_size=48, flush_interval=1e9, window=1 << 20
    )


@pytest.fixture(scope="module")
def scored_batches(detector):
    """Real scored batches of uneven sizes (1..48 records), scored once;
    ``score`` is pure, so the same results can be replayed into every
    schedule's fresh service."""
    traffic = load_nslkdd(n_records=240, seed=17)
    rng = np.random.default_rng(0)
    scorer = _service(detector)
    batches, start = [], 0
    while start < len(traffic):
        stop = min(start + int(rng.integers(1, 49)), len(traffic))
        batches.append(scorer.score(traffic.subset(range(start, stop))))
        start = stop
    return batches


def _report_row(service):
    report = service.report()
    return (
        report.records,
        report.batches,
        report.throughput,
        report.mean_latency,
        report.p95_latency,
        report.rolling.as_dict() if report.rolling is not None else None,
    )


def test_commit_seam_fuzz(detector, scored_batches):
    """~200 shuffled commit orders with holes: in-order delivery, holes
    skipped, cursor advanced, report equal to an in-order commit."""
    failures = []
    for schedule in range(N_SCHEDULES):
        rng = np.random.default_rng(schedule)
        n = int(rng.integers(1, len(scored_batches) + 1))
        results = [
            None if rng.random() < HOLE_RATE else result
            for result in scored_batches[:n]
        ]
        survivors = [result for result in results if result is not None]

        oracle = _service(detector)
        for result in survivors:
            oracle.observe(result)

        service = _service(detector)
        use_callback = bool(schedule % 2)
        delivered = []
        pool = ProcessWorkerPool(
            service, result_callback=delivered.append if use_callback else None
        )
        fed = set()
        for sequence in rng.permutation(n).tolist():
            pool._commit(sequence, results[sequence])
            fed.add(sequence)
            if not use_callback:
                delivered.extend(pool.collect())
            cursor = 0
            while cursor in fed:
                cursor += 1
            expected = [r for r in results[:cursor] if r is not None]
            if pool._next_commit != cursor or [id(r) for r in delivered] != [
                id(r) for r in expected
            ]:
                failures.append(
                    f"schedule {schedule}: after committing {sequence}, "
                    f"cursor {pool._next_commit} (expected {cursor}) and "
                    f"{len(delivered)} delivered (expected {len(expected)})"
                )
                break
        else:
            if pool._out_of_order or pool._next_commit != n:
                failures.append(f"schedule {schedule}: buffer not drained")
            elif _report_row(service) != _report_row(oracle):
                failures.append(f"schedule {schedule}: report differs")
    assert not failures, "\n".join(failures[:10])


def test_a_failing_delivery_is_recorded_and_the_buffer_keeps_draining(
    detector, scored_batches
):
    """A result callback that raises must not stall the sequences behind
    it: the error is kept for the next join/flush/close."""
    delivered = []

    def callback(result):
        if not delivered:
            delivered.append(None)
            raise RuntimeError("sink unavailable")
        delivered.append(result)

    pool = ProcessWorkerPool(_service(detector), result_callback=callback)
    for sequence in (2, 1, 0):
        pool._commit(sequence, scored_batches[sequence])
    assert delivered == [None, scored_batches[1], scored_batches[2]]
    assert pool._next_commit == 3
    with pytest.raises(RuntimeError, match="sink unavailable"):
        pool.join()
