"""Detector lifecycle end to end: checkpoint, shadow trial, drift-triggered
hot-swap.

The script walks the three lifecycle primitives on top of the streaming
service:

1. **Checkpoint** — a fitted detector is bundled into a single ``.npz``
   archive and restored into a scoring-identical copy (bitwise-equal
   ``predict(fast=True)``).
2. **Shadow deployment** — a challenger scores the same flood scenario the
   primary serves, and both are judged on those same records; the
   comparison report says whether it should take over.
3. **Drift supervision** — the retrain-recovery scenario drifts attack
   traffic towards the benign region (evasion drift) until DR collapses;
   a :class:`DriftSupervisor` notices on its rolling window, retrains a
   challenger on its replay buffer of drifted batches, and hot-swaps it in
   on a batch boundary without dropping a record.

Run:  PYTHONPATH=src python examples/lifecycle_management.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core import PelicanDetector
from repro.data import NSLKDD_SCHEMA, load_nslkdd, nslkdd_generator
from repro.scenarios import flood_scenario, retrain_recovery_scenario
from repro.serving import (
    DetectionService,
    DetectorCheckpoint,
    DriftPolicy,
    DriftSupervisor,
    ShadowDeployment,
)


def main() -> None:
    print("=== Training the primary detector (1 block, scaled down) ===")
    detector = PelicanDetector(
        NSLKDD_SCHEMA, num_blocks=1, epochs=2, batch_size=64,
        dropout_rate=0.3, seed=0,
    )
    detector.fit(load_nslkdd(n_records=500, seed=0))
    generator = nslkdd_generator()

    # ------------------------------------------------------------------ #
    print("\n=== 1. Checkpoint: one archive, scoring-identical restore ===")
    held_out = load_nslkdd(n_records=200, seed=9)
    with tempfile.TemporaryDirectory() as tmp:
        path = DetectorCheckpoint.capture(detector).save(
            Path(tmp) / "pelican-v1"
        )
        size_kb = path.stat().st_size / 1024
        restored = DetectorCheckpoint.load(path).restore()
        identical = np.array_equal(
            restored.predict_proba(held_out, fast=True),
            detector.predict_proba(held_out, fast=True),
        )
    print(f"archive: {path.name} ({size_kb:.0f} KiB)")
    print(f"restored predict(fast=True) bitwise-identical: {identical}")

    # ------------------------------------------------------------------ #
    print("\n=== 2. Shadow deployment: trial a challenger on live traffic ===")
    challenger = detector.clone_architecture(seed=7)
    challenger.fit(load_nslkdd(n_records=500, seed=3))
    primary = DetectionService(
        detector, max_batch_size=64, flush_interval=0.0, window=1 << 20
    )
    shadow = ShadowDeployment(primary, challenger)
    report = shadow.run_stream(flood_scenario(generator, batch_size=64, seed=1))
    print(f"primary:    {report.primary}")
    print(f"challenger: {report.challenger}")
    print(f"comparison: {report.comparison}")
    print(f"challenger wins: {report.comparison.challenger_wins()}")

    # ------------------------------------------------------------------ #
    print("\n=== 3. Drift supervision: evasion drift, retrain, hot-swap ===")
    stream = retrain_recovery_scenario(generator, batch_size=64, seed=0)

    unsupervised = DetectionService(
        detector, max_batch_size=64, flush_interval=0.0, window=512
    ).run_stream(stream)
    print("without a supervisor:")
    for phase, quality in unsupervised.phase_reports.items():
        print(f"  {phase:<16s} DR={quality.detection_rate:6.2%} "
              f"FAR={quality.false_alarm_rate:6.2%}")

    service = DetectionService(
        detector, max_batch_size=64, flush_interval=0.0, window=512
    )
    supervisor = DriftSupervisor(
        service,
        DriftPolicy(
            dr_floor=0.80, far_ceiling=0.20, min_records=256,
            # After a swap, let a window's worth of traffic flow before
            # re-evaluating: the rolling window still remembers the old
            # model's pre-swap mistakes.
            cooldown_records=512,
        ),
        background=False,   # retrain inline at the batch boundary
        replay_records=2048,
    )
    outcome = supervisor.run_stream(stream)
    print("with the supervisor:")
    for event in outcome.events:
        print(f"  {event}")
    if outcome.promoted:
        print(f"  recovery: {outcome.recovery_batches} batches "
              f"({outcome.recovery_seconds:.2f}s of service time)")
    for phase, quality in outcome.report.phase_reports.items():
        print(f"  {phase:<16s} DR={quality.detection_rate:6.2%} "
              f"FAR={quality.false_alarm_rate:6.2%}")
    print(f"records served across the swap: {outcome.report.records} "
          f"(stream emits {stream.total_records}; zero dropped)")


if __name__ == "__main__":
    main()
