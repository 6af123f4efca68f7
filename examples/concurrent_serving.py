#!/usr/bin/env python3
"""Concurrent sharded serving: process pools and multi-detector routing.

Builds on ``examples/streaming_detection.py`` — same fitted detector, same
seeded scenarios — and shows the concurrent execution models of
:mod:`repro.serving` against the synchronous service:

1. **Process pool** — the flood scenario scored synchronously and on a
   2-process :class:`repro.serving.ProcessWorkerPool`: each child
   rehydrates a scoring-identical detector from a checkpoint and scores
   off the GIL, and the age trigger fires on a background timer, yet the
   quality report matches the synchronous run count for count (results
   commit in submission order).
2. **Sharded fleet** — the probe-sweep scenario routed across two detector
   shards with a ``class-family`` :class:`repro.serving.ShardRouter`: a
   "volumetric" shard for normal/DoS traffic and a "stealth" shard for the
   reconnaissance-style families, each shard on its own 1-child process
   pool.  The per-shard and merged rolling/per-phase reports come back in
   one :class:`repro.serving.ServiceReport`.

Run with::

    python examples/concurrent_serving.py
"""

from repro.core import PelicanDetector
from repro.data import NSLKDD_SCHEMA, TrafficStream, load_nslkdd, nslkdd_generator
from repro.serving import (
    DetectionService,
    ProcessWorkerPool,
    ShardedDetectionService,
    ShardRouter,
)


def print_phase_table(report) -> None:
    print(f"{'phase':<18s} {'records':>8s} {'DR':>8s} {'FAR':>8s} {'ACC':>8s}")
    for phase, phase_report in report.phase_reports.items():
        print(
            f"{phase:<18s} {phase_report.total:>8d} "
            f"{phase_report.detection_rate:>8.2%} "
            f"{phase_report.false_alarm_rate:>8.2%} "
            f"{phase_report.accuracy:>8.2%}"
        )


def main() -> None:
    train_records = load_nslkdd(n_records=800, seed=1)
    detector = PelicanDetector(
        NSLKDD_SCHEMA, num_blocks=2, epochs=5, batch_size=96,
        dropout_rate=0.3, seed=0,
    )
    print(f"training on {len(train_records)} records ...")
    detector.fit(train_records, verbose=1)

    # ------------------------------------------------------------------ #
    # 1. Synchronous service vs process pool over the flood scenario.
    # ------------------------------------------------------------------ #
    flood = TrafficStream.flood_scenario(nslkdd_generator(), batch_size=64, seed=11)
    service = DetectionService(
        detector, max_batch_size=128, flush_interval=0.02, window=512
    )
    print(f"\nserving {flood.total_records} flood-scenario records synchronously ...")
    report = service.run_stream(flood)
    print(report)
    print_phase_table(report)

    print(
        f"\nserving {flood.total_records} flood-scenario records on "
        "2 child processes (checkpoint-rehydrated) ..."
    )
    process_service = DetectionService(
        detector, max_batch_size=128, flush_interval=0.02, window=512
    )
    process_report = ProcessWorkerPool(process_service, num_workers=2).run_stream(flood)
    print(process_report)
    sync = (report.rolling.tp, report.rolling.tn, report.rolling.fp, report.rolling.fn)
    procs = (
        process_report.rolling.tp, process_report.rolling.tn,
        process_report.rolling.fp, process_report.rolling.fn,
    )
    print(f"confusion counts match the synchronous run: {sync == procs}")

    # ------------------------------------------------------------------ #
    # 2. Class-family sharding over the probe-sweep scenario.
    # ------------------------------------------------------------------ #
    sweep = TrafficStream.probe_sweep_scenario(
        nslkdd_generator(), batch_size=64, seed=11
    )
    # In a deployment the routing key would come from an upstream coarse
    # classifier; the synthetic stream routes on its ground-truth labels.
    router = ShardRouter(
        2, "class-family",
        assignment={"normal": 0, "dos": 0, "probe": 1, "r2l": 1, "u2r": 1},
    )
    fleet = ShardedDetectionService(
        [
            DetectionService(detector, max_batch_size=128, flush_interval=0.02)
            for _ in range(2)
        ],
        router,
        names=["volumetric", "stealth"],
    )
    print(
        f"\nserving {sweep.total_records} probe-sweep records across "
        "2 class-family shards (1 child process each) ..."
    )
    merged = fleet.run_stream(sweep, num_workers=1)
    print(merged)
    for name, shard_report in merged.shard_reports.items():
        print(f"  {name:<12s} {shard_report}")
    print()
    print_phase_table(merged)


if __name__ == "__main__":
    main()
