#!/usr/bin/env python3
"""Streaming detection: serve a seeded flood scenario through a fitted detector.

End-to-end use of the :mod:`repro.serving` subsystem:

1. train a small :class:`repro.core.PelicanDetector` on synthetic NSL-KDD
   traffic (exactly like ``examples/quickstart.py``),
2. wrap it in a :class:`repro.serving.DetectionService` — micro-batching
   queue, the detector's own feature encoder and the graph-free
   ``fast=True`` forward pass,
3. drive it with a :class:`repro.data.TrafficStream` flood scenario: steady
   benign baseline, SYN/UDP/HTTP-flood-style bursts and a gradual-drift tail,
4. read the per-phase rolling DR/FAR and the throughput headline numbers.

Run with::

    python examples/streaming_detection.py
"""

from repro.core import PelicanDetector
from repro.data import NSLKDD_SCHEMA, TrafficStream, load_nslkdd, nslkdd_generator
from repro.serving import DetectionService


def main() -> None:
    # 1. A modest detector: 2 residual blocks, a few epochs — enough for the
    #    stream's binary attack/normal structure to be clearly learnable.
    train_records = load_nslkdd(n_records=800, seed=1)
    detector = PelicanDetector(
        NSLKDD_SCHEMA,
        num_blocks=2,
        epochs=5,
        batch_size=96,
        dropout_rate=0.3,
        seed=0,
    )
    print(f"training on {len(train_records)} records ...")
    detector.fit(train_records, verbose=1)

    # 2. The service: batches of up to 128 records, 20 ms age trigger, a
    #    512-record rolling ACC/DR/FAR window, fast-path inference.
    service = DetectionService(
        detector, max_batch_size=128, flush_interval=0.02, window=512
    )

    # 3. The scenario: ~30 batches of 64 records — benign baseline, three
    #    flood bursts at 70 % attack traffic, then drift.  Fully seeded, so
    #    every run replays the identical stream.
    stream = TrafficStream.flood_scenario(
        nslkdd_generator(), batch_size=64, seed=11
    )
    print(f"serving {stream.total_records} records in {stream.total_batches} batches ...")
    report = service.run_stream(stream)

    # 4. Results: headline throughput plus the per-phase quality breakdown —
    #    the flood phases should show a high detection rate, the benign
    #    phases a low false-alarm rate.
    print()
    print(report)
    print()
    print(f"{'phase':<18s} {'records':>8s} {'DR':>8s} {'FAR':>8s} {'ACC':>8s}")
    for phase, phase_report in report.phase_reports.items():
        print(
            f"{phase:<18s} {phase_report.total:>8d} "
            f"{phase_report.detection_rate:>8.2%} "
            f"{phase_report.false_alarm_rate:>8.2%} "
            f"{phase_report.accuracy:>8.2%}"
        )


if __name__ == "__main__":
    main()
