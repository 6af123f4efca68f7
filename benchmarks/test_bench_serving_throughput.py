"""Serving throughput benchmark: graph vs. fast path, and execution models.

Measures, for each of the four Section V-C networks, a batch-256 forward
pass on the tape (graph) path and on the graph-free inference path, asserts
the fast path reproduces the graph-path probabilities (atol 1e-6) at a
≥ 2x speedup, and then measures the serving tier end-to-end over a seeded
flood scenario in each execution model: the synchronous
:class:`repro.serving.DetectionService`, a :class:`ProcessWorkerPool` at
1/2/4 checkpoint-rehydrated child processes and a 2-shard replica
:class:`ShardedDetectionService` (a 2-child process pool per shard).
Every concurrent run's confusion counts are asserted bitwise-equal to the
single-service run.

The scaling claim is core-count-gated: on hosts with ≥ 4 cores the
4-process run is hard asserted at ≥ 1.5x the synchronous throughput; on
smaller hosts the curve is recorded (``speedup_vs_single`` per child
count) and the assertion auto-skips (a single core timeshares the same
arithmetic and pays the IPC on top).  The numbers are written to
``BENCH_serving.json`` at the repository root.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from bench_utils import emit
from repro.core import PelicanDetector, build_network, scaled_config
from repro.core.pelican import PAPER_BLOCK_COUNTS
from repro.data import NSLKDD_SCHEMA, TrafficStream, load_nslkdd, nslkdd_generator
from repro.serving import (
    DetectionService,
    ProcessWorkerPool,
    ShardedDetectionService,
)

BATCH_SIZE = 256
REPEATS = 3
WORKER_COUNTS = (1, 2, 4)
ROLLING_WINDOW = 4096  # wider than the stream so count comparisons are exact
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"


def _best_time(function, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - started)
    return best


def _measure_networks(scale, seed):
    config = scaled_config("nsl-kdd", scale)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(BATCH_SIZE, 1, config.filters))
    rows = {}
    for name, paper_blocks in PAPER_BLOCK_COUNTS.items():
        network = build_network(
            num_blocks=scale.scale_blocks(paper_blocks),
            num_classes=len(NSLKDD_SCHEMA.classes),
            config=config,
            residual=name.startswith("residual"),
            name=f"bench-{name}",
            seed=seed,
        )
        graph_probabilities = network.predict(x)            # also builds the layers
        fast_probabilities = network.predict(x, fast=True)
        graph_time = _best_time(lambda: network.predict(x))
        fast_time = _best_time(lambda: network.predict(x, fast=True))
        rows[name] = {
            "batch_size": BATCH_SIZE,
            "graph_s": graph_time,
            "fast_s": fast_time,
            "speedup": graph_time / fast_time,
            "fast_throughput_rps": BATCH_SIZE / fast_time,
            "max_abs_diff": float(
                np.abs(graph_probabilities - fast_probabilities).max()
            ),
        }
    return rows


def _service_row(report):
    return {
        "records": report.records,
        "batches": report.batches,
        "throughput_rps": report.throughput,
        "mean_latency_s": report.mean_latency,
        "p95_latency_s": report.p95_latency,
    }


def _counts(report):
    rolling = report.rolling
    return (rolling.tp, rolling.tn, rolling.fp, rolling.fn)


def _measure_service(seed):
    records = load_nslkdd(n_records=500, seed=seed)
    detector = PelicanDetector(
        NSLKDD_SCHEMA, num_blocks=1, epochs=2, batch_size=64,
        dropout_rate=0.3, seed=seed,
    )
    detector.fit(records)
    stream = TrafficStream.flood_scenario(
        nslkdd_generator(), batch_size=64, seed=seed
    )

    def fresh_service():
        return DetectionService(
            detector, max_batch_size=128, flush_interval=0.0,
            window=ROLLING_WINDOW,
        )

    single_report = fresh_service().run_stream(stream)
    results = _service_row(single_report)

    # Latency is the parent-measured round trip, so the serialization hop
    # is visible in the p95 column.  The x1 row is best of N, because a
    # single run's p95 on a shared host is dominated by ambient scheduling
    # noise.
    def _process_row(num_workers):
        report = ProcessWorkerPool(
            fresh_service(), num_workers=num_workers
        ).run_stream(stream)
        row = _service_row(report)
        row["speedup_vs_single"] = report.throughput / single_report.throughput
        assert _counts(report) == _counts(single_report), (
            f"process pool ({num_workers} workers) changed the confusion counts"
        )
        return row

    rows = [_process_row(1) for _ in range(REPEATS)]
    best = min(rows, key=lambda row: row["p95_latency_s"])
    best["p95_repeats_s"] = [row["p95_latency_s"] for row in rows]
    results["process_workers"] = {"1": best}
    for num_workers in WORKER_COUNTS[1:]:
        results["process_workers"][str(num_workers)] = _process_row(num_workers)

    sharded = ShardedDetectionService.replicated(
        detector, 2, max_batch_size=128, flush_interval=0.0,
        window=ROLLING_WINDOW,
    )
    sharded_report = sharded.run_stream(stream, num_workers=2)
    results["sharded"] = {
        "shards": 2,
        "workers_per_shard": 2,
        **_service_row(sharded_report),
        "counts_match_single": _counts(sharded_report) == _counts(single_report),
    }
    assert results["sharded"]["counts_match_single"], (
        "sharded merged confusion counts diverged from the single-service run"
    )
    return results


def _render(results) -> str:
    lines = [
        "Serving throughput (batch %d, best of %d)" % (BATCH_SIZE, REPEATS),
        f"{'network':<14s} {'graph ms':>10s} {'fast ms':>10s} {'speedup':>9s} {'max diff':>10s}",
    ]
    for name, row in results["networks"].items():
        lines.append(
            f"{name:<14s} {row['graph_s'] * 1e3:>10.1f} {row['fast_s'] * 1e3:>10.1f} "
            f"{row['speedup']:>8.1f}x {row['max_abs_diff']:>10.1e}"
        )
    service = results["service"]
    lines.append(
        "stream service: {:,.0f} rec/s over {} records "
        "(p95 batch latency {:.1f} ms)".format(
            service["throughput_rps"],
            service["records"],
            service["p95_latency_s"] * 1e3,
        )
    )
    for num_workers, row in service["process_workers"].items():
        lines.append(
            "  process pool x{}: {:,.0f} rec/s ({:.2f}x single-thread, "
            "p95 {:.1f} ms)".format(
                num_workers,
                row["throughput_rps"],
                row["throughput_rps"] / service["throughput_rps"],
                row["p95_latency_s"] * 1e3,
            )
        )
    sharded = service["sharded"]
    lines.append(
        "  sharded {}x{} workers: {:,.0f} rec/s (counts match: {})".format(
            sharded["shards"],
            sharded["workers_per_shard"],
            sharded["throughput_rps"],
            sharded["counts_match_single"],
        )
    )
    return "\n".join(lines)


def test_serving_throughput(run_once, scale, seed, check_claims):
    def experiment():
        return {
            "scale": scale.name,
            "networks": _measure_networks(scale, seed),
            "service": _measure_service(seed),
        }

    results = run_once(experiment)
    emit(_render(results))
    # Merge-write: other benchmarks own sibling sections of the same file
    # (e.g. the ingestion front-end's "ingest" row), so preserve them.
    merged = json.loads(RESULT_PATH.read_text()) if RESULT_PATH.exists() else {}
    merged.update(results)
    RESULT_PATH.write_text(json.dumps(merged, indent=2) + "\n")

    for name, row in results["networks"].items():
        assert row["max_abs_diff"] < 1e-6, (
            f"{name}: fast path diverged from the graph path "
            f"({row['max_abs_diff']:.2e})"
        )
    if check_claims:
        for name, row in results["networks"].items():
            assert row["speedup"] >= 2.0, (
                f"{name}: fast path speedup {row['speedup']:.2f}x below the "
                "2x serving target"
            )
        # Concurrency can only beat the serial path when there are cores to
        # run on; a single-core host timeshares the same arithmetic plus the
        # IPC, so the scaling claim auto-skips there and the curve is
        # recorded either way.  The process pool scores off the GIL: this
        # is the multi-core proof, hard asserted where the cores exist.
        if (os.cpu_count() or 1) >= 4:
            process_scaling = results["service"]["process_workers"]["4"][
                "speedup_vs_single"
            ]
            assert process_scaling >= 1.5, (
                f"4-process pool reached only {process_scaling:.2f}x the "
                "single-thread throughput (target 1.5x) on a "
                f"{os.cpu_count()}-core host"
            )
