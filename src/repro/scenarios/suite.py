"""Scenario regression suite: every preset, every execution model.

:class:`ScenarioSuite` sweeps the scenario library through the serving
tier's execution models and collects per-scenario, per-phase quality and
throughput rows — the scenario-side counterpart of the serving benchmark's
``BENCH_serving.json`` baseline:

* single-schema presets (flood, probe-sweep, imbalance-shift, slow-dos)
  run **synchronous** (:class:`~repro.serving.service.DetectionService`),
  **worker-pool** (:class:`~repro.serving.workers.WorkerPool`),
  **process-pool** (:class:`~repro.serving.procpool.ProcessWorkerPool`,
  scoring in checkpoint-rehydrated child processes) and **sharded**
  (replica :class:`~repro.serving.sharding.ShardedDetectionService`);
* the cross-dataset **fleet** preset runs on a dataset-routed sharded
  service — inline and with per-shard worker pools — since a single
  service cannot preprocess two schemas.

Every row carries the serving layer's ordering guarantees, so for a given
scenario the worker-pool and replica-sharded confusion counts are expected
to equal the synchronous run's bit for bit; ``benchmarks/
test_bench_scenarios.py`` asserts exactly that and writes the rows to
``BENCH_scenarios.json`` at the repository root.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional

from ..core.detector import PelicanDetector
from ..data.nslkdd import nslkdd_generator
from ..data.unswnb15 import unswnb15_generator
from ..serving.fleet import AutoscalePolicy, FleetController, RolloutPolicy
from ..serving.lifecycle import DetectorCheckpoint, DriftPolicy, DriftSupervisor
from ..serving.procpool import ProcessWorkerPool
from ..serving.service import DetectionService, ServiceReport
from ..serving.sharding import ShardedDetectionService
from ..serving.workers import WorkerPool
from .fleet import (
    build_fleet_service,
    build_replica_fleet,
    overload_scenario,
    rollout_drift_scenario,
    validate_detector_keys,
)
from .presets import (
    EVENT_STREAM_PRESETS,
    SINGLE_STREAM_PRESETS,
    fleet_scenario,
    retrain_recovery_scenario,
)

__all__ = [
    "ScenarioSuite",
    "report_row",
    "lifecycle_row",
    "fleet_control_row",
    "DEFAULT_LIFECYCLE_POLICY",
]

#: Generator factories per schema name (the canonical synthetic populations).
_GENERATOR_FACTORIES = {
    "nsl-kdd": nslkdd_generator,
    "unsw-nb15": unswnb15_generator,
}

SINGLE_STREAM_MODELS = (
    "synchronous",
    "worker-pool",
    "process-pool",
    "sharded",
)
FLEET_MODELS = ("sharded", "sharded-workers")

#: Supervisor thresholds for the suite's lifecycle run.  The rolling window
#: is wide, so the drifted traffic has to move the *cumulative* FAR/DR a
#: long way before these trip — a trigger means genuine degradation, not a
#: noisy batch.
DEFAULT_LIFECYCLE_POLICY = DriftPolicy(
    far_ceiling=0.20, dr_floor=0.80, min_records=256, cooldown_records=512
)


def _quality(report) -> Dict[str, float]:
    return {
        "records": report.total,
        "tp": report.tp,
        "tn": report.tn,
        "fp": report.fp,
        "fn": report.fn,
        "dr": report.detection_rate,
        "far": report.false_alarm_rate,
        "acc": report.accuracy,
    }


def report_row(report: ServiceReport) -> Dict[str, object]:
    """Flatten a :class:`ServiceReport` into a JSON-able suite row."""
    row: Dict[str, object] = {
        "records": report.records,
        "batches": report.batches,
        "throughput_rps": report.throughput,
        "mean_latency_s": report.mean_latency,
        "p95_latency_s": report.p95_latency,
        "phases": {
            phase: _quality(phase_report)
            for phase, phase_report in report.phase_reports.items()
        },
    }
    if report.rolling is not None:
        row["overall"] = _quality(report.rolling)
    return row


def lifecycle_row(outcome) -> Dict[str, object]:
    """Flatten a :class:`~repro.serving.lifecycle.LifecycleOutcome` to JSON.

    Carries the event timeline, the per-batch rolling DR/FAR curves and the
    recovery-time headline alongside the usual service-report row — the
    shape ``BENCH_scenarios.json`` records as the lifecycle baseline.
    """
    return {
        "events": [
            {
                "kind": event.kind,
                "batch_index": event.batch_index,
                "records_seen": event.records_seen,
                "detail": {k: str(v) for k, v in event.detail.items()},
            }
            for event in outcome.events
        ],
        "triggered": outcome.triggered,
        "promoted": outcome.promoted,
        "recovery_batches": outcome.recovery_batches,
        "recovery_seconds": outcome.recovery_seconds,
        "dr_curve": outcome.dr_curve,
        "far_curve": outcome.far_curve,
        "report": report_row(outcome.report),
    }


def fleet_control_row(outcome) -> Dict[str, object]:
    """Flatten a :class:`~repro.serving.fleet.FleetOutcome` to JSON.

    Alongside the usual service-report row it records the controller's
    event timeline, per-kind event counts, the rollout stage timings
    (service-clock deltas between consecutive swap events) and — because
    the merged report already separates phases — the per-phase DR the
    bench asserts against.
    """
    swaps = [event for event in outcome.events if event.kind == "swap"]
    stage_timings = [
        later.time - earlier.time
        for earlier, later in zip(swaps, swaps[1:])
    ]
    kind_counts: Dict[str, int] = {}
    for event in outcome.events:
        kind_counts[event.kind] = kind_counts.get(event.kind, 0) + 1
    return {
        "events": [
            {
                "kind": event.kind,
                "batch_index": event.batch_index,
                "shard": event.shard,
                "records_seen": event.records_seen,
                "detail": {k: str(v) for k, v in event.detail.items()},
            }
            for event in outcome.events
        ],
        "event_counts": kind_counts,
        "scaling_events": kind_counts.get("resize", 0),
        "stage_timings_s": stage_timings,
        "promoted": outcome.promoted,
        "completed": outcome.completed,
        "rolled_back": outcome.rolled_back,
        "report": report_row(outcome.report),
    }


class ScenarioSuite:
    """Sweep scenario presets across the serving execution models.

    Parameters
    ----------
    detectors:
        Fitted detectors keyed by schema name.  Single-schema presets run
        against the first entry; the fleet preset runs when every corpus it
        interleaves has a detector (with the default generators: both
        ``"nsl-kdd"`` and ``"unsw-nb15"``).
    batch_size / seed:
        Forwarded to every preset, so the suite's streams are deterministic
        and a re-run scores the identical records.
    window:
        Rolling-monitor width; the default is wide enough that no suite
        stream overflows it, so the overall (rolling) counts are exact
        totals too — per-phase rows are exact totals on any window.
    num_workers:
        Pool size for the worker-pool (threads) and process-pool (child
        processes) models, and per shard in the ``sharded-workers`` fleet
        model.
    replica_shards:
        Shard count for the replica-sharded model.
    scenarios:
        Override the single-schema preset registry (name → factory taking
        ``(generator, batch_size=..., seed=...)``); tests use this to
        inject trimmed scenarios.
    event_scenarios / include_events:
        The packet-event preset registry (name → factory returning an
        :class:`~repro.ingest.EventTrafficStream`; default
        :data:`~repro.scenarios.presets.EVENT_STREAM_PRESETS`) and the
        switch that sweeps it.  Event presets run through the same
        execution models as the featurized ones — the adapter iterates as
        ordinary stream batches (each event batch aggregated through a
        replay-mode flow-feature extractor), so confusion counts are
        expected to match the underlying featurized stream bit for bit.
        Off by default: the lowering + aggregation round trip roughly
        doubles a scenario's data-plane work, which quick sweeps should
        opt into.
    include_fleet:
        Set ``False`` to skip the cross-dataset preset even when both
        detectors are available.
    include_fleet_control:
        Run the fleet-control-plane presets under a
        :class:`~repro.serving.fleet.FleetController` and record both
        control loops in the result tree's ``fleet_control`` entry: the
        ``overload`` preset on an autoscaled replica fleet (scaling-event
        counts, counts cross-checked against an uncontrolled run) and the
        ``rollout-drift`` preset with a checkpoint-rehydrated challenger
        driven through the staged canary rollout (stage timings, per-phase
        DR).  Off by default for the same reason as the lifecycle run:
        quick sweeps should not pay for it.
    include_lifecycle:
        Run the ``retrain-recovery`` preset a second time under a
        :class:`~repro.serving.lifecycle.DriftSupervisor` (inline retrain)
        and record the event timeline, DR/FAR curves and recovery time in
        the result tree's ``lifecycle`` entry.  Off by default: the
        supervised run *retrains a detector*, which the quick sweeps the
        suite is also used for should not pay; ``benchmarks/
        test_bench_scenarios.py`` switches it on for the baseline.
    lifecycle_policy / lifecycle_trainer / lifecycle_scenario:
        Supervisor knobs for that run: the :class:`DriftPolicy` (default
        :data:`DEFAULT_LIFECYCLE_POLICY`), the retrainer (default: clone
        the serving architecture, fit on the replay buffer) and the
        scenario factory (default :func:`retrain_recovery_scenario`).
    lifecycle_window:
        Rolling-monitor width for the supervised service only.  The sweep
        services use the suite-wide (practically unbounded) ``window`` so
        their overall counts are exact totals; the supervisor instead needs a
        *recent-traffic* window, otherwise early clean traffic dilutes the
        degradation signal and the policy triggers late.
    """

    def __init__(
        self,
        detectors: Mapping[str, PelicanDetector],
        batch_size: int = 64,
        seed: int = 0,
        window: int = 1 << 20,
        num_workers: int = 2,
        replica_shards: int = 2,
        scenarios: Optional[Mapping[str, Callable]] = None,
        event_scenarios: Optional[Mapping[str, Callable]] = None,
        include_events: bool = False,
        include_fleet: bool = True,
        include_fleet_control: bool = False,
        include_lifecycle: bool = False,
        lifecycle_policy: Optional[DriftPolicy] = None,
        lifecycle_trainer: Optional[Callable] = None,
        lifecycle_scenario: Optional[Callable] = None,
        lifecycle_window: int = 512,
    ) -> None:
        if not detectors:
            raise ValueError("ScenarioSuite needs at least one fitted detector")
        validate_detector_keys(detectors)
        self.detectors = dict(detectors)
        self.batch_size = int(batch_size)
        self.seed = int(seed)
        self.window = int(window)
        self.num_workers = int(num_workers)
        self.replica_shards = int(replica_shards)
        self.scenarios = dict(
            scenarios if scenarios is not None else SINGLE_STREAM_PRESETS
        )
        self.event_scenarios = dict(
            event_scenarios if event_scenarios is not None else EVENT_STREAM_PRESETS
        )
        self.include_events = bool(include_events)
        self.include_fleet = bool(include_fleet)
        self.include_fleet_control = bool(include_fleet_control)
        self.include_lifecycle = bool(include_lifecycle)
        self.lifecycle_policy = lifecycle_policy or DEFAULT_LIFECYCLE_POLICY
        self.lifecycle_trainer = lifecycle_trainer
        self.lifecycle_scenario = lifecycle_scenario or retrain_recovery_scenario
        self.lifecycle_window = int(lifecycle_window)

    # ------------------------------------------------------------------ #
    def _service(self, detector: PelicanDetector) -> DetectionService:
        return DetectionService(
            detector,
            max_batch_size=max(self.batch_size, 1),
            flush_interval=0.0,
            window=self.window,
        )

    def _run_model(self, detector: PelicanDetector, stream, model: str):
        if model == "synchronous":
            return self._service(detector).run_stream(stream)
        if model == "worker-pool":
            return WorkerPool(
                self._service(detector), num_workers=self.num_workers
            ).run_stream(stream)
        if model == "process-pool":
            return ProcessWorkerPool(
                self._service(detector), num_workers=self.num_workers
            ).run_stream(stream)
        if model == "sharded":
            sharded = ShardedDetectionService.replicated(
                detector,
                self.replica_shards,
                max_batch_size=max(self.batch_size, 1),
                flush_interval=0.0,
                window=self.window,
            )
            return sharded.run_stream(stream)
        raise ValueError(f"unknown execution model {model!r}")

    def _fleet_service(self) -> ShardedDetectionService:
        return build_fleet_service(
            self.detectors,
            max_batch_size=max(self.batch_size, 1),
            flush_interval=0.0,
            window=self.window,
        )

    def _replica_fleet(self, detector: PelicanDetector) -> ShardedDetectionService:
        return build_replica_fleet(
            detector,
            self.replica_shards,
            max_batch_size=max(self.batch_size, 1),
            flush_interval=0.0,
            window=self.window,
        )

    def _run_fleet_control(
        self, primary_name: str, primary: PelicanDetector, generator
    ) -> Dict[str, object]:
        """Both control loops on the fleet-control presets (see
        ``include_fleet_control``)."""
        entry: Dict[str, object] = {"dataset": primary_name}

        # Overload: start every shard at one worker with a hair-trigger
        # policy, so the surge forces scale-ups and the calm edges force
        # scale-downs; the uncontrolled run cross-checks the determinism
        # contract (autoscaling must not move a single confusion count).
        overload = overload_scenario(
            generator, batch_size=self.batch_size, seed=self.seed
        )
        controller = FleetController(
            self._replica_fleet(primary),
            num_workers=1,
            autoscale=AutoscalePolicy(
                min_workers=1,
                max_workers=max(self.num_workers, 2),
                scale_up_backlog=0.01,
                scale_down_backlog=0.005,
            ),
        )
        outcome = controller.run_stream(overload)
        baseline = self._replica_fleet(primary).run_stream(overload)
        row = fleet_control_row(outcome)
        row["total_batches"] = overload.total_batches
        row["total_records"] = overload.total_records
        row["counts_equal_uncontrolled"] = (
            outcome.report.rolling is not None
            and baseline.rolling is not None
            and (
                outcome.report.rolling.tp, outcome.report.rolling.tn,
                outcome.report.rolling.fp, outcome.report.rolling.fn,
            ) == (
                baseline.rolling.tp, baseline.rolling.tn,
                baseline.rolling.fp, baseline.rolling.fn,
            )
        )
        entry["overload"] = row

        # Rollout: a checkpoint-rehydrated (scoring-identical) challenger
        # rides the staged canary path end to end — shadow trial, gate,
        # staggered swaps, post-swap watch.
        rollout_stream = rollout_drift_scenario(
            generator, batch_size=self.batch_size, seed=self.seed
        )
        controller = FleetController(
            self._replica_fleet(primary),
            num_workers=self.num_workers,
            rollout=RolloutPolicy(
                shadow_batches=3,
                stagger_batches=2,
                min_watch_records=max(self.batch_size, 32),
            ),
        )
        controller.request_rollout(DetectorCheckpoint.capture(primary))
        outcome = controller.run_stream(rollout_stream)
        row = fleet_control_row(outcome)
        row["total_batches"] = rollout_stream.total_batches
        row["total_records"] = rollout_stream.total_records
        entry["rollout"] = row
        return entry

    # ------------------------------------------------------------------ #
    def run(self) -> Dict[str, object]:
        """Execute the sweep and return the JSON-able result tree."""
        primary_name = next(iter(self.detectors))
        primary = self.detectors[primary_name]
        generator_factory = _GENERATOR_FACTORIES.get(primary_name)
        if generator_factory is None:
            raise ValueError(
                f"no generator factory for schema {primary_name!r}; known: "
                f"{sorted(_GENERATOR_FACTORIES)}"
            )
        generator = generator_factory()

        results: Dict[str, object] = {
            "batch_size": self.batch_size,
            "seed": self.seed,
            "window": self.window,
            "num_workers": self.num_workers,
            "replica_shards": self.replica_shards,
            "scenarios": {},
        }
        for name, factory in self.scenarios.items():
            stream = factory(
                generator, batch_size=self.batch_size, seed=self.seed
            )
            entry = {
                "dataset": primary_name,
                "total_batches": stream.total_batches,
                "total_records": stream.total_records,
                "rate_hints": {
                    phase.name: phase.rate_hint
                    for phase in stream.phases
                    if phase.rate_hint is not None
                },
                "models": {},
            }
            for model in SINGLE_STREAM_MODELS:
                report = self._run_model(primary, stream, model)
                entry["models"][model] = report_row(report)
            results["scenarios"][name] = entry

        if self.include_events:
            for name, factory in self.event_scenarios.items():
                event_stream = factory(
                    generator, batch_size=self.batch_size, seed=self.seed
                )
                entry = {
                    "dataset": primary_name,
                    "plane": "packet-events",
                    "total_batches": event_stream.total_batches,
                    "total_records": event_stream.total_records,
                    "rate_hints": {
                        phase.name: phase.rate_hint
                        for phase in event_stream.phases
                        if phase.rate_hint is not None
                    },
                    "models": {},
                }
                # The adapter yields plain stream batches, so every single-
                # stream execution model consumes it unchanged.
                for model in SINGLE_STREAM_MODELS:
                    report = self._run_model(primary, event_stream, model)
                    entry["models"][model] = report_row(report)
                results["scenarios"][name] = entry

        if self.include_fleet:
            fleet_stream = fleet_scenario(
                batch_size=self.batch_size, seed=self.seed
            )
            needed = {schema.name for schema in fleet_stream.schemas}
            if needed <= set(self.detectors):
                entry = {
                    "dataset": "+".join(sorted(needed)),
                    "total_batches": fleet_stream.total_batches,
                    "total_records": fleet_stream.total_records,
                    "models": {},
                }
                for model in FLEET_MODELS:
                    workers = self.num_workers if model == "sharded-workers" else 0
                    report = self._fleet_service().run_stream(
                        fleet_stream, num_workers=workers
                    )
                    entry["models"][model] = report_row(report)
                results["scenarios"]["fleet"] = entry

        if self.include_fleet_control:
            results["fleet_control"] = self._run_fleet_control(
                primary_name, primary, generator
            )

        if self.include_lifecycle:
            stream = self.lifecycle_scenario(
                generator, batch_size=self.batch_size, seed=self.seed
            )
            supervised_service = DetectionService(
                primary,
                max_batch_size=max(self.batch_size, 1),
                flush_interval=0.0,
                window=self.lifecycle_window,
            )
            supervisor = DriftSupervisor(
                supervised_service,
                policy=self.lifecycle_policy,
                trainer=self.lifecycle_trainer,
                background=False,  # deterministic: retrain at the boundary
            )
            outcome = supervisor.run_stream(stream)
            results["lifecycle"] = {
                "scenario": "retrain-recovery",
                "dataset": primary_name,
                "total_batches": stream.total_batches,
                "total_records": stream.total_records,
                "window": self.lifecycle_window,
                "policy": {
                    "far_ceiling": self.lifecycle_policy.far_ceiling,
                    "dr_floor": self.lifecycle_policy.dr_floor,
                    "unknown_ceiling": self.lifecycle_policy.unknown_ceiling,
                    "min_records": self.lifecycle_policy.min_records,
                    "cooldown_records": self.lifecycle_policy.cooldown_records,
                },
                **lifecycle_row(outcome),
            }
        return results
