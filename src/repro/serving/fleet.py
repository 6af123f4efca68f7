"""Fleet control plane: utilization-driven autoscaling and staged rollout.

Every serving layer below this module is driven by hand, one service at a
time: pools are sized once at construction, and a retrained challenger is
hot-swapped fleet-wide in a single stroke.  :class:`FleetController`
composes those layers into one operator.  It owns a
:class:`~repro.serving.sharding.ShardedDetectionService`, drives the stream
through one worker pool per shard, and closes two control loops at stream
batch boundaries:

* **Autoscaling** — each control tick polls every pool's
  :class:`~repro.serving.workers.PoolStats` (queue depth, in-flight count,
  busy fraction) and the shard monitor's busy-time utilization, and grows
  or shrinks the pool between :class:`AutoscalePolicy` bounds via the
  ``resize()`` seam.  Workers spawn and retire only on batch boundaries and
  every result still commits through the reorder buffer in submission
  order, so scaling changes wall-clock behaviour only — reports stay
  bit-equal to a fixed-size run.
* **Canary rollout** — a challenger handed to :meth:`request_rollout`
  (e.g. by a :class:`~repro.serving.lifecycle.DriftSupervisor` whose
  ``promotion_hook`` delegates fleet promotion here) first *shadows* the
  canary shard's traffic into its own monitors, is gated on the standing
  :class:`~repro.serving.lifecycle.ShadowComparison` verdict, then
  hot-swaps shard by shard with a configurable stagger.  Between stages the
  controller watches the swapped shards' post-swap rolling DR; if it
  degrades past the :class:`RolloutPolicy` floor, every already-swapped
  shard is rolled back to its retired primary detector.

Determinism contract: all rollout decisions are functions of committed
confusion counts at pool-drained boundaries, so they replay identically on
the same stream.  Autoscaling decisions read wall-clock-dependent queue
stats, so they do *not* — instead every decision is recorded as a
:class:`FleetEvent` in the report's ``timeline``, and replaying the
realized schedule (``FleetController(..., schedule=outcome.schedule())``)
reproduces bit-equal confusion counts and an identical decision timeline.
"""

from __future__ import annotations

import threading
from collections import deque
from functools import partial
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.detector import PelicanDetector
from ..data.generator import StreamBatch
from ..metrics.ids_metrics import DetectionReport
from .driver import StreamDriver
from .monitor import RollingDetectionMonitor
from .service import DetectionService, ServiceReport
from .sharding import ShardedDetectionService
from .workers import PoolStats, WorkerPool
from .lifecycle.checkpoint import DetectorCheckpoint
from .lifecycle.shadow import ShadowComparison, quality_deltas

__all__ = [
    "AutoscalePolicy",
    "RolloutPolicy",
    "FleetEvent",
    "FleetAction",
    "FleetOutcome",
    "FleetController",
]

#: Monitor width for trial/watch bookkeeping: wide enough that counts are
#: exact totals over any realistic trial or watch window.
_EXACT_WINDOW = 1 << 20


@dataclass(frozen=True)
class AutoscalePolicy:
    """Per-shard worker-count bounds and the backlog thresholds between them.

    The saturation signal is *backlog per worker*: the pool's in-flight
    batch count, plus one if records are queued in the micro-batcher,
    divided by the current worker count.  Above ``scale_up_backlog`` the
    pool grows by ``step`` (workers cannot keep up); below
    ``scale_down_backlog`` it shrinks by ``step`` (workers idle).  Between
    the thresholds the size holds — the hysteresis band that keeps the
    controller from thrashing.
    """

    min_workers: int = 1
    max_workers: int = 4
    scale_up_backlog: float = 1.5
    scale_down_backlog: float = 0.25
    step: int = 1

    def __post_init__(self) -> None:
        if self.min_workers <= 0:
            raise ValueError("min_workers must be positive")
        if self.max_workers < self.min_workers:
            raise ValueError("max_workers must be >= min_workers")
        if self.scale_down_backlog >= self.scale_up_backlog:
            raise ValueError(
                "scale_down_backlog must be below scale_up_backlog "
                "(the hysteresis band must not be empty)"
            )
        if self.step <= 0:
            raise ValueError("step must be positive")

    def decide(self, stats: PoolStats) -> int:
        """The worker count the pool should have, given its live stats."""
        backlog = stats.backlog_per_worker
        if backlog > self.scale_up_backlog and stats.workers < self.max_workers:
            return min(stats.workers + self.step, self.max_workers)
        if backlog < self.scale_down_backlog and stats.workers > self.min_workers:
            return max(stats.workers - self.step, self.min_workers)
        return stats.workers


@dataclass(frozen=True)
class RolloutPolicy:
    """Staged canary rollout: trial length, stagger, gate and rollback floor.

    Parameters
    ----------
    shadow_batches:
        Stream batches the challenger shadows on the canary shard before
        the promotion gate is evaluated.
    stagger_batches:
        Stream batches between consecutive stage swaps once promoted.
    canary_shard:
        Index of the shard whose traffic the challenger shadows (and the
        first shard swapped).
    min_dr_gain / max_far_regression:
        The :meth:`~repro.serving.lifecycle.ShadowComparison.challenger_wins`
        gate thresholds.
    dr_floor:
        Rollback floor: if the swapped shards' merged *post-swap* rolling DR
        falls below this (with at least ``min_watch_records`` watched and
        attack traffic present), every swapped shard reverts to its retired
        primary.  ``None`` disables rollback.
    min_watch_records:
        Post-swap records required on the swapped shards before the floor
        is judged (fresh windows are noisy).
    """

    shadow_batches: int = 4
    stagger_batches: int = 2
    canary_shard: int = 0
    min_dr_gain: float = 0.0
    max_far_regression: float = 0.0
    dr_floor: Optional[float] = 0.5
    min_watch_records: int = 64

    def __post_init__(self) -> None:
        if self.shadow_batches < 0:
            raise ValueError("shadow_batches must be non-negative")
        if self.stagger_batches < 0:
            raise ValueError("stagger_batches must be non-negative")
        if self.canary_shard < 0:
            raise ValueError("canary_shard must be non-negative")
        if self.dr_floor is not None and not 0.0 <= self.dr_floor <= 1.0:
            raise ValueError("dr_floor must be in [0, 1] when given")
        if self.min_watch_records < 0:
            raise ValueError("min_watch_records must be non-negative")


@dataclass(frozen=True)
class FleetEvent:
    """One timeline entry of a controlled fleet run."""

    kind: str               # resize | shadow-start | promote | reject | swap
    #                       # | rollback | rollout-complete | rollout-incomplete
    #                       # | trial-abandoned
    batch_index: int        # stream batch after which the event fired
    shard: Optional[int]    # shard the event addresses (None = fleet-wide)
    records_seen: int       # fleet-wide records served when it fired
    time: float             # service-clock reading
    detail: Dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        where = f" shard={self.shard}" if self.shard is not None else ""
        detail = ", ".join(f"{k}={v}" for k, v in self.detail.items())
        return (
            f"[batch {self.batch_index:>4d}]{where} {self.kind}"
            + (f" ({detail})" if detail else "")
        )


@dataclass(frozen=True)
class FleetAction:
    """The replayable core of a :class:`FleetEvent`.

    Strips the wall-clock fields (``time``, ``records_seen``, live queue
    stats) so two runs that made the same *decisions* compare equal, and so
    a recorded schedule can be fed back via ``FleetController(schedule=...)``.
    ``workers`` is the resize target (``None`` for rollout actions).
    """

    kind: str
    batch_index: int
    shard: Optional[int] = None
    workers: Optional[int] = None


@dataclass(frozen=True)
class FleetOutcome:
    """What a controlled fleet run produced."""

    report: ServiceReport
    events: List[FleetEvent]

    def _kinds(self) -> List[str]:
        return [event.kind for event in self.events]

    @property
    def resized(self) -> bool:
        return "resize" in self._kinds()

    @property
    def promoted(self) -> bool:
        return "promote" in self._kinds()

    @property
    def rolled_back(self) -> bool:
        return "rollback" in self._kinds()

    @property
    def completed(self) -> bool:
        return "rollout-complete" in self._kinds()

    def schedule(self) -> Tuple[FleetAction, ...]:
        """The run's decision schedule (replayable, wall-clock-free)."""
        return tuple(
            FleetAction(
                kind=event.kind,
                batch_index=event.batch_index,
                shard=event.shard,
                workers=(
                    int(event.detail["workers"])
                    if event.kind == "resize"
                    else None
                ),
            )
            for event in self.events
        )


class FleetController:
    """Close the autoscaling and rollout loops over a sharded fleet.

    Parameters
    ----------
    fleet:
        The :class:`ShardedDetectionService` to control.  Autoscaling works
        with any routing policy; staged rollouts require a homogeneous
        (replica) fleet — every shard must serve the challenger's schema
        and class order.
    num_workers:
        Initial per-shard pool size.
    worker_backend:
        ``"thread"`` (:class:`~repro.serving.workers.WorkerPool`) or
        ``"process"`` (:class:`~repro.serving.procpool.ProcessWorkerPool`)
        — the pool flavour opened per shard.
    autoscale:
        The :class:`AutoscalePolicy`; ``None`` disables autoscaling.
    rollout:
        The :class:`RolloutPolicy` governing challenger deployments.
    schedule:
        A recorded schedule (from :meth:`FleetOutcome.schedule`) to replay:
        its ``resize`` actions are applied at their recorded batch indices
        and the live autoscaler is bypassed.  Rollout actions replay
        implicitly — their decisions are deterministic functions of the
        stream — so a replayed run reproduces the full decision timeline
        and bit-equal confusion counts.
    """

    def __init__(
        self,
        fleet: ShardedDetectionService,
        num_workers: int = 2,
        worker_backend: str = "thread",
        autoscale: Optional[AutoscalePolicy] = None,
        rollout: Optional[RolloutPolicy] = None,
        schedule: Optional[Sequence[FleetAction]] = None,
    ) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        fleet._pool_type(worker_backend)  # fail fast on unknown backends
        self.fleet = fleet
        self.num_workers = int(num_workers)
        self.worker_backend = worker_backend
        self.autoscale = autoscale
        self.rollout = rollout or RolloutPolicy()
        if not 0 <= self.rollout.canary_shard < len(fleet.shards):
            raise ValueError(
                f"canary shard {self.rollout.canary_shard} is outside "
                f"[0, {len(fleet.shards)})"
            )
        self._replay: Optional[Dict[int, List[FleetAction]]] = None
        if schedule is not None:
            self._replay = {}
            for action in schedule:
                if action.kind == "resize":
                    self._replay.setdefault(action.batch_index, []).append(action)
        self._pending_lock = threading.Lock()
        self._pending_rollouts: Deque[PelicanDetector] = deque()

    # ------------------------------------------------------------------ #
    def request_rollout(
        self, challenger: Union[PelicanDetector, DetectorCheckpoint]
    ) -> None:
        """Queue a challenger for a staged canary rollout.

        Accepts a fitted detector or a :class:`DetectorCheckpoint` (e.g.
        saved by a retrain pipeline); the next stream batch boundary starts
        its shadow trial.  This is the target a
        :class:`~repro.serving.lifecycle.DriftSupervisor` ``promotion_hook``
        points at — the supervisor hands over the retrained challenger and
        the controller owns the deployment.  Thread-safe (a background
        retrain may hand off mid-run); rollouts are deployed one at a time
        in request order.
        """
        if isinstance(challenger, DetectorCheckpoint):
            challenger = challenger.restore()
        if not challenger.is_fitted:
            raise RuntimeError("request_rollout requires a fitted challenger")
        for index, shard in enumerate(self.fleet.shards):
            if challenger.schema.name != shard.detector.schema.name:
                raise ValueError(
                    f"challenger is fitted on schema "
                    f"{challenger.schema.name!r} but shard {index} serves "
                    f"{shard.detector.schema.name!r}; staged rollouts "
                    "require a homogeneous fleet"
                )
            challenger_classes = list(
                challenger.preprocessor.label_encoder.classes_
            )
            if challenger_classes != shard.pipeline.class_names:
                raise ValueError(
                    f"challenger class order {challenger_classes} does not "
                    f"match shard {index}'s {shard.pipeline.class_names}"
                )
        with self._pending_lock:
            self._pending_rollouts.append(challenger)

    # ------------------------------------------------------------------ #
    def run_stream(
        self,
        stream: Iterable[StreamBatch],
        max_batches: Optional[int] = None,
    ) -> FleetOutcome:
        """Serve the stream under fleet control; returns the outcome.

        The :class:`~repro.serving.driver.StreamDriver` over the fleet's
        shards, one worker pool per shard — per-shard attribution, merged
        per-phase reports, as in :meth:`ShardedDetectionService.run_stream`
        — with the two control loops as its ``after_batch`` hook.  The
        returned report carries the event timeline under ``timeline``.
        """
        fleet = self.fleet
        events: List[FleetEvent] = []
        # Rollout state.  All mutated on the driving thread only; the
        # callbacks below read trial/watch sinks between pool joins, where
        # no commit can race the mutation.
        trial_primary: Optional[RollingDetectionMonitor] = None
        trial_service: Optional[DetectionService] = None
        trial_remaining = 0
        challenger: Optional[PelicanDetector] = None
        staging: List[int] = []      # shard indices not yet swapped
        swapped: List[int] = []      # shard indices swapped, in swap order
        retired: Dict[int, PelicanDetector] = {}
        watch: Dict[int, RollingDetectionMonitor] = {}
        stage_countdown = 0

        def on_commit(index: int, result) -> None:
            # Each shard pool's result callback: feeds the trial and watch
            # monitors as results commit, so they are current after a join.
            sink = watch.get(index)
            if sink is not None:
                sink.update(result.true_indices, result.class_indices)
            if trial_primary is not None and index == self.rollout.canary_shard:
                trial_primary.update(result.true_indices, result.class_indices)

        def log(kind: str, batch_index: int, shard: Optional[int] = None, **detail):
            events.append(
                FleetEvent(
                    kind=kind,
                    batch_index=batch_index,
                    shard=shard,
                    records_seen=sum(s.monitor.seen for s in fleet.shards),
                    time=fleet.shards[0].clock(),
                    detail=detail,
                )
            )

        def begin_trial(batch_index: int) -> None:
            nonlocal trial_primary, trial_service, trial_remaining, challenger
            with self._pending_lock:
                if not self._pending_rollouts:
                    return
                candidate = self._pending_rollouts.popleft()
            canary = fleet.shards[self.rollout.canary_shard]
            # Drain the canary first: from here on its committed results and
            # the challenger's shadow scores cover the identical records.
            pools[self.rollout.canary_shard].join()
            challenger = candidate
            # process() scores each canary part whole, bypassing the
            # micro-batcher.
            trial_service = DetectionService(
                challenger, window=_EXACT_WINDOW, clock=canary.clock
            )
            trial_primary = RollingDetectionMonitor(
                normal_index=canary.pipeline.normal_index, window=_EXACT_WINDOW
            )
            trial_remaining = max(self.rollout.shadow_batches, 1)
            log("shadow-start", batch_index, shard=self.rollout.canary_shard)

        def swap_shard(index: int, batch_index: int) -> None:
            nonlocal stage_countdown
            # The pool-aware swap drains that shard's in-flight batches (and
            # re-ships the checkpoint for a process pool), so the swap lands
            # on a batch boundary and the watch monitor installed right
            # after sees post-swap records only.
            retired[index] = fleet.swap_shard(index, challenger, pool=pools[index])
            watch[index] = RollingDetectionMonitor(
                normal_index=fleet.shards[index].pipeline.normal_index,
                window=_EXACT_WINDOW,
            )
            staging.remove(index)
            swapped.append(index)
            stage_countdown = self.rollout.stagger_batches
            log("swap", batch_index, shard=index)

        def end_trial(batch_index: int) -> None:
            nonlocal trial_primary, trial_service, challenger
            primary_report = trial_primary.report()
            challenger_report = trial_service.monitor.report()
            verdict = ShadowComparison(
                challenger_report.total if primary_report and challenger_report else 0,
                *quality_deltas(primary_report, challenger_report),
            )
            trial_primary, trial_service = None, None
            if verdict.records == 0 or not verdict.challenger_wins(
                self.rollout.min_dr_gain, self.rollout.max_far_regression
            ):
                reason = (
                    "no canary traffic" if verdict.records == 0 else str(verdict)
                )
                log(
                    "reject",
                    batch_index,
                    shard=self.rollout.canary_shard,
                    comparison=reason,
                )
                challenger = None
                return
            log(
                "promote",
                batch_index,
                shard=self.rollout.canary_shard,
                comparison=str(verdict),
            )
            staging.extend(
                [self.rollout.canary_shard]
                + [
                    i
                    for i in range(len(fleet.shards))
                    if i != self.rollout.canary_shard
                ]
            )
            swap_shard(self.rollout.canary_shard, batch_index)

        def watch_report() -> Optional[DetectionReport]:
            parts = [
                report
                for index in swapped
                if (report := watch[index].report()) is not None
            ]
            return DetectionReport.merge(parts) if parts else None

        def degradation(report: Optional[DetectionReport]) -> Optional[float]:
            """The failing DR, or None while the watch looks healthy."""
            if self.rollout.dr_floor is None or report is None:
                return None
            if report.total < self.rollout.min_watch_records:
                return None
            if (report.tp + report.fn) == 0:  # DR undefined without attacks
                return None
            if report.detection_rate < self.rollout.dr_floor:
                return report.detection_rate
            return None

        def roll_back(batch_index: int, observed_dr: float) -> None:
            nonlocal challenger
            # Reverse swap order: the canary reverts last, so at every
            # moment during the unwind the fleet is a prefix of the rollout.
            for index in reversed(swapped):
                fleet.swap_shard(index, retired.pop(index), pool=pools[index])
                watch.pop(index, None)
                log(
                    "rollback",
                    batch_index,
                    shard=index,
                    dr=f"{observed_dr:.4f}",
                    floor=f"{self.rollout.dr_floor:.4f}",
                )
            swapped.clear()
            staging.clear()
            challenger = None

        def control_rollout(batch_index: int) -> None:
            nonlocal trial_remaining, stage_countdown, challenger
            if trial_service is not None:
                trial_remaining -= 1
                if trial_remaining <= 0:
                    pools[self.rollout.canary_shard].join()
                    end_trial(batch_index)
                return
            if not swapped:
                if challenger is None:
                    begin_trial(batch_index)
                return
            # Staging / final watch: judge only drained counts, so the
            # decision is a deterministic function of the stream.
            for index in swapped:
                pools[index].join()
            report = watch_report()
            failing_dr = degradation(report)
            if failing_dr is not None:
                roll_back(batch_index, failing_dr)
                return
            if staging:
                stage_countdown -= 1
                if stage_countdown <= 0:
                    swap_shard(staging[0], batch_index)
            elif challenger is not None:
                if report is not None and report.total >= max(
                    self.rollout.min_watch_records, 1
                ):
                    log(
                        "rollout-complete",
                        batch_index,
                        watched=report.total,
                        dr=f"{report.detection_rate:.4f}",
                    )
                    # The rollout is over: dismantle the watch so later
                    # stream decay cannot retroactively "roll back" a
                    # deployment that already passed its watch window.
                    challenger = None
                    swapped.clear()
                    retired.clear()
                    watch.clear()

        def control_scaling(batch_index: int) -> None:
            if self._replay is not None:
                for action in self._replay.get(batch_index, []):
                    pool = pools[action.shard]
                    before = pool.num_workers
                    pool.resize(action.workers)
                    log(
                        "resize",
                        batch_index,
                        shard=action.shard,
                        workers=action.workers,
                        workers_before=before,
                        replayed=True,
                    )
                return
            if self.autoscale is None:
                return
            for index, pool in enumerate(pools):
                stats = pool.stats()
                target = self.autoscale.decide(stats)
                if target == stats.workers:
                    continue
                pool.resize(target)
                log(
                    "resize",
                    batch_index,
                    shard=index,
                    workers=target,
                    workers_before=stats.workers,
                    queue_depth=stats.queue_depth,
                    in_flight=stats.in_flight,
                    busy_fraction=round(stats.busy_fraction, 4),
                    utilization=round(
                        fleet.shards[index].throughput.utilization, 4
                    ),
                )

        def before_submit(stream_batch: StreamBatch, parts) -> None:
            # The challenger shadows the canary's records before the canary
            # itself sees them — the ShadowDeployment tee order, so both
            # sides score the identical sequence.
            for index, part in parts:
                if trial_service is not None and index == self.rollout.canary_shard:
                    trial_service.process(part)

        def after_batch(batch_index: int, stream_batch: StreamBatch) -> None:
            control_rollout(batch_index)
            control_scaling(batch_index)

        with StreamDriver(
            fleet,
            before_submit,
            after_batch,
            num_workers=self.num_workers,
            worker_backend=self.worker_backend,
            result_callbacks=[partial(on_commit, i) for i in range(len(fleet.shards))],
        ) as driver:
            pools = driver.lanes
            report = driver.run(stream, max_batches)
            if trial_service is not None:
                log(
                    "trial-abandoned",
                    driver.served,
                    shard=self.rollout.canary_shard,
                    remaining=trial_remaining,
                )
            elif staging and swapped:
                log("rollout-incomplete", driver.served, unswapped=len(staging))
            elif challenger is not None and swapped:
                # Fully swapped but the final watch never accumulated
                # enough records: report it rather than claiming success.
                watched = watch_report()
                log(
                    "rollout-incomplete",
                    driver.served,
                    watched=watched.total if watched is not None else 0,
                )

        final = replace(report, timeline=tuple(events))
        return FleetOutcome(report=final, events=events)
