"""Fleet control plane: backlog-driven autoscaling and staged rollout.

Every serving layer below this module is driven by hand, one service at a
time: pools are sized once at construction, and a retrained challenger is
hot-swapped fleet-wide in a single stroke.  :class:`FleetController`
composes those layers into one operator.  It owns a
:class:`~repro.serving.sharding.ShardedDetectionService`, drives the stream
through one :class:`~repro.serving.procpool.ProcessWorkerPool` per shard,
and closes two control loops at stream batch boundaries:

* **Autoscaling** — each control tick polls every pool's
  :class:`~repro.serving.procpool.PoolStats` and grows or shrinks the pool
  on its backlog per worker, between :class:`AutoscalePolicy` bounds, via
  the ``resize()`` seam.  Workers spawn and retire only on batch boundaries and
  every result still commits through the reorder buffer in submission
  order, so scaling changes wall-clock behaviour only — reports stay
  bit-equal to a fixed-size run.
* **Canary rollout** — a challenger handed to :meth:`request_rollout`
  (e.g. by a :class:`~repro.serving.lifecycle.DriftSupervisor` whose
  ``promotion_hook`` delegates fleet promotion here) first shadows the
  canary shard's traffic as a :class:`~repro.serving.lifecycle.shadow.Trial`,
  is gated on its :class:`~repro.serving.lifecycle.ShadowComparison`
  verdict, then hot-swaps shard by shard with a configurable stagger.
  Between stages the controller watches the swapped shards' DR over the
  records they committed since their swaps; if it degrades past the
  :class:`RolloutPolicy` floor, every already-swapped shard is rolled back
  to its retired primary detector.

Determinism contract: every rollout decision — trial start and verdict,
swap, watch, rollback — runs right after a flush of every lane and reads
only committed confusion counts, so it replays identically on the same
stream.  Autoscaling decisions read wall-clock-dependent queue
stats, so they do *not* — instead every decision is recorded as a
:class:`~repro.serving.driver.ControlEvent` in the driver's event log
(``FleetOutcome.events``), and replaying the realized schedule
(``FleetController(..., schedule=outcome.schedule())``) reproduces
bit-equal confusion counts and an identical decision log.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.detector import PelicanDetector
from ..data.generator import StreamBatch
from ..metrics.ids_metrics import DetectionReport
from .driver import ControlEvent, StreamDriver
from .procpool import PoolStats
from .service import ServiceReport, check_challenger
from .sharding import ShardedDetectionService
from .lifecycle.checkpoint import DetectorCheckpoint
from .lifecycle.shadow import Trial, counts_since, overall

__all__ = [
    "AutoscalePolicy",
    "RolloutPolicy",
    "FleetAction",
    "FleetOutcome",
    "FleetController",
]

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
        Rollback floor: if the swapped shards' merged *post-swap* DR
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
        if self.shadow_batches < 1:
            # A zero-record trial has no canary traffic: it can only reject.
            raise ValueError("shadow_batches must be positive")
        if self.stagger_batches < 0:
            raise ValueError("stagger_batches must be non-negative")
        if self.canary_shard < 0:
            raise ValueError("canary_shard must be non-negative")
        if self.dr_floor is not None and not 0.0 <= self.dr_floor <= 1.0:
            raise ValueError("dr_floor must be in [0, 1] when given")
        if self.min_watch_records < 0:
            raise ValueError("min_watch_records must be non-negative")


@dataclass(frozen=True)
class FleetAction:
    """The replayable core of a fleet :class:`~repro.serving.driver.ControlEvent`.

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
    events: List[ControlEvent]  # the driver's event log

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
        Initial per-shard pool size (child processes per shard).
    autoscale:
        The :class:`AutoscalePolicy`; ``None`` disables autoscaling.
    rollout:
        The :class:`RolloutPolicy` governing challenger deployments.
    schedule:
        A recorded schedule (from :meth:`FleetOutcome.schedule`) to replay:
        its ``resize`` actions are applied at their recorded batch indices
        and the live autoscaler is bypassed.  Rollout actions replay
        implicitly — their decisions are deterministic functions of the
        stream — so a replayed run reproduces the full decision log
        and bit-equal confusion counts.
    """

    def __init__(
        self,
        fleet: ShardedDetectionService,
        num_workers: int = 2,
        autoscale: Optional[AutoscalePolicy] = None,
        rollout: Optional[RolloutPolicy] = None,
        schedule: Optional[Sequence[FleetAction]] = None,
    ) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self.fleet = fleet
        self.num_workers = int(num_workers)
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
        for index, shard in enumerate(self.fleet.shards):
            check_challenger(challenger, shard.detector, f"shard {index}")
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
        shards, one process pool per shard — per-shard attribution, merged
        per-phase reports, as in :meth:`ShardedDetectionService.run_stream`
        — with the two control loops as its ``after_batch`` hook.  The
        outcome's ``events`` is the driver's event log.
        """
        fleet = self.fleet
        canary = self.rollout.canary_shard
        # Rollout state, touched on the driving thread only.  Every trial,
        # swap and watch decision reads the driver's exact per-lane totals
        # right after a driver.flush(), so it judges committed counts only.
        trial: Optional[Trial] = None
        challenger: Optional[PelicanDetector] = None
        staging: List[int] = []      # shard indices not yet swapped
        swapped: List[int] = []      # shard indices swapped, in swap order
        retired: Dict[int, PelicanDetector] = {}
        # Swapped shard -> its lane's per-phase totals at the swap.
        watch: Dict[int, Dict[str, DetectionReport]] = {}
        stage_countdown = 0

        def begin_trial(batch_index: int) -> None:
            nonlocal trial, challenger
            with self._pending_lock:
                if not self._pending_rollouts:
                    return
                challenger = self._pending_rollouts.popleft()
            trial = Trial(driver, challenger, lanes=[canary])
            driver.log("shadow-start", batch_index, shard=canary)

        def swap_in(index: int, batch_index: int) -> None:
            nonlocal stage_countdown
            # Called on a flushed boundary: nothing of this shard's is
            # pending or in flight, so the old model scored everything
            # before the swap and the watch baseline ends exactly there.
            # The pool's swap re-ships the checkpoint to its children.
            retired[index] = pools[index].swap_detector(challenger)
            watch[index] = driver.attributors[index].reports()
            staging.remove(index)
            swapped.append(index)
            stage_countdown = self.rollout.stagger_batches
            driver.log("swap", batch_index, shard=index)

        def end_trial(batch_index: int) -> None:
            nonlocal trial, challenger
            verdict = trial.verdict()
            trial = None
            if verdict.records == 0 or not verdict.challenger_wins(
                self.rollout.min_dr_gain, self.rollout.max_far_regression
            ):
                reason = (
                    "no canary traffic" if verdict.records == 0 else str(verdict)
                )
                driver.log("reject", batch_index, shard=canary, comparison=reason)
                challenger = None
                return
            driver.log(
                "promote", batch_index, shard=canary, comparison=str(verdict)
            )
            staging.extend(
                [canary] + [i for i in range(len(fleet.shards)) if i != canary]
            )
            swap_in(canary, batch_index)

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
                pools[index].swap_detector(retired.pop(index))
                watch.pop(index)
                driver.log(
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
            nonlocal stage_countdown, challenger
            if trial is not None:
                if trial.batches == self.rollout.shadow_batches:
                    end_trial(batch_index)
                return
            if not swapped:
                if challenger is None:
                    begin_trial(batch_index)
                return
            # Staging / final watch: the swapped lanes' counts since their
            # swaps, a deterministic function of the stream.
            driver.flush()
            report = overall(counts_since(driver, watch))
            failing_dr = degradation(report)
            if failing_dr is not None:
                roll_back(batch_index, failing_dr)
                return
            if staging:
                stage_countdown -= 1
                if stage_countdown <= 0:
                    swap_in(staging[0], batch_index)
            elif challenger is not None:
                if report is not None and report.total >= max(
                    self.rollout.min_watch_records, 1
                ):
                    driver.log(
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
                    driver.log(
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
                driver.log(
                    "resize",
                    batch_index,
                    shard=index,
                    workers=target,
                    workers_before=stats.workers,
                    queue_depth=stats.queue_depth,
                    in_flight=stats.in_flight,
                    busy_fraction=round(stats.busy_fraction, 4),
                )

        def after_batch(batch_index: int, stream_batch: StreamBatch) -> None:
            control_rollout(batch_index)
            control_scaling(batch_index)

        with StreamDriver(
            fleet, after_batch, num_workers=self.num_workers
        ) as driver:
            pools = driver.lanes
            report = driver.run(stream, max_batches)
            if trial is not None:
                driver.log(
                    "trial-abandoned",
                    driver.served,
                    shard=canary,
                    remaining=self.rollout.shadow_batches - trial.batches,
                )
            elif staging and swapped:
                driver.log(
                    "rollout-incomplete", driver.served, unswapped=len(staging)
                )
            elif challenger is not None and swapped:
                # Fully swapped but the final watch never accumulated
                # enough records: report it rather than claiming success.
                watched = overall(counts_since(driver, watch))
                driver.log(
                    "rollout-incomplete",
                    driver.served,
                    watched=watched.total if watched is not None else 0,
                )

        return FleetOutcome(report=report, events=driver.events)
