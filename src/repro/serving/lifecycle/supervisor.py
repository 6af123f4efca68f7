"""Drift-triggered retraining and zero-drop hot-swap.

The serving tier measures its own degradation — rolling DR/FAR windows and
per-column unknown-categorical drift counters — but through PR 3 it could
only *report* it.  :class:`DriftSupervisor` closes the loop:

1. **Watch** — after every stream batch the supervisor evaluates a
   :class:`DriftPolicy` against the service's rolling report and the
   vocabulary-drift counters.
2. **Remember** — a bounded :class:`ReplayBuffer` keeps the most recent
   labelled batches; when drift trips the policy, the buffer snapshot is
   the challenger's training set (it contains the drifted distribution the
   primary was trained without).
3. **Retrain** — a trainer callable produces the challenger, on a
   background thread by default so serving continues at full rate, or
   inline (``background=False``) for deterministic tests.
4. **Trial** — optionally the challenger shadows the next
   ``shadow_batches`` stream batches as a
   :class:`~repro.serving.lifecycle.shadow.Trial`, and the promotion gate
   compares the two sides over exactly those records.
5. **Swap** — promotion is an atomic hot-swap committed on a batch
   boundary: the execution model is flushed (every dispatched batch scored
   and committed, nothing pending in any micro-batcher), then
   :meth:`~repro.serving.service.DetectionService.swap_detector` replaces
   the engine in one attribute store.  No record is dropped or scored
   twice, and because predictions are per-record deterministic, the run's
   confusion counts are bitwise-equal to a drain-stop-restart deployment
   of the same two models at the same boundary.

The supervisor drives any of the three execution models through the
:class:`~repro.serving.driver.StreamDriver`, with the watch/retrain/swap
steps as its ``after_batch`` hook: a synchronous
:class:`~repro.serving.service.DetectionService`, a
:class:`~repro.serving.procpool.ProcessWorkerPool` (results commit in
submission order, so attribution is unchanged; the pool's swap also
re-ships the challenger's checkpoint to its children) or a
:class:`~repro.serving.sharding.ShardedDetectionService` (shards score
inline, as in its own ``run_stream``; a swap replaces every shard's engine
— replica fleets share one detector, so one challenger serves all).

:meth:`DriftSupervisor.run_stream` returns a :class:`LifecycleOutcome`:
the final :class:`~repro.serving.service.ServiceReport` plus the driver's
event log (drift detected → retrain complete → promoted, each a
:class:`~repro.serving.driver.ControlEvent`), the per-batch
rolling-DR curve and recovery-time accessors — the numbers
``BENCH_scenarios.json`` records for the ``retrain-recovery`` preset.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from ...core.detector import PelicanDetector
from ...data.dataset import TrafficRecords
from ...data.generator import StreamBatch
from ...metrics.ids_metrics import DetectionReport
from ..driver import ControlEvent, StreamDriver
from ..service import ServiceReport
from .shadow import Primary, Trial, template_service

__all__ = [
    "DriftPolicy",
    "ReplayBuffer",
    "LifecycleOutcome",
    "DriftSupervisor",
    "default_retrainer",
]

#: Trainer signature: (replay records, currently serving detector) -> challenger.
Trainer = Callable[[TrafficRecords, PelicanDetector], PelicanDetector]


def default_retrainer(
    records: TrafficRecords, detector: PelicanDetector
) -> PelicanDetector:
    """Clone the serving architecture and fit it on the replay buffer."""
    challenger = detector.clone_architecture()
    challenger.fit(records)
    return challenger


@dataclass(frozen=True)
class DriftPolicy:
    """When is the serving detector considered degraded?

    Thresholds are evaluated after every stream batch; any one tripping
    triggers a retrain.  ``None`` disables a dimension.

    Parameters
    ----------
    far_ceiling:
        Trigger when the rolling false-alarm rate exceeds this.
    dr_floor:
        Trigger when the rolling detection rate falls below this (only
        evaluated while the window contains attack traffic — DR over zero
        attacks is vacuously 0 and must not trip the policy).
    unknown_ceiling:
        Trigger when this many serve-time categorical values outside the
        training vocabulary have accumulated since the last swap (or the
        start of the run).
    min_records:
        Do not evaluate the quality thresholds before the rolling window
        holds at least this many records (fresh windows are noisy).
    cooldown_records:
        After a swap (or the start of the run), serve at least this many
        records before the policy may trigger again.
    """

    far_ceiling: Optional[float] = None
    dr_floor: Optional[float] = None
    unknown_ceiling: Optional[int] = None
    min_records: int = 256
    cooldown_records: int = 0

    def __post_init__(self) -> None:
        for name in ("far_ceiling", "dr_floor"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1] when given")
        if self.unknown_ceiling is not None and self.unknown_ceiling < 0:
            raise ValueError("unknown_ceiling must be non-negative when given")
        if self.min_records < 0 or self.cooldown_records < 0:
            raise ValueError("min_records and cooldown_records must be non-negative")
        if (
            self.far_ceiling is None
            and self.dr_floor is None
            and self.unknown_ceiling is None
        ):
            raise ValueError("a DriftPolicy needs at least one enabled threshold")

    def check(
        self, rolling: Optional[DetectionReport], unknown_since_mark: int
    ) -> Optional[str]:
        """The trigger reason, or ``None`` while everything is healthy."""
        if (
            self.unknown_ceiling is not None
            and unknown_since_mark >= self.unknown_ceiling
        ):
            return (
                f"unknown-categoricals {unknown_since_mark} >= "
                f"{self.unknown_ceiling}"
            )
        if rolling is None or rolling.total < self.min_records:
            return None
        if (
            self.far_ceiling is not None
            and rolling.false_alarm_rate > self.far_ceiling
        ):
            return (
                f"rolling FAR {rolling.false_alarm_rate:.4f} > "
                f"{self.far_ceiling:.4f}"
            )
        if (
            self.dr_floor is not None
            and (rolling.tp + rolling.fn) > 0
            and rolling.detection_rate < self.dr_floor
        ):
            return (
                f"rolling DR {rolling.detection_rate:.4f} < {self.dr_floor:.4f}"
            )
        return None


class ReplayBuffer:
    """Bounded FIFO of recent labelled record batches.

    Whole batches are evicted oldest-first once the record budget is
    exceeded, so the buffer always holds the *most recent* traffic — which
    is exactly the distribution a drift-triggered retrain must learn.
    """

    def __init__(self, max_records: int = 4096) -> None:
        if max_records <= 0:
            raise ValueError("max_records must be positive")
        self.max_records = int(max_records)
        # Deque, not list: oldest-first eviction is a popleft on the hot
        # append path, where list.pop(0) would shift every element.
        self._batches: Deque[TrafficRecords] = deque()
        self._records = 0

    def __len__(self) -> int:
        return self._records

    def append(self, records: TrafficRecords) -> None:
        if len(records) == 0:
            return
        self._batches.append(records)
        self._records += len(records)
        while self._records > self.max_records and len(self._batches) > 1:
            evicted = self._batches.popleft()
            self._records -= len(evicted)

    def snapshot(self) -> TrafficRecords:
        """The buffered records as one batch (oldest first)."""
        if not self._batches:
            raise RuntimeError("the replay buffer is empty")
        if len(self._batches) == 1:
            return self._batches[0]
        return TrafficRecords.concatenate(list(self._batches))


@dataclass(frozen=True)
class LifecycleOutcome:
    """What a supervised stream run produced."""

    report: ServiceReport
    events: List[ControlEvent]         # the driver's event log
    dr_curve: List[Optional[float]]   # rolling DR after each stream batch
    far_curve: List[Optional[float]]  # rolling FAR after each stream batch

    def _first(self, kind: str) -> Optional[ControlEvent]:
        return next((e for e in self.events if e.kind == kind), None)

    @property
    def triggered(self) -> bool:
        return self._first("drift-detected") is not None

    @property
    def promoted(self) -> bool:
        return self._first("promoted") is not None

    @property
    def recovery_batches(self) -> Optional[int]:
        """Stream batches from drift detection to promotion (None if no swap)."""
        detected, promoted = self._first("drift-detected"), self._first("promoted")
        if detected is None or promoted is None:
            return None
        return promoted.batch_index - detected.batch_index

    @property
    def recovery_seconds(self) -> Optional[float]:
        """Service-clock seconds from drift detection to promotion."""
        detected, promoted = self._first("drift-detected"), self._first("promoted")
        if detected is None or promoted is None:
            return None
        return promoted.time - detected.time


class DriftSupervisor:
    """Close the measure → retrain → swap loop over a served stream.

    Parameters
    ----------
    target:
        The execution model to supervise: a synchronous service, a process
        pool or a (replica-)sharded service.
    policy:
        The :class:`DriftPolicy` thresholds.
    trainer:
        ``(replay records, serving detector) -> challenger`` callable;
        defaults to :func:`default_retrainer` (clone the architecture, fit
        on the replay buffer).
    replay_records:
        Capacity of the :class:`ReplayBuffer`.
    shadow_batches:
        Stream batches the challenger shadows before the promotion
        decision; ``0`` promotes at the first boundary after the retrain
        completes.
    promote_if:
        Optional ``(challenger trial report, primary trial report) ->
        bool`` gate evaluated after the trial: both reports count the same
        records, the ones served during the trial.  Defaults to
        unconditional promotion.  Only consulted when ``shadow_batches > 0``.
    background:
        Retrain on a daemon thread (serving continues meanwhile).  With
        ``False`` the retrain runs inline at the trigger boundary —
        deterministic, used by tests and benchmarks.
    max_retrains:
        Upper bound on retrain cycles in one run (a runaway-threshold
        backstop).
    promotion_hook:
        Optional ``(challenger) -> None`` callable that takes over the
        promotion: instead of flushing and swapping the supervised target
        itself, the supervisor hands the challenger off (logging a
        ``promotion-delegated`` event) and leaves the deployment to the
        hook.  This is how a fleet delegates its rollouts: the hook is
        typically :meth:`repro.serving.fleet.FleetController.request_rollout`,
        which stages the challenger through a canary shard instead of
        swapping every shard at once.
    """

    def __init__(
        self,
        target: Primary,
        policy: DriftPolicy,
        trainer: Optional[Trainer] = None,
        replay_records: int = 4096,
        shadow_batches: int = 0,
        promote_if: Optional[
            Callable[[DetectionReport, Optional[DetectionReport]], bool]
        ] = None,
        background: bool = True,
        max_retrains: int = 4,
        promotion_hook: Optional[Callable[[PelicanDetector], None]] = None,
    ) -> None:
        if shadow_batches < 0:
            raise ValueError("shadow_batches must be non-negative")
        if max_retrains <= 0:
            raise ValueError("max_retrains must be positive")
        self._template = template_service(target)  # fail fast on bad targets
        self.target = target
        self.policy = policy
        self.trainer = trainer or default_retrainer
        self.replay = ReplayBuffer(max_records=replay_records)
        self.shadow_batches = int(shadow_batches)
        self.promote_if = promote_if
        self.background = bool(background)
        self.max_retrains = int(max_retrains)
        self.promotion_hook = promotion_hook

    # ------------------------------------------------------------------ #
    def run_stream(
        self,
        stream,
        max_batches: Optional[int] = None,
    ) -> LifecycleOutcome:
        """Serve the stream under supervision; see the module docstring.

        The returned outcome's report carries the usual rolling, per-phase
        and throughput numbers — one continuous history across any number
        of swaps — plus the driver's event log and per-batch DR/FAR curves.
        """
        dr_curve: List[Optional[float]] = []
        far_curve: List[Optional[float]] = []

        retrain_thread: Optional[threading.Thread] = None
        retrain_box: Dict[str, object] = {}
        challenger: Optional[PelicanDetector] = None
        trial: Optional[Trial] = None
        retrains = 0

        # Live readings, merged across the driver's lanes.
        def unknown_total(report: Optional[ServiceReport] = None) -> int:
            return sum((report or driver.report()).unknown_categoricals.values())

        def start_retrain(batch_index: int, reason: str) -> None:
            nonlocal retrain_thread, retrains
            retrains += 1
            driver.log("drift-detected", batch_index, reason=reason)
            replay = self.replay.snapshot()
            serving = self._template.detector
            if self.background:
                def worker() -> None:
                    try:
                        retrain_box["challenger"] = self.trainer(replay, serving)
                    except BaseException as exc:  # surfaced at the boundary
                        retrain_box["error"] = exc
                retrain_thread = threading.Thread(
                    target=worker, name="lifecycle-retrain", daemon=True
                )
                retrain_thread.start()
            else:
                try:
                    retrain_box["challenger"] = self.trainer(replay, serving)
                except Exception as exc:
                    retrain_box["error"] = exc

        def collect_retrain(batch_index: int, wait: bool) -> None:
            """Move a finished retrain's result into the challenger slot."""
            nonlocal retrain_thread, challenger, trial
            if retrain_thread is not None:
                if wait:
                    retrain_thread.join()
                if retrain_thread.is_alive():
                    return
                retrain_thread = None
            if "error" in retrain_box:
                error = retrain_box.pop("error")
                # Structured type/message fields, not one repr blob: the
                # event log is the only place a failed retrain surfaces
                # (serving deliberately continues on the primary), so the
                # event must be machine-readable for operators and tests.
                driver.log(
                    "retrain-failed",
                    batch_index,
                    error_type=type(error).__name__,
                    error_message=str(error),
                )
                return
            if "challenger" not in retrain_box:
                return
            challenger = retrain_box.pop("challenger")
            driver.log(
                "retrain-complete", batch_index, replay_records=len(self.replay)
            )
            if self.shadow_batches > 0:
                trial = Trial(driver, challenger)

        def promote(batch_index: int) -> None:
            nonlocal challenger, trial, unknown_mark, cooldown_mark
            trial_report = None
            if trial is not None:
                trial.verdict()
                trial_report = trial.challenger_report
                if self.promote_if is not None and not self.promote_if(
                    trial_report, trial.primary_report
                ):
                    driver.log(
                        "trial-rejected",
                        batch_index,
                        trial=str(trial_report) if trial_report else "no traffic",
                    )
                    challenger, trial = None, None
                    cooldown_mark = driver.report().records
                    return
            if self.promotion_hook is not None:
                # Fleet-wide promotion is delegated: the hook (a fleet
                # controller's request_rollout) owns the deployment — canary
                # shadow, staged swaps, rollback — so the supervisor only
                # hands over the challenger and stands down until cooldown.
                handed_off = challenger
                driver.log(
                    "promotion-delegated",
                    batch_index,
                    challenger_schema=handed_off.schema.name,
                )
                challenger, trial = None, None
                unknown_mark = unknown_total()
                cooldown_mark = driver.report().records
                self.promotion_hook(handed_off)
                return
            # The swap boundary: drain everything dispatched or pending so
            # the challenger's first batch is exactly the next submission —
            # stop-the-world-equivalent, with zero records dropped.
            driver.flush()
            for lane in driver.lanes:
                lane.swap_detector(challenger)
            detail: Dict[str, object] = {}
            if trial_report is not None:
                detail["trial"] = str(trial_report)
            driver.log("promoted", batch_index, **detail)
            challenger, trial = None, None
            unknown_mark = unknown_total()
            cooldown_mark = driver.report().records

        def after_batch(batch_index: int, stream_batch: StreamBatch) -> None:
            self.replay.append(stream_batch.records)
            report = driver.report()
            rolling = report.rolling
            dr_curve.append(rolling.detection_rate if rolling else None)
            far_curve.append(rolling.false_alarm_rate if rolling else None)

            collect_retrain(batch_index, wait=False)
            if challenger is not None and (
                trial is None or trial.batches == self.shadow_batches
            ):
                promote(batch_index)
            elif (
                challenger is None
                and retrain_thread is None
                and "challenger" not in retrain_box
                and retrains < self.max_retrains
                and report.records - cooldown_mark >= self.policy.cooldown_records
            ):
                unknown = unknown_total(report) - unknown_mark
                reason = self.policy.check(rolling, unknown)
                if reason is not None:
                    start_retrain(batch_index, reason)

        with StreamDriver(self.target, after_batch) as driver:
            # Marks taken once pre-stream work is drained: it belongs to no
            # phase and does not count towards drift or cooldown.
            unknown_mark = unknown_total()
            cooldown_mark = driver.report().records
            report = driver.run(stream, max_batches)
            # A retrain still running when the stream ends is joined so its
            # outcome (success or failure) lands in the event log, but the
            # challenger is not promoted — there is no next batch boundary.
            collect_retrain(driver.served, wait=True)

        return LifecycleOutcome(
            report=report,
            events=driver.events,
            dr_curve=dr_curve,
            far_curve=far_curve,
        )
