"""Challenger trials: judge a challenger on the primary's live traffic.

A challenger fresh out of retraining should not take over the request path
on faith.  A :class:`Trial` runs it *in shadow* beside a primary served by
a :class:`~repro.serving.driver.StreamDriver` — a synchronous service, a
process pool or a sharded fleet:

* the **challenger** scores, through its own driver and a service batching
  like the primary's, the records routed to the trial's lanes (all lanes,
  or one canary shard).  Opening a trial attaches it to the primary
  driver as ``driver.trial``, whose :meth:`~StreamDriver.submit` tees
  each stream batch's routed parts to :meth:`Trial.submit` before the
  primary's lanes see them, until :meth:`Trial.verdict` detaches it;
* the **primary** side is the primary driver's own exact per-lane phase
  totals, read as a delta from a baseline taken on a flushed boundary;
* the **verdict** flushes both drivers and compares the two sides over the
  identical records: a :class:`ShadowComparison` of overall and per-phase
  DR/FAR/ACC deltas.

:class:`ShadowDeployment` is a whole-stream trial with an empty baseline.
The :class:`~repro.serving.lifecycle.DriftSupervisor` trials a retrained
challenger before its promotion gate, and the
:class:`~repro.serving.fleet.FleetController` trials a rollout on its
canary shard and watches swapped shards with :func:`counts_since`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ...core.detector import PelicanDetector
from ...data.generator import StreamBatch
from ...metrics.ids_metrics import DetectionReport
from ..driver import StreamDriver
from ..procpool import ProcessWorkerPool
from ..service import DetectionService, ServiceReport, check_challenger
from ..sharding import ShardedDetectionService

__all__ = ["Trial", "ShadowDeployment", "ShadowComparison", "ShadowReport"]

#: Execution models a trial can attach to.
Primary = Union[DetectionService, ProcessWorkerPool, ShardedDetectionService]

#: Per-phase confusion counts.
Phases = Dict[str, DetectionReport]


@dataclass(frozen=True)
class ShadowComparison:
    """Side-by-side quality deltas (challenger minus primary).

    Positive ``dr_delta`` / ``acc_delta`` and negative ``far_delta`` favour
    the challenger.  ``phase_deltas`` maps each phase both sides served to
    ``{"dr": ..., "far": ..., "acc": ...}`` delta rows.
    """

    records: int
    dr_delta: float
    far_delta: float
    acc_delta: float
    phase_deltas: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def challenger_wins(
        self,
        min_dr_gain: float = 0.0,
        max_far_regression: float = 0.0,
    ) -> bool:
        """Promotion verdict: DR improved enough, FAR did not regress too far."""
        return (
            self.dr_delta >= min_dr_gain
            and self.far_delta <= max_far_regression
        )

    def __str__(self) -> str:
        return (
            f"ShadowComparison(records={self.records}, "
            f"ΔDR={self.dr_delta:+.4f}, ΔFAR={self.far_delta:+.4f}, "
            f"ΔACC={self.acc_delta:+.4f})"
        )


@dataclass(frozen=True)
class ShadowReport:
    """Outcome of one shadowed stream: both reports plus the comparison."""

    primary: ServiceReport
    challenger: ServiceReport
    comparison: ShadowComparison


def template_service(target: Primary) -> DetectionService:
    """The (first) service an execution model scores through: the trial's
    batching template and the supervisor's clock and serving detector."""
    if isinstance(target, DetectionService):
        return target
    if isinstance(target, ProcessWorkerPool):
        return target.service
    if isinstance(target, ShardedDetectionService):
        return target.shards[0]
    raise TypeError(
        f"unsupported execution model {type(target).__name__}; expected "
        "DetectionService, ProcessWorkerPool or ShardedDetectionService"
    )


def mirror_service(
    template: DetectionService,
    challenger: Union[PelicanDetector, DetectionService],
) -> DetectionService:
    """The challenger's service: ``challenger`` itself when it is one,
    otherwise a service batching and windowing exactly like ``template``.
    Either way its detector must pass :func:`check_challenger` against the
    template's: a shadow comparison over mismatched labels is
    meaningless."""
    service = challenger
    if not isinstance(challenger, DetectionService):
        service = DetectionService(
            challenger,
            max_batch_size=template.batcher.max_batch_size,
            flush_interval=template.batcher.flush_interval,
            window=template.monitor.window,
            clock=template.clock,
        )
    check_challenger(service.detector, template.detector, "the primary")
    return service


def counts_since(driver: StreamDriver, baselines: Mapping[int, Phases]) -> Phases:
    """Per-phase counts the driver attributed on each lane of ``baselines``
    since that lane's baseline (an earlier read of its attributor's
    totals), summed over those lanes; phases without new records are
    omitted.  Exact once the driver is flushed."""
    parts: Dict[str, List[DetectionReport]] = {}
    for lane, baseline in baselines.items():
        for phase, report in driver.attributors[lane].reports().items():
            before = baseline.get(phase)
            if before is not None:
                if report.total == before.total:
                    continue
                report = report.minus(before)
            parts.setdefault(phase, []).append(report)
    return {phase: DetectionReport.merge(reports) for phase, reports in parts.items()}


def overall(phases: Phases) -> Optional[DetectionReport]:
    """The phases' summed counts (``None`` when there are none)."""
    return DetectionReport.merge(list(phases.values())) if phases else None


def _deltas(
    primary: Optional[DetectionReport], challenger: Optional[DetectionReport]
) -> Tuple[float, float, float]:
    """(ΔDR, ΔFAR, ΔACC), challenger minus primary; zeros if a side is empty."""
    if primary is None or challenger is None:
        return 0.0, 0.0, 0.0
    return (
        challenger.detection_rate - primary.detection_rate,
        challenger.false_alarm_rate - primary.false_alarm_rate,
        challenger.accuracy - primary.accuracy,
    )


class Trial:
    """A challenger judged against a served primary; see the module docstring.

    Parameters
    ----------
    primary:
        The primary's open :class:`StreamDriver`.  Creating the trial
        flushes it (the baseline is taken on a drained boundary) and
        attaches the trial as ``primary.trial``, the driver's tee.
    challenger:
        A fitted detector (scored through a service mirroring the first
        trial lane's batching) or a ready-made :class:`DetectionService`.
    lanes:
        The primary lanes the trial covers; ``None`` means all of them.

    After :meth:`verdict`, ``primary_report`` and ``challenger_report``
    hold each side's counts over the trial's records.
    """

    def __init__(
        self,
        primary: StreamDriver,
        challenger: Union[PelicanDetector, DetectionService],
        lanes: Optional[Sequence[int]] = None,
    ) -> None:
        self.primary = primary
        self.lanes = range(len(primary.lanes)) if lanes is None else tuple(lanes)
        template = template_service(primary.lanes[self.lanes[0]])
        self.challenger = StreamDriver(mirror_service(template, challenger))
        self.challenger.__enter__()
        self.batches = 0  # stream batches teed so far
        primary.flush()
        self._baselines = {
            lane: primary.attributors[lane].reports() for lane in self.lanes
        }
        self.primary_report: Optional[DetectionReport] = None
        self.challenger_report: Optional[DetectionReport] = None
        primary.trial = self

    def submit(self, stream_batch: StreamBatch, parts) -> None:
        """The tee, called by the primary driver while the trial is
        attached: the challenger scores the trial lanes' records of a
        stream batch before the primary does."""
        for lane, part in parts:
            if lane in self.lanes:
                self.challenger.submit(replace(stream_batch, records=part))
        self.batches += 1

    def verdict(self) -> ShadowComparison:
        """Detach the tee, flush both sides and compare them over the
        trial's records."""
        self.primary.trial = None
        self.primary.flush()
        self.challenger.flush()
        self.challenger.__exit__(None, None, None)
        primary = counts_since(self.primary, self._baselines)
        challenger = self.challenger.attributors[0].reports()
        self.primary_report = overall(primary)
        self.challenger_report = overall(challenger)
        phase_deltas: Dict[str, Dict[str, float]] = {}
        for phase, report in primary.items():
            if phase in challenger:
                dr, far, acc = _deltas(report, challenger[phase])
                phase_deltas[phase] = {"dr": dr, "far": far, "acc": acc}
        return ShadowComparison(
            self.challenger_report.total if self.challenger_report else 0,
            *_deltas(self.primary_report, self.challenger_report),
            phase_deltas=phase_deltas,
        )


class ShadowDeployment:
    """Score a challenger on the primary's whole stream without serving it.

    Parameters
    ----------
    primary:
        The serving execution model (service, process pool or sharded fleet).
    challenger:
        A fitted detector to trial, or a ready-made
        :class:`DetectionService` for it.  When a detector is given, the
        shadow service mirrors the primary's micro-batching policy and
        monitor window so the two sides batch and window identically.
    """

    def __init__(
        self,
        primary: Primary,
        challenger: Union[PelicanDetector, DetectionService],
    ) -> None:
        self.primary = primary
        self.challenger_service = mirror_service(
            template_service(primary), challenger
        )

    # ------------------------------------------------------------------ #
    def run_stream(
        self,
        stream: Iterable[StreamBatch],
        max_batches: Optional[int] = None,
        **primary_kwargs,
    ) -> ShadowReport:
        """Serve the stream on the primary while the challenger shadows it.

        Extra keyword arguments select the primary's lanes as in its
        ``run_stream`` (e.g. ``num_workers=...`` for a sharded primary).
        The run is one :class:`Trial` over every lane, started before the
        first batch (an empty baseline); the challenger's report carries
        its own per-phase attribution.
        """
        with StreamDriver(self.primary, **primary_kwargs) as primary:
            trial = Trial(primary, self.challenger_service)
            primary_report = primary.run(stream, max_batches)
            comparison = trial.verdict()
        return ShadowReport(
            primary=primary_report,
            challenger=trial.challenger.report(),
            comparison=comparison,
        )
