"""Shadow deployment: trial a challenger detector on live traffic.

A challenger fresh out of retraining should not take over the request path
on faith.  :class:`ShadowDeployment` runs it *in shadow*: the challenger
scores exactly the records the primary serves — through its own
micro-batcher configured identically, so the micro-batch boundaries match
— into its **own** monitors, while the primary's results remain the only
ones anything downstream sees.  The primary can be any execution model:

* a synchronous :class:`~repro.serving.service.DetectionService`;
* a :class:`~repro.serving.procpool.ProcessWorkerPool` (challenger scores
  inline on the driving thread while the primary fans out to its children);
* a :class:`~repro.serving.sharding.ShardedDetectionService` (the
  challenger shadows the *whole* fleet's traffic — which requires a
  single-schema stream, i.e. replica or class-family sharding).

The deployment's :meth:`~ShadowDeployment.run_stream` tees the stream:
the primary is driven by a :class:`~repro.serving.driver.StreamDriver`
whose ``before_submit`` hook first feeds each
:class:`~repro.data.generator.StreamBatch` to a second driver over the
challenger (with its own per-phase attribution), so both sides observe the
identical record sequence and the primary's ordering guarantees are
untouched.  The
result is a :class:`ShadowReport` carrying both service reports plus a
:class:`ShadowComparison` — per-phase and overall DR/FAR/ACC deltas and a
promotion verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple, Union

from ...core.detector import PelicanDetector
from ...data.generator import StreamBatch
from ...metrics.ids_metrics import DetectionReport
from ..driver import StreamDriver
from ..procpool import ProcessWorkerPool
from ..service import DetectionService, ServiceReport
from ..sharding import ShardedDetectionService

__all__ = ["ShadowDeployment", "ShadowComparison", "ShadowReport"]

#: Execution models a shadow can attach to.
Primary = Union[DetectionService, ProcessWorkerPool, ShardedDetectionService]


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


def quality_deltas(
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


def compare_reports(
    primary: ServiceReport, challenger: ServiceReport
) -> ShadowComparison:
    """Build the delta row from two service reports over the same records."""
    phase_deltas: Dict[str, Dict[str, float]] = {}
    for phase, primary_phase in primary.phase_reports.items():
        challenger_phase = challenger.phase_reports.get(phase)
        if challenger_phase is not None:
            dr, far, acc = quality_deltas(primary_phase, challenger_phase)
            phase_deltas[phase] = {"dr": dr, "far": far, "acc": acc}
    return ShadowComparison(
        challenger.records,
        *quality_deltas(primary.rolling, challenger.rolling),
        phase_deltas=phase_deltas,
    )


def template_service(target: Primary) -> DetectionService:
    """The (first) service an execution model scores through: the shadow's
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


class ShadowDeployment:
    """Score a challenger on the primary's traffic without serving it.

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
        template = template_service(primary)
        if isinstance(challenger, DetectionService):
            self.challenger_service = challenger
        else:
            self.challenger_service = DetectionService(
                challenger,
                max_batch_size=template.batcher.max_batch_size,
                flush_interval=template.batcher.flush_interval,
                window=template.monitor.window,
                clock=template.clock,
            )
        if (
            self.challenger_service.pipeline.class_names
            != template.pipeline.class_names
        ):
            raise ValueError(
                "challenger class order does not match the primary's; a "
                "shadow comparison over mismatched labels is meaningless"
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
        The challenger scores each stream batch synchronously on the
        driving thread *before* the batch is handed to the primary, so both
        sides see the identical record sequence; its report carries its own
        per-phase attribution.
        """
        with StreamDriver(self.challenger_service) as shadow, StreamDriver(
            self.primary,
            before_submit=lambda batch, _parts: shadow.submit(batch),
            **primary_kwargs,
        ) as primary:
            primary_report = primary.run(stream, max_batches)
            shadow.flush()
            challenger_report = shadow.report()
        return ShadowReport(
            primary=primary_report,
            challenger=challenger_report,
            comparison=compare_reports(primary_report, challenger_report),
        )
