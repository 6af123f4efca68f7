"""``repro.serving.lifecycle`` — the detector lifecycle subsystem.

The serving tier (PR 1–3) measures its own degradation; this package acts
on it.  Three pieces, composable with every execution model:

* :class:`DetectorCheckpoint` (:mod:`~repro.serving.lifecycle.checkpoint`)
  — a single-archive bundle of architecture config, network weights *and*
  buffers, and the fitted preprocessing statistics; ``restore()`` rebuilds
  a scoring-identical detector (``predict(fast=True)`` bitwise-equal).
* :class:`ShadowDeployment` (:mod:`~repro.serving.lifecycle.shadow`) — a
  challenger scores the same record stream as the primary (synchronous,
  process pool or sharded) into its own monitors; the result is a
  side-by-side :class:`ShadowComparison`.
* :class:`DriftSupervisor` (:mod:`~repro.serving.lifecycle.supervisor`) —
  watches a :class:`DriftPolicy` over the rolling DR/FAR window and the
  unknown-categorical drift counters, keeps a bounded :class:`ReplayBuffer`
  of recent labelled batches, retrains a challenger (in the background or
  inline) and promotes it via an atomic hot-swap committed on a batch
  boundary — zero records dropped or duplicated, confusion counts
  bitwise-equal to a drain-stop-restart deployment.

Format, semantics and guarantees: ``docs/SERVING.md``.
"""

from .checkpoint import CHECKPOINT_FORMAT, DetectorCheckpoint
from .shadow import ShadowComparison, ShadowDeployment, ShadowReport
from .supervisor import (
    DriftPolicy,
    DriftSupervisor,
    LifecycleEvent,
    LifecycleOutcome,
    ReplayBuffer,
    default_retrainer,
)

__all__ = [
    "CHECKPOINT_FORMAT",
    "DetectorCheckpoint",
    "ShadowDeployment",
    "ShadowComparison",
    "ShadowReport",
    "DriftPolicy",
    "DriftSupervisor",
    "LifecycleEvent",
    "LifecycleOutcome",
    "ReplayBuffer",
    "default_retrainer",
]
