"""``repro.serving`` — the streaming detection service.

Turns fitted :class:`~repro.core.detector.PelicanDetector` instances into a
continuously-running scorer for traffic streams.  The request path is built
from three independently testable pieces:

* :class:`MicroBatcher` (:mod:`repro.serving.batching`) — size/age-triggered
  micro-batching of incoming records, with per-submission arrival stamps so
  the age trigger always measures from the true oldest pending record;
* :class:`DetectionService` (:mod:`repro.serving.service`) — the
  detector's own feature encoder,
  :class:`~repro.preprocessing.pipeline.IDSPreprocessor` (the training
  matrix rounded once to float32, the one served dtype; each batch's
  result carries its per-column unknown-vocabulary tally), and the
  graph-free ``fast=True`` forward pass in float32 (both run in the
  stateless :func:`~repro.serving.service.score_records`, which every
  execution model calls), with per-batch latency accounting;
* :class:`ServiceMonitor` (:mod:`repro.serving.monitor`) — the service's
  one commit ledger: under one lock it folds every committed batch into
  the sliding-window ACC/DR/FAR, the lifetime totals, the wall-clock span
  from the earliest batch start to the latest commit (so overlapping
  concurrent batches are not double-counted), the latency window and the
  unknown-categorical tallies.  Every :class:`ServiceReport` is built from
  ledger snapshots by :meth:`ServiceReport.merge`.

Three execution models run on that path:

* **Synchronous** — :class:`DetectionService` alone.  ``submit``/``poll``/
  ``flush`` score on the calling thread; the age trigger fires on the next
  call.  Results, monitor updates and phase attribution all happen in
  submission order.
* **Process pool** — :class:`ProcessWorkerPool`
  (:mod:`repro.serving.procpool`) wraps a service with the same surface
  and moves scoring into child processes: each child rehydrates a
  scoring-identical detector from a :class:`DetectorCheckpoint` and runs
  preprocessing + inference off the GIL, and a dispatcher thread fires
  the age trigger at each partial batch's deadline.  Scoring completes
  out of order, but the parent keeps the ledger and a reorder buffer
  commits to it and to phase attribution strictly in submission order,
  so every report is record-for-record identical to the synchronous run —
  only the wall-clock numbers change.  Batches travel pickled on a private
  task/result queue pair per child.
* **Sharded** — :class:`ShardRouter` + :class:`ShardedDetectionService`
  (:mod:`repro.serving.sharding`) fan one stream out across several fitted
  detectors (replicas, one per dataset, or one per class family) and merge
  the per-shard rolling/per-phase/throughput reports into one
  :class:`ServiceReport`.  Records are partitioned, never duplicated;
  within a shard the chosen execution model's ordering guarantee applies
  (``run_stream(..., num_workers=N)`` gives every shard its own process
  pool), and with replica routing the merged confusion counts equal the
  single-service run on the same stream.

Every ``run_stream`` — the three models above and the shadow, supervisor
and fleet controller below — is one loop, :class:`StreamDriver`
(:mod:`repro.serving.driver`): route → expect → submit → attribute per
stream batch over the engine's *lanes* (the service, the pool, or one lane
per shard), with one batch-boundary hook for the control loops, then
flush → merge.  ``max_batches`` pulls exactly that many batches, and
:class:`PhaseAttributor` sums confusion counts per phase, so every served
record is committed and attributed once and the per-phase rows are exact
totals whatever the rolling window.  The driver also holds the control
plane's shared pieces: the tee to an attached challenger
:class:`~repro.serving.lifecycle.Trial` and the event log, where every
supervisor and fleet decision lands as a :class:`ControlEvent` stamped
with committed records and the service clock.

The fleet control plane (:mod:`repro.serving.fleet`) operates those
models: :class:`FleetController` owns a sharded fleet with one process
pool per shard and closes two control loops on stream batch boundaries —
backlog-driven autoscaling (live ``resize()`` of the pools on the
:class:`PoolStats` backlog per worker, between :class:`AutoscalePolicy`
bounds) and staged canary rollout of a challenger
detector (shadow trial on a canary shard, :class:`ShadowComparison` gate,
staggered shard-by-shard hot-swap, automatic rollback when post-swap DR
falls through the :class:`RolloutPolicy` floor).  Every decision lands in
the driver's event log, from which a replayable schedule is read (see
``docs/SERVING.md``).

The model lifecycle lives in :mod:`repro.serving.lifecycle`:
:class:`DetectorCheckpoint` (single-archive save/load reconstructing a
scoring-identical detector), :class:`ShadowDeployment` (a whole-stream
:class:`~repro.serving.lifecycle.Trial`: a challenger scores the primary's
traffic and both sides are compared over the same records) and
:class:`DriftSupervisor` (rolling-FAR/DR + vocabulary-drift thresholds →
replay-buffer retrain → atomic zero-drop hot-swap on a batch boundary).
See ``docs/SERVING.md``.

Workloads come from the :mod:`repro.scenarios` library — declarative
episodes compiled onto the :class:`repro.data.TrafficStream` driver:
floods, low-and-slow probes, slow-rate DoS, class-imbalance shifts and the
cross-dataset fleet feed.  ``examples/streaming_detection.py``,
``examples/concurrent_serving.py`` and ``examples/cross_dataset_fleet.py``
show the end-to-end wiring, and ``repro.scenarios.ScenarioSuite`` sweeps
every preset across the three execution models.
"""

from .batching import MicroBatcher
from .driver import ControlEvent, PhaseAttributor, StreamDriver
from .monitor import ServiceMonitor
from .service import BatchResult, DetectionService, ServiceReport

# Import order matters: lifecycle first.  procpool imports the checkpoint
# from lifecycle, whose package import pulls in the shadow deployment, which
# imports procpool and sharding back — entered through lifecycle, each of
# them finds what it needs already loaded.
from .lifecycle import (
    DetectorCheckpoint,
    DriftPolicy,
    DriftSupervisor,
    LifecycleOutcome,
    ReplayBuffer,
    ShadowComparison,
    ShadowDeployment,
    ShadowReport,
)
from .procpool import PoolStats, ProcessWorkerPool
from .sharding import ShardedDetectionService, ShardRouter
from .fleet import (
    AutoscalePolicy,
    FleetAction,
    FleetController,
    FleetOutcome,
    RolloutPolicy,
)

__all__ = [
    "MicroBatcher",
    "ServiceMonitor",
    "DetectionService",
    "PhaseAttributor",
    "StreamDriver",
    "ControlEvent",
    "BatchResult",
    "ServiceReport",
    "PoolStats",
    "ProcessWorkerPool",
    "FleetController",
    "AutoscalePolicy",
    "RolloutPolicy",
    "FleetAction",
    "FleetOutcome",
    "ShardRouter",
    "ShardedDetectionService",
    "DetectorCheckpoint",
    "ShadowDeployment",
    "ShadowComparison",
    "ShadowReport",
    "DriftPolicy",
    "DriftSupervisor",
    "LifecycleOutcome",
    "ReplayBuffer",
]
