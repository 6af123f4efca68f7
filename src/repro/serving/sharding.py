"""Multi-detector sharding: one traffic stream, several fitted detectors.

The paper evaluates two corpora (NSL-KDD and UNSW-NB15) with separately
trained detectors; a deployment likewise runs several detectors side by
side — replicas for capacity, one per dataset/sensor, or one per attack
family behind a coarse front classifier.  This module routes a stream
across such a fleet and merges the per-shard monitoring back into a single
:class:`~repro.serving.service.ServiceReport`:

* :class:`ShardRouter` assigns records to shards under one of three
  policies —

  - ``"replica"`` — record-level round-robin striping across identical
    detector replicas (pure capacity scaling; merged quality counts are
    identical to a single-service run because every record is scored by
    the same weights);
  - ``"dataset"`` — whole submissions routed by their schema name (the
    paper's two-corpus setting: an NSL-KDD and a UNSW-NB15 detector
    serving one mixed feed);
  - ``"class-family"`` — per-record routing by a key function.  The
    default key is the record's class label, a ground-truth stand-in for
    the upstream coarse classifier a real deployment would use; pass
    ``key=`` to route on anything observable (a categorical column, a
    flow tag, ...).

* :class:`ShardedDetectionService` owns one
  :class:`~repro.serving.service.DetectionService` per shard, fans
  submissions out through the router and merges rolling quality (summed
  confusion counts), per-phase attribution, vocabulary-drift counters and
  throughput (the fleet's records over its wall span: the earliest
  batch start to the latest commit across the shards) into one report,
  with the per-shard reports attached under ``shard_reports``.

``run_stream`` is the :class:`~repro.serving.driver.StreamDriver` with one
lane per shard — one phase attributor each, merged per phase afterwards —
and can run every shard on its own
:class:`~repro.serving.procpool.ProcessWorkerPool` for concurrent sharded
serving.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Callable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.detector import PelicanDetector
from ..data.dataset import TrafficRecords
from ..data.generator import StreamBatch
from .driver import StreamDriver
from .procpool import ProcessWorkerPool
from .service import BatchResult, DetectionService, ServiceReport

__all__ = ["ShardRouter", "ShardedDetectionService"]


class ShardRouter:
    """Assigns incoming records to one of ``n_shards`` detector shards.

    Parameters
    ----------
    n_shards:
        Number of shards routed across.
    policy:
        ``"replica"``, ``"dataset"`` or ``"class-family"`` (see module
        docstring).
    assignment:
        Routing table for the keyed policies: dataset name → shard index
        (``"dataset"``) or routing key → shard index (``"class-family"``).
    key:
        ``"class-family"`` only — callable mapping a
        :class:`TrafficRecords` batch to one routing key per record;
        defaults to the record labels.
    default:
        Shard index for keys missing from ``assignment``; when omitted an
        unknown key raises ``KeyError`` (so routing gaps fail loudly).
    """

    POLICIES = ("replica", "dataset", "class-family")

    def __init__(
        self,
        n_shards: int,
        policy: str = "replica",
        assignment: Optional[Mapping[str, int]] = None,
        key: Optional[Callable[[TrafficRecords], Sequence[str]]] = None,
        default: Optional[int] = None,
    ) -> None:
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if policy not in self.POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; choices: {', '.join(self.POLICIES)}"
            )
        self.n_shards = int(n_shards)
        self.policy = policy
        self.assignment = dict(assignment) if assignment else {}
        if policy in ("dataset", "class-family") and not self.assignment:
            raise ValueError(f"policy {policy!r} requires an assignment table")
        for routing_key, shard in self.assignment.items():
            if not 0 <= int(shard) < self.n_shards:
                raise ValueError(
                    f"assignment {routing_key!r} -> {shard} is outside "
                    f"[0, {self.n_shards})"
                )
        if default is not None and not 0 <= int(default) < self.n_shards:
            raise ValueError(f"default shard {default} is outside [0, {self.n_shards})")
        self.default = default
        self.key = key or (lambda records: records.labels)
        self._stripe_offset = 0

    def _lookup(self, routing_key: str) -> int:
        shard = self.assignment.get(str(routing_key), self.default)
        if shard is None:
            raise KeyError(
                f"no shard assigned for routing key {routing_key!r} and no "
                "default shard configured"
            )
        return int(shard)

    def route(self, records: TrafficRecords) -> List[np.ndarray]:
        """Partition ``records`` into per-shard index arrays.

        The arrays cover every record exactly once; shards receiving no
        records get an empty selection.
        """
        n_records = len(records)
        if self.policy == "replica":
            assignments = (self._stripe_offset + np.arange(n_records)) % self.n_shards
            # Continue the stripe across submissions so uneven batch sizes
            # cannot starve the high-numbered shards.
            self._stripe_offset = (self._stripe_offset + n_records) % self.n_shards
        elif self.policy == "dataset":
            shard = self._lookup(records.schema.name)
            assignments = np.full(n_records, shard, dtype=np.int64)
        else:  # class-family
            keys = self.key(records)
            assignments = np.fromiter(
                (self._lookup(key) for key in keys), dtype=np.int64, count=n_records
            )
        return [np.flatnonzero(assignments == i) for i in range(self.n_shards)]

    def parts(self, records: TrafficRecords) -> List[Tuple[int, TrafficRecords]]:
        """``(shard index, records)`` for every shard :meth:`route` gives
        records to, in shard order."""
        return [
            (shard, records.subset(indices))
            for shard, indices in enumerate(self.route(records))
            if len(indices)
        ]


class ShardedDetectionService:
    """Serve one stream with a fleet of detector shards.

    Parameters
    ----------
    shards:
        One fitted :class:`DetectionService` per shard, index-aligned with
        the router's shard numbering.
    router:
        The :class:`ShardRouter` distributing records; its ``n_shards``
        must match ``len(shards)``.
    names:
        Optional per-shard display names (default ``shard-0`` ...), used as
        keys of ``shard_reports`` in the merged report.
    """

    def __init__(
        self,
        shards: Sequence[DetectionService],
        router: ShardRouter,
        names: Optional[Sequence[str]] = None,
    ) -> None:
        if not shards:
            raise ValueError("a sharded service needs at least one shard")
        if router.n_shards != len(shards):
            raise ValueError(
                f"router expects {router.n_shards} shards, got {len(shards)}"
            )
        if names is not None and len(names) != len(shards):
            raise ValueError("names must be index-aligned with shards")
        self.shards = list(shards)
        self.clock = self.shards[0].clock  # the fleet's service clock
        self.router = router
        self.names = list(names) if names is not None else [
            f"shard-{index}" for index in range(len(shards))
        ]

    @classmethod
    def replicated(
        cls,
        detector: PelicanDetector,
        n_shards: int,
        **service_kwargs,
    ) -> "ShardedDetectionService":
        """Replica sharding: ``n_shards`` services over one fitted detector."""
        shards = [
            DetectionService(detector, **service_kwargs) for _ in range(n_shards)
        ]
        return cls(shards, ShardRouter(n_shards, "replica"))

    # ------------------------------------------------------------------ #
    def open_pools(self, num_workers: int) -> List[ProcessWorkerPool]:
        """Start one process pool per shard and return them, index-aligned.

        The per-shard pool lifecycle seam of :meth:`run_stream` and the
        fleet controller.  The caller owns the returned pools and must
        ``close()`` them; if a later shard's pool fails to start, the pools
        already started are closed before the error propagates.
        """
        if num_workers <= 0:
            raise ValueError("num_workers must be positive to open pools")
        pools: List[ProcessWorkerPool] = []
        with ExitStack() as opened:
            for shard in self.shards:
                pool = ProcessWorkerPool(shard, num_workers=num_workers)
                pools.append(pool.start())
                opened.callback(pool.close)
            opened.pop_all()
        return pools

    # ------------------------------------------------------------------ #
    def submit(self, records: TrafficRecords) -> List[BatchResult]:
        """Route and enqueue records; return every batch that became due."""
        parts = self.router.parts(records)
        return [r for index, part in parts for r in self.shards[index].submit(part)]

    def flush(self) -> List[BatchResult]:
        """Drain and process every shard's queued tail."""
        results: List[BatchResult] = []
        for shard in self.shards:
            results.extend(shard.flush())
        return results

    # ------------------------------------------------------------------ #
    def report(self) -> ServiceReport:
        """Merge the shard ledgers into one fleet-level report.

        See :meth:`ServiceReport.merge`: quality sums confusion counts,
        throughput divides the fleet's records by the fleet's wall span
        (shards scoring at the same time on separate pools are counted
        once), and the latency stats pool the shards' latency windows.
        """
        return self._stream_report(phase_reports={})

    def _stream_report(self, phase_reports) -> ServiceReport:
        # One snapshot per shard: the attached shard_reports and the merged
        # totals derive from the same reads, so the fleet row always sums
        # to its per-shard rows even while shard pools keep committing.
        snapshots = [shard.monitor.snapshot() for shard in self.shards]
        return ServiceReport.merge(
            snapshots,
            phase_reports=phase_reports,
            shard_reports={
                name: ServiceReport.merge([snapshot])
                for name, snapshot in zip(self.names, snapshots)
            },
        )

    # ------------------------------------------------------------------ #
    @contextmanager
    def _stream_lanes(self, num_workers: int = 0):
        """The stream-driver lanes: the shards' own (inline scoring) or,
        with ``num_workers > 0``, those of one process pool per shard,
        closed at exit."""
        with ExitStack() as stack:
            engines = self.shards
            if num_workers > 0:
                engines = self.open_pools(num_workers)
                for pool in engines:
                    stack.callback(pool.close)
            yield [
                lane
                for engine in engines
                for lane in stack.enter_context(engine._stream_lanes())
            ]

    def run_stream(
        self,
        stream: Iterable[StreamBatch],
        max_batches: Optional[int] = None,
        num_workers: int = 0,
    ) -> ServiceReport:
        """Serve a :class:`~repro.data.generator.TrafficStream` across the fleet.

        Each shard keeps its own phase attributor; the merged report sums
        the per-phase confusion counts across shards, so the breakdown is
        record-for-record equivalent to a single service scoring the same
        stream.  With ``num_workers > 0`` every shard runs on its own
        :class:`~repro.serving.procpool.ProcessWorkerPool` of that size,
        whose children score the shard's batches off the GIL (concurrent
        sharded serving).  Otherwise shards score inline on the calling
        thread.
        """
        with StreamDriver(self, num_workers=num_workers) as driver:
            return driver.run(stream, max_batches)

    def run_event_stream(
        self,
        events,
        extractor=None,
        max_batches: Optional[int] = None,
        num_workers: int = 0,
    ) -> ServiceReport:
        """Serve a raw packet-event stream across the fleet.

        Flow aggregation happens *upstream* of routing — one
        :class:`~repro.ingest.FlowFeatureExtractor` (default: built for the
        first shard's schema) turns each
        :class:`~repro.ingest.EventBatch` into feature rows, and the rows
        then take the ordinary :meth:`run_stream` path, so sharded serving
        from events is record-for-record identical to sharded serving of
        the equivalent featurized stream.
        """
        from ..ingest import FlowFeatureExtractor, featurize_events

        extractor = extractor or FlowFeatureExtractor(self.shards[0].pipeline.schema)
        return self.run_stream(
            featurize_events(events, extractor),
            max_batches=max_batches,
            num_workers=num_workers,
        )
