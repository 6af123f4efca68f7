"""``repro.ingest`` — the raw-event ingestion front-end.

The paper's detector consumes 41/42-feature NSL-KDD/UNSW-NB15 rows; a
deployed IDS consumes packets and must *build* those rows.  This package
is that missing stage, vectorised end to end:

* :mod:`repro.ingest.events` — :class:`PacketEvents`, the columnar
  per-packet batch format (5-tuple endpoints, sizes, direction,
  SYN/FIN/ERR flags, protocol/service/state strings, optional payload
  fragment block), plus the flag constants;
* :mod:`repro.ingest.flows` — :class:`FlowTable`, sliding-window per-flow
  aggregation keyed by 5-tuple: packet/byte/SYN/error counters, FIN-based
  flow segmentation, idle eviction and the trailing-window connection
  context (``count``/``srv_count``/``serror_rate``/``same_srv_rate``/
  port entropy).  All per-packet work is numpy (``np.unique`` grouping,
  ``reduceat`` reductions, offset-key ``searchsorted`` window stats) —
  Python touches flows, never packets;
* :mod:`repro.ingest.extractor` — :class:`FlowFeatureExtractor`, closed
  flows → schema-conforming :class:`~repro.data.dataset.TrafficRecords`
  (payload-replay or derived-feature numeric modes; out-of-schema
  categorical values flow into the serving layer's unknown-categorical
  drift counters);
* :mod:`repro.ingest.lowering` — the deterministic bridge back to the
  synthetic corpus: :func:`lower_records` turns featurized records into a
  seeded packet trace whose aggregation reproduces them **bit for bit**,
  and :class:`EventTrafficStream` lifts a whole
  :class:`~repro.data.generator.TrafficStream` scenario to the event
  plane while still iterating as ordinary
  :class:`~repro.data.generator.StreamBatch` values — so every serving
  execution model scores from raw events unchanged.  Both directions go
  through :func:`featurize_events`, the one generator that aggregates
  :class:`EventBatch` values into feature-row stream batches.

Serving entry points: :meth:`repro.serving.DetectionService.run_event_stream`
and :meth:`repro.serving.sharding.ShardedDetectionService.run_event_stream`,
both :func:`featurize_events` fed to the engine's ``run_stream``; the
packet-level scenario preset is
:func:`repro.scenarios.syn_flood_event_scenario`.  Semantics and the
determinism contract: ``docs/SERVING.md`` (raw-event ingestion section).
"""

from .events import FLAG_ERR, FLAG_FIN, FLAG_SYN, PacketEvents
from .extractor import FlowFeatureExtractor
from .flows import FlowStats, FlowTable
from .lowering import EventBatch, EventTrafficStream, featurize_events, lower_records

__all__ = [
    "FLAG_SYN",
    "FLAG_FIN",
    "FLAG_ERR",
    "PacketEvents",
    "FlowStats",
    "FlowTable",
    "FlowFeatureExtractor",
    "lower_records",
    "EventBatch",
    "EventTrafficStream",
    "featurize_events",
]
