"""Flow statistics → dataset-schema feature rows.

:class:`FlowFeatureExtractor` closes the gap between a packet capture and
the detector's input contract: it owns a :class:`~repro.ingest.flows.FlowTable`,
feeds it event batches and assembles the closed flows into
:class:`~repro.data.dataset.TrafficRecords` conforming to an NSL-KDD or
UNSW-NB15 schema — the rows :class:`~repro.serving.service.DetectionService`
scores.

Two numeric modes:

* **replay** (default) — the numeric columns are the per-flow sums of the
  events' ``payload`` fragment block (which must be as wide as the
  schema's numeric feature list).  This is the mode the deterministic
  lowering uses: fragments are constructed so their per-flow sum
  reproduces the generator's features *bit for bit*.
* **derive** (``derive_features=True``) — the packet-observable subset of
  the schema's numeric columns is computed from the flow statistics
  themselves (durations, packet/byte counts, the trailing-window
  ``count``/``srv_count``/rate features); everything a capture cannot see
  stays zero.  This is what a from-scratch deployment over a real trace
  would run.

Categorical columns follow the schema's event bindings
(:data:`repro.data.schema.EVENT_CATEGORICAL_BINDINGS`): protocol and
service from a flow's first packet, the TCP state/flag summary from its
last.  Out-of-schema protocol/service/state values are passed through
untouched — downstream, the detector's feature encoder
(:class:`~repro.preprocessing.pipeline.IDSPreprocessor`) zero-encodes and
*counts* them, so vocabulary drift in a raw feed surfaces in the service
report instead of crashing the pipeline.  Event ``label``
values, by contrast, must be schema classes (they are ground truth).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Union

import numpy as np

from ..data.dataset import TrafficRecords
from ..data.schema import DatasetSchema, get_schema
from .events import PacketEvents
from .flows import FlowStats, FlowTable

__all__ = ["FlowFeatureExtractor"]


def _safe_rate(stats: FlowStats) -> np.ndarray:
    duration = stats.duration
    packets = stats.n_packets.astype(np.float64)
    return np.divide(
        packets, duration, out=np.zeros_like(duration), where=duration > 0
    )


#: Packet-observable numeric columns per schema, for derive mode: column
#: name → function of a :class:`FlowStats` batch.  Everything else in the
#: schema (content features like ``num_failed_logins``, TTLs, jitter) is
#: not derivable from this event model and stays zero.
_DERIVED_COLUMNS: Dict[str, Dict[str, Callable[[FlowStats], np.ndarray]]] = {
    "nsl-kdd": {
        "duration": lambda s: s.duration,
        "src_bytes": lambda s: s.bytes_fwd,
        "dst_bytes": lambda s: s.bytes_bwd,
        "count": lambda s: s.count.astype(np.float64),
        "srv_count": lambda s: s.srv_count.astype(np.float64),
        "serror_rate": lambda s: s.serror_rate,
        "same_srv_rate": lambda s: s.same_srv_rate,
        "diff_srv_rate": lambda s: s.diff_srv_rate,
    },
    "unsw-nb15": {
        "dur": lambda s: s.duration,
        "spkts": lambda s: s.n_fwd.astype(np.float64),
        "dpkts": lambda s: s.n_bwd.astype(np.float64),
        "sbytes": lambda s: s.bytes_fwd,
        "dbytes": lambda s: s.bytes_bwd,
        "rate": _safe_rate,
        "ct_dst_ltm": lambda s: s.count.astype(np.float64),
        "ct_srv_dst": lambda s: s.srv_count.astype(np.float64),
    },
}


class FlowFeatureExtractor:
    """Aggregate packet events into schema-conforming feature rows.

    Parameters
    ----------
    schema:
        Target :class:`~repro.data.schema.DatasetSchema` (or its name).
    window / idle_timeout:
        Forwarded to the owned :class:`FlowTable`.
    derive_features:
        Numeric mode (see module docstring).  Off: replay the payload
        fragment sums (requires ``payload_width == n_numeric``); on:
        compute the packet-observable columns from flow statistics.
    """

    def __init__(
        self,
        schema: Union[DatasetSchema, str],
        window: int = 100,
        idle_timeout: Optional[float] = None,
        derive_features: bool = False,
    ) -> None:
        self.schema = get_schema(schema) if isinstance(schema, str) else schema
        self.derive_features = bool(derive_features)
        n_numeric = len(self.schema.numeric_features)
        self.table = FlowTable(
            window=window,
            idle_timeout=idle_timeout,
            payload_width=0 if derive_features else n_numeric,
        )
        # Categorical assembly plan, resolved once from the schema bindings.
        self._categorical_plan = [
            (name, *self.schema.event_binding(name))
            for name in self.schema.categorical_names
        ]
        self._derived = (
            _DERIVED_COLUMNS.get(self.schema.name, {}) if derive_features else {}
        )
        # Throughput accounting (events vs rows, time spent aggregating vs
        # scoring), read by the ingest speed floors and perfbench.
        self.events_seen = 0
        self.rows_emitted = 0
        self.extract_seconds = 0.0
        self.last_stats: Optional[FlowStats] = None

    # ------------------------------------------------------------------ #
    def extract(self, events: PacketEvents, final: bool = True) -> TrafficRecords:
        """Absorb one event batch and return the rows of all flows it closed.

        ``final=True`` (the batch-interval mode) force-closes every flow
        still open afterwards, so each call maps a capture interval to its
        complete feature rows; ``final=False`` leaves quiet flows open
        across calls and relies on FINs / idle eviction to close them —
        the streaming-ingress mode.
        """
        started = time.perf_counter()
        if not self.derive_features and events.payload_width != len(
            self.schema.numeric_features
        ):
            raise ValueError(
                f"replay mode needs payload_width == {len(self.schema.numeric_features)} "
                f"(schema {self.schema.name!r}), got {events.payload_width}; "
                "use derive_features=True for payload-free traces"
            )
        self.table.absorb(events)
        if final:
            self.table.close_all()
        stats = self.table.drain()
        records = self._assemble(stats)
        self.events_seen += len(events)
        self.rows_emitted += len(records)
        self.extract_seconds += time.perf_counter() - started
        self.last_stats = stats
        return records

    def flush(self) -> TrafficRecords:
        """Force-close and emit everything still open (stream end)."""
        started = time.perf_counter()
        self.table.close_all()
        stats = self.table.drain()
        records = self._assemble(stats)
        self.rows_emitted += len(records)
        self.extract_seconds += time.perf_counter() - started
        self.last_stats = stats
        return records

    # ------------------------------------------------------------------ #
    def _assemble(self, stats: FlowStats) -> TrafficRecords:
        n = len(stats)
        n_numeric = len(self.schema.numeric_features)
        if self.derive_features:
            numeric = np.zeros((n, n_numeric))
            for position, feature in enumerate(self.schema.numeric_features):
                fn = self._derived.get(feature.name)
                if fn is not None:
                    numeric[:, position] = fn(stats)
        else:
            numeric = stats.payload
        categorical = {
            name: getattr(stats, event_field)
            for name, event_field, _which in self._categorical_plan
        }
        return TrafficRecords(
            schema=self.schema,
            numeric=numeric,
            categorical={name: col.copy() for name, col in categorical.items()},
            labels=stats.label.copy(),
        )

    # ------------------------------------------------------------------ #
    def stats_row(self) -> Dict[str, float]:
        """Accounting snapshot (events/rows seen, aggregation time, table
        counters) for benchmarks and service reports."""
        return {
            "events_seen": self.events_seen,
            "rows_emitted": self.rows_emitted,
            "extract_seconds": self.extract_seconds,
            "flows_opened": self.table.flows_opened,
            "flows_closed": self.table.flows_closed,
            "flows_evicted": self.table.flows_evicted,
            "open_flows": self.table.open_flows,
            "port_entropy": self.table.port_entropy(),
        }
