"""Edge-case unit tests for the flow-feature extractor and event batches.

The corners a real capture feed hits on day one: quiet intervals (empty
batches), single-packet flows, a batch that is one giant flow, and
vocabulary drift — protocol/service values the schema has never seen must
flow into the serving layer's unknown-categorical counters, not crash the
pipeline.
"""

import numpy as np
import pytest

from repro.data import NSLKDD_SCHEMA
from repro.ingest import (
    FLAG_FIN,
    FLAG_SYN,
    FlowFeatureExtractor,
    FlowTable,
    PacketEvents,
)
from repro.serving.service import DetectionService

pytestmark = pytest.mark.ingest

N_NUMERIC = len(NSLKDD_SCHEMA.numeric_features)


def _events(n, payload_width=N_NUMERIC, **overrides):
    base = dict(
        time=np.arange(n, dtype=np.float64),
        src_host=np.full(n, 1),
        dst_host=np.full(n, 2),
        src_port=np.arange(n) + 1000,
        dst_port=np.full(n, 80),
        size=np.full(n, 100.0),
        direction=np.ones(n, np.int8),
        flags=np.full(n, FLAG_SYN | FLAG_FIN, np.uint8),
        protocol=np.array(["tcp"] * n, object),
        service=np.array(["http"] * n, object),
        state=np.array(["SF"] * n, object),
        label=np.array(["normal"] * n, object),
        payload=np.zeros((n, payload_width)),
    )
    base.update(overrides)
    return PacketEvents(**base)


# --------------------------------------------------------------------- #
def test_empty_event_batch_yields_zero_rows():
    extractor = FlowFeatureExtractor(NSLKDD_SCHEMA)
    records = extractor.extract(PacketEvents.empty(payload_width=N_NUMERIC))
    assert len(records) == 0
    assert records.numeric.shape == (0, N_NUMERIC)
    assert extractor.table.packets_seen == 0
    # A quiet interval leaves the accounting sane and the table reusable.
    follow_up = extractor.extract(_events(3))
    assert len(follow_up) == 3


def test_empty_batch_in_derive_mode():
    extractor = FlowFeatureExtractor(NSLKDD_SCHEMA, derive_features=True)
    records = extractor.extract(PacketEvents.empty(payload_width=0))
    assert len(records) == 0
    assert records.numeric.shape == (0, N_NUMERIC)


def test_single_packet_flows():
    """One SYN+FIN packet = one complete flow (degenerate duration)."""
    extractor = FlowFeatureExtractor(NSLKDD_SCHEMA, derive_features=True)
    records = extractor.extract(_events(5, payload_width=0))
    assert len(records) == 5
    stats = extractor.last_stats
    assert (stats.n_packets == 1).all()
    assert (stats.duration == 0.0).all()
    assert stats.closed_by_fin.all()


def test_all_one_flow_batch():
    """Every event on one 5-tuple, FIN only on the last: one row out."""
    n = 64
    flags = np.zeros(n, np.uint8)
    flags[0] = FLAG_SYN
    flags[-1] = FLAG_FIN
    extractor = FlowFeatureExtractor(NSLKDD_SCHEMA, derive_features=True)
    records = extractor.extract(
        _events(
            n,
            payload_width=0,
            src_port=np.full(n, 1234),
            flags=flags,
            direction=np.where(np.arange(n) % 2 == 0, 1, -1).astype(np.int8),
        )
    )
    assert len(records) == 1
    stats = extractor.last_stats
    assert stats.n_packets[0] == n
    assert stats.n_fwd[0] == n // 2 and stats.n_bwd[0] == n // 2
    assert stats.syn_count[0] == 1
    assert stats.closed_by_fin[0]
    assert stats.duration[0] == float(n - 1)


def test_replay_mode_rejects_wrong_payload_width():
    extractor = FlowFeatureExtractor(NSLKDD_SCHEMA)  # replay mode
    with pytest.raises(ValueError, match="payload_width"):
        extractor.extract(_events(2, payload_width=3))


def test_out_of_schema_categoricals_feed_unknown_counters(detector):
    """Unknown protocol/service values must not crash the ingress path —
    they zero-encode and surface in the service report's drift counters."""
    service = DetectionService(detector, max_batch_size=8, flush_interval=0.0)
    events = _events(
        4,
        protocol=np.array(["sctp"] * 4, object),       # not in the schema
        service=np.array(["quic-weird"] * 4, object),  # not in the schema
    )
    results = service.submit_events(events)
    results += service.flush()
    assert sum(len(r.predictions) for r in results) == 4
    unknown = service.report().unknown_categoricals
    assert unknown["protocol_type"] == 4
    assert unknown["service"] == 4


@pytest.mark.parametrize("column", ["protocol", "service"])
def test_none_categorical_keeps_every_flow(column):
    """A ``None`` protocol or service is one more out-of-vocabulary value.

    The closing batch continues two carried flows and opens a third whose
    ``column`` is ``None``; all three close and drain with their values,
    and the table's flow accounting still balances.
    """
    table = FlowTable(window=8)
    table.absorb(_events(2, payload_width=0, flags=np.full(2, FLAG_SYN, np.uint8)))
    assert table.open_flows == 2
    carried = "tcp" if column == "protocol" else "http"
    closing = _events(
        3,
        payload_width=0,
        time=np.arange(3, dtype=np.float64) + 10.0,
        **{column: np.array([carried, carried, None], object)},
    )
    assert table.absorb(closing) == 3
    assert table.packets_seen == 5
    assert table.flows_opened == 3
    assert table.flows_opened == table.flows_closed + table.open_flows
    stats = table.drain()
    assert list(getattr(stats, column)) == [carried, carried, None]
    assert stats.n_packets.tolist() == [2, 2, 1]


def test_none_categoricals_feed_unknown_counters(detector):
    """``None`` protocol/service values reach the drift counters too."""
    service = DetectionService(detector, max_batch_size=8, flush_interval=0.0)
    events = _events(
        4,
        protocol=np.array([None] * 4, object),
        service=np.array([None, "http", None, "http"], object),
    )
    results = service.submit_events(events)
    results += service.flush()
    assert sum(len(r.predictions) for r in results) == 4
    unknown = service.report().unknown_categoricals
    assert unknown["protocol_type"] == 4
    assert unknown["service"] == 2


def test_derive_mode_populates_packet_observable_columns():
    n = 6
    extractor = FlowFeatureExtractor(NSLKDD_SCHEMA, derive_features=True)
    records = extractor.extract(
        _events(n, payload_width=0, size=np.full(n, 250.0))
    )
    names = [f.name for f in NSLKDD_SCHEMA.numeric_features]
    src_bytes = records.numeric[:, names.index("src_bytes")]
    count = records.numeric[:, names.index("count")]
    assert (src_bytes == 250.0).all()         # one forward packet per flow
    # All six flows hit the same dst host; closures see a growing window.
    assert count.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    # Columns a capture cannot observe stay zero.
    assert (records.numeric[:, names.index("num_failed_logins")] == 0).all()
