"""Property/fuzz suite: the vectorized FlowTable equals a per-event oracle.

``FlowTable.absorb`` does all per-packet work with numpy (``lexsort``
grouping on integer key codes, ``reduceat`` reductions, offset-key
``searchsorted`` window stats).  The oracle below re-implements the
documented semantics the boring way — one Python loop iteration per
packet, one history append per closure — and ~300 seeded random schedules
assert the two produce **identical** closed-flow batches: same flows, same
order, same counters, same trailing-window statistics, same payload sums.

The schedules are adversarial on purpose: tiny host/port/protocol ranges
force 5-tuple collisions and flow reuse, timestamps are locally shuffled
(capture order is array order, time is not monotone), FIN density drives
window rollover, and small idle timeouts force evictions whose keys then
re-open.  A second family draws its keys from a small pool of wide values
(host ids up to 2**40, ports 0 and 65535, seven protocols with ``None``
among them, first seen out of sorted order), so grouping can lean neither
on small key magnitudes nor on the order of the integer codes.  Sizes and
payload fragments are *integer-valued* floats so sums are exact under any
association — the table may sum a flow's bytes in a different order than
the oracle (continuation merge vs. left-to-right) and the equality here is
deliberately bitwise.
"""

import dataclasses

import numpy as np
import pytest

from repro.ingest import FLAG_ERR, FLAG_FIN, FLAG_SYN, FlowTable, PacketEvents

pytestmark = pytest.mark.ingest

N_SCHEDULES = 200
N_WIDE_SCHEDULES = 100

_PROTOCOLS = ("tcp", "udp")
# ``None`` and ``"None"`` share one key: the table codes protocols by str.
_WIDE_PROTOCOLS = ("udp", "tcp", "icmp", "sctp", "gre", None, "None")
_WIDE_PROTOCOL_P = (0.3, 0.3, 0.1, 0.1, 0.1, 0.05, 0.05)
_SERVICES = ("http", "dns", "smtp")
_STATES = ("SF", "S0", "REJ")
_LABELS = ("normal", "dos")


# --------------------------------------------------------------------- #
# The oracle: per-event Python, mirroring the documented FlowTable
# semantics (module docstring of repro.ingest.flows).
# --------------------------------------------------------------------- #
class OracleTable:
    def __init__(self, window, idle_timeout, payload_width):
        self.window = window
        self.idle_timeout = idle_timeout
        self.payload_width = payload_width
        self.open = {}            # 5-tuple -> flow dict
        self.next_seq = 0
        self.clock = -np.inf
        self.history = []         # close sequence: (dst, service, err, port)
        self.closed = []          # emitted rows, close order
        self.flows_opened = 0
        self.flows_closed = 0
        self.flows_evicted = 0

    def absorb(self, events):
        n = len(events)
        if n == 0:
            return
        for i in range(n):
            key = (
                int(events.src_host[i]), int(events.dst_host[i]),
                int(events.src_port[i]), int(events.dst_port[i]),
                str(events.protocol[i]),
            )
            flow = self.open.get(key)
            if flow is None:
                flow = {
                    "open_seq": self.next_seq,
                    "src_host": key[0], "dst_host": key[1],
                    "src_port": key[2], "dst_port": key[3],
                    "protocol": events.protocol[i],
                    "service": events.service[i],
                    "label": events.label[i],
                    "first_time": float(events.time[i]),
                    "last_time": float(events.time[i]),
                    "n_packets": 0, "n_fwd": 0, "n_bwd": 0,
                    "bytes_fwd": 0.0, "bytes_bwd": 0.0,
                    "syn_count": 0, "err_count": 0,
                    "state": events.state[i],
                    "payload": np.zeros(self.payload_width),
                }
                self.next_seq += 1
                self.flows_opened += 1
                self.open[key] = flow
            t = float(events.time[i])
            flow["first_time"] = min(flow["first_time"], t)
            flow["last_time"] = max(flow["last_time"], t)
            flow["n_packets"] += 1
            if events.direction[i] >= 0:
                flow["n_fwd"] += 1
                flow["bytes_fwd"] += float(events.size[i])
            else:
                flow["n_bwd"] += 1
                flow["bytes_bwd"] += float(events.size[i])
            if events.flags[i] & FLAG_SYN:
                flow["syn_count"] += 1
            if events.flags[i] & FLAG_ERR:
                flow["err_count"] += 1
            flow["state"] = events.state[i]
            if self.payload_width:
                flow["payload"] = flow["payload"] + events.payload[i]
            if events.flags[i] & FLAG_FIN:
                del self.open[key]
                self._emit(flow, closed_by_fin=True)
        self.clock = max(self.clock, float(events.time.max()))
        if self.idle_timeout is not None:
            threshold = self.clock - self.idle_timeout
            stale = [
                key for key, flow in self.open.items()
                if flow["last_time"] < threshold
            ]
            for key in sorted(stale, key=lambda k: self.open[k]["open_seq"]):
                flow = self.open.pop(key)
                self.flows_evicted += 1
                self._emit(flow, closed_by_fin=False)

    def close_all(self):
        remaining = sorted(self.open.values(), key=lambda f: f["open_seq"])
        self.open.clear()
        for flow in remaining:
            self._emit(flow, closed_by_fin=False)

    def _emit(self, flow, closed_by_fin):
        err_flag = 1.0 if flow["err_count"] > 0 else 0.0
        self.history.append(
            (flow["dst_host"], flow["service"], err_flag, flow["dst_port"])
        )
        recent = self.history[-self.window:]
        count = sum(1 for e in recent if e[0] == flow["dst_host"])
        srv_count = sum(
            1 for e in recent
            if e[0] == flow["dst_host"] and e[1] == flow["service"]
        )
        err_sum = sum(e[2] for e in recent if e[0] == flow["dst_host"])
        row = dict(flow)
        row["state"] = "EVICTED" if not closed_by_fin else row["state"]
        row["closed_by_fin"] = closed_by_fin
        row["duration"] = row["last_time"] - row["first_time"]
        row["count"] = count
        row["srv_count"] = srv_count
        row["serror_rate"] = err_sum / count
        row["same_srv_rate"] = srv_count / count
        row["diff_srv_rate"] = 1.0 - srv_count / count
        self.closed.append(row)
        self.flows_closed += 1

    def drain(self):
        rows = sorted(self.closed, key=lambda r: r["open_seq"])
        self.closed = []
        return rows

    def port_entropy(self):
        ports = [e[3] for e in self.history[-self.window:]]
        if not ports:
            return 0.0
        _, counts = np.unique(np.array(ports), return_counts=True)
        p = counts / counts.sum()
        return float(-np.sum(p * np.log2(p)))


# --------------------------------------------------------------------- #
def _random_events(rng, n, payload_width):
    """One adversarial event batch: tiny key space, shuffled times."""
    times = rng.uniform(0.0, 20.0, size=n)
    # Locally out-of-order timestamps: capture order must win.
    if n > 1 and rng.random() < 0.5:
        swap = rng.integers(0, n - 1)
        times[swap], times[swap + 1] = times[swap + 1], times[swap]
    flags = np.zeros(n, np.uint8)
    flags[rng.random(n) < 0.35] |= FLAG_FIN
    flags[rng.random(n) < 0.3] |= FLAG_SYN
    flags[rng.random(n) < 0.2] |= FLAG_ERR
    return PacketEvents(
        time=times,
        src_host=rng.integers(0, 3, size=n),
        dst_host=rng.integers(0, 3, size=n),
        src_port=rng.integers(0, 2, size=n),
        dst_port=rng.integers(0, 3, size=n),
        # Integer-valued sizes: exact sums under any association.
        size=rng.integers(1, 1000, size=n).astype(np.float64),
        direction=np.where(rng.random(n) < 0.6, 1, -1).astype(np.int8),
        flags=flags,
        protocol=np.array(rng.choice(_PROTOCOLS, size=n), object),
        service=np.array(rng.choice(_SERVICES, size=n), object),
        state=np.array(rng.choice(_STATES, size=n), object),
        label=np.array(rng.choice(_LABELS, size=n), object),
        payload=(
            rng.integers(-50, 50, size=(n, payload_width)).astype(np.float64)
            if payload_width
            else np.zeros((n, 0))
        ),
    )


def _wide_key_space(rng):
    """Three host ids reaching 2**40 and three ports spanning 0-65535: a
    key pool small enough that flows still collide and continue."""
    return {
        "hosts": np.array([0, int(rng.integers(2**32, 2**40)), 2**40]),
        "ports": np.array([0, int(rng.integers(1, 65535)), 65535]),
    }


def _wide_events(rng, n, payload_width, space):
    """A :func:`_random_events` batch rekeyed onto the wide key space."""
    events = _random_events(rng, n, payload_width)
    protocol = rng.choice(len(_WIDE_PROTOCOLS), size=n, p=_WIDE_PROTOCOL_P)
    # Lead with every protocol in a shuffled order that is never the
    # sorted one, so first-appearance codes and sorted codes disagree.
    lead = rng.permutation(len(_WIDE_PROTOCOLS))
    if [str(_WIDE_PROTOCOLS[i]) for i in lead] == sorted(map(str, _WIDE_PROTOCOLS)):
        lead = lead[::-1]
    protocol[: min(n, len(lead))] = lead[:n]
    return dataclasses.replace(
        events,
        src_host=rng.choice(space["hosts"], size=n),
        dst_host=rng.choice(space["hosts"], size=n),
        src_port=rng.choice(space["ports"][:2], size=n),
        dst_port=rng.choice(space["ports"], size=n),
        protocol=np.array([_WIDE_PROTOCOLS[i] for i in protocol], object),
        service=np.array(rng.choice(_SERVICES + (None,), size=n), object),
    )


_INT_FIELDS = (
    "open_seq", "src_host", "dst_host", "src_port", "dst_port",
    "n_packets", "n_fwd", "n_bwd", "syn_count", "err_count",
    "count", "srv_count",
)
_FLOAT_FIELDS = (
    "first_time", "last_time", "duration", "bytes_fwd", "bytes_bwd",
    "serror_rate", "same_srv_rate", "diff_srv_rate",
)
_OBJ_FIELDS = ("protocol", "service", "state", "label")


def _compare(stats, rows, seed):
    assert len(stats) == len(rows), f"seed {seed}: row count"
    for name in _INT_FIELDS + _FLOAT_FIELDS:
        got = getattr(stats, name)
        want = np.array([row[name] for row in rows], dtype=got.dtype)
        # Bitwise equality — the vectorized path must not drift by an ulp.
        assert np.array_equal(got, want), f"seed {seed}: field {name}"
    for name in _OBJ_FIELDS:
        got = [str(v) for v in getattr(stats, name)]
        want = [str(row[name]) for row in rows]
        assert got == want, f"seed {seed}: field {name}"
    got_fin = getattr(stats, "closed_by_fin")
    want_fin = np.array([row["closed_by_fin"] for row in rows], bool)
    assert np.array_equal(got_fin, want_fin), f"seed {seed}: closed_by_fin"
    if stats.payload.shape[1] and rows:
        want_payload = np.stack([row["payload"] for row in rows])
        assert np.array_equal(stats.payload, want_payload), (
            f"seed {seed}: payload"
        )


def _invariants(stats, table, seed):
    for name in _INT_FIELDS:
        values = getattr(stats, name)
        assert (values >= 0).all(), f"seed {seed}: negative {name}"
    assert (stats.n_fwd + stats.n_bwd == stats.n_packets).all(), seed
    assert (stats.count >= 1).all(), seed            # window includes self
    assert (stats.srv_count <= stats.count).all(), seed
    assert (stats.serror_rate <= 1.0).all(), seed
    assert (stats.last_time >= stats.first_time).all(), seed
    assert table.flows_opened == table.flows_closed + table.open_flows, seed


def _run_schedule(rng, seed, draw_events):
    """Drive the table and the oracle through one seeded schedule of
    ``draw_events(rng, n, payload_width)`` batches and compare them."""
    window = int(rng.integers(1, 9))
    idle_timeout = (
        None if rng.random() < 0.4 else float(rng.uniform(0.5, 6.0))
    )
    payload_width = int(rng.choice([0, 2]))
    drain_each_batch = bool(rng.random() < 0.5)

    table = FlowTable(
        window=window, idle_timeout=idle_timeout, payload_width=payload_width
    )
    oracle = OracleTable(window, idle_timeout, payload_width)

    for _ in range(int(rng.integers(1, 5))):
        events = draw_events(rng, int(rng.integers(0, 41)), payload_width)
        table.absorb(events)
        oracle.absorb(events)
        assert table.port_entropy() == oracle.port_entropy(), seed
        if drain_each_batch:
            _compare(table.drain(), oracle.drain(), seed)

    table.close_all()
    oracle.close_all()
    stats = table.drain()
    rows = oracle.drain()
    _compare(stats, rows, seed)
    _invariants(stats, table, seed)
    assert table.open_flows == 0
    assert table.flows_opened == oracle.flows_opened
    assert table.flows_closed == oracle.flows_closed
    assert table.flows_evicted == oracle.flows_evicted


@pytest.mark.parametrize("seed", range(N_SCHEDULES))
def test_flow_table_matches_per_event_oracle(seed):
    """Vectorized absorb/close_all/drain == naive per-event aggregation."""
    _run_schedule(np.random.default_rng((0xF10E7, seed)), seed, _random_events)


@pytest.mark.parametrize("seed", range(N_WIDE_SCHEDULES))
def test_flow_table_matches_oracle_on_wide_keys(seed):
    """The same equality with host ids up to 2**40, ports across 0-65535
    and seven protocols (``None`` among them) that first appear out of
    their sorted order: grouping must not depend on key magnitude or on
    the order of the integer codes."""
    rng = np.random.default_rng((0x5EED, seed))
    space = _wide_key_space(rng)
    _run_schedule(
        rng, seed, lambda rng, n, width: _wide_events(rng, n, width, space)
    )


def test_evicted_flow_reopens_cleanly():
    """A key whose flow was idle-evicted opens a *fresh* flow on its next
    packet: new open_seq, counters starting from zero."""
    def burst(t):
        return PacketEvents(
            time=np.array([t]),
            src_host=np.array([1]), dst_host=np.array([2]),
            src_port=np.array([3]), dst_port=np.array([4]),
            size=np.array([100.0]),
            direction=np.array([1], np.int8),
            flags=np.array([FLAG_SYN], np.uint8),
            protocol=np.array(["tcp"], object),
            service=np.array(["http"], object),
            state=np.array(["SF"], object),
            label=np.array(["normal"], object),
        )

    table = FlowTable(window=4, idle_timeout=1.0)
    table.absorb(burst(0.0))
    assert table.open_flows == 1
    # A far-future packet on a *different* key advances the clock past the
    # timeout, evicting the first flow at the end of the absorb.
    other = burst(10.0)
    other.src_host[:] = 9
    table.absorb(other)
    assert table.flows_evicted == 1
    stats = table.drain()
    assert list(stats.state) == ["EVICTED"]
    assert not stats.closed_by_fin[0]
    # Same key again: a brand-new flow, nothing inherited.
    table.absorb(burst(10.5))
    table.close_all()
    stats = table.drain()
    assert len(stats) == 2  # the rekeyed flow from `other` + the reopened one
    reopened = stats.n_packets[np.asarray(stats.src_host) == 1]
    assert reopened.tolist() == [1]
    assert table.flows_opened == 3
