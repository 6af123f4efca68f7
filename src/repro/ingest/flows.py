"""Sliding-window flow aggregation: packet events → per-flow statistics.

:class:`FlowTable` is the stateful heart of the ingestion front-end.  It
consumes :class:`~repro.ingest.events.PacketEvents` batches in capture
order and maintains:

* **open flows**, keyed by the 5-tuple ``(src_host, dst_host, src_port,
  dst_port, protocol)``.  A flow accumulates packet/byte counters
  (forward/backward split), SYN and error counts, first/last timestamps
  and the per-packet ``payload`` fragment sum.  A packet carrying
  :data:`~repro.ingest.events.FLAG_FIN` closes its flow; the next packet
  with the same key opens a fresh one.  Flows idle longer than
  ``idle_timeout`` (against the table clock, the maximum timestamp seen)
  are evicted — closed without a FIN — at the end of the ``absorb`` call;
* a **trailing window of recently closed flows** (the last ``window``
  closures), from which each flow receives its connection-context
  statistics at close time, mirroring the NSL-KDD two-second/100-connection
  features: ``count`` (closed flows to the same destination host),
  ``srv_count`` (same host *and* service), ``serror_rate`` (fraction of
  those same-host flows that saw an error state), ``same_srv_rate`` and
  ``diff_srv_rate``.  :meth:`FlowTable.port_entropy` summarises the
  window's destination-port spread — the scan/flood indicator.

**Hot path contract**: ``absorb`` groups and reduces packets with numpy —
5-tuple grouping via one stable ``np.lexsort`` over integer key columns
(key runs from comparisons of adjacent sorted rows), FIN-based sub-flow
segmentation via cumulative sums, per-segment reductions via
``ufunc.reduceat`` and the trailing-window statistics via an offset-key
``searchsorted``.  Object columns are coded to integers by first
appearance, one dict lookup per value: ``str(protocol)`` per packet in
``absorb`` (the same string the carried open-flow keys use) and
``service`` per closed flow in the window statistics.  No object column
is sorted, so any hashable value (``None`` included) passes as one
more out-of-vocabulary value.  Beyond those lookups Python touches *flows*
(segment merge bookkeeping), never packets, and no output depends on the
order of the integer codes.  The fuzz suite
(`tests/ingest/test_flow_table_fuzz.py`) holds the whole thing equal to a
naive per-event Python oracle.

Ordering semantics (the determinism contract, mirrored by the oracle):

* flows open in capture order of their first packet and are numbered by a
  global ``open_seq``;
* within one ``absorb`` call, FIN-closed flows close in capture order of
  their closing packet; idle evictions follow, in ``open_seq`` order;
* window statistics are computed at close time over the last ``window``
  closures *including the flow itself*;
* :meth:`drain` returns closed flows sorted by ``open_seq`` — for a
  lowered record batch this is exactly the original record order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .events import FLAG_ERR, FLAG_FIN, FLAG_SYN, PacketEvents

__all__ = ["FlowStats", "FlowTable"]

#: Column names of a FlowStats batch, in a fixed order (used by digests).
_STAT_FIELDS = (
    "open_seq", "src_host", "dst_host", "src_port", "dst_port",
    "protocol", "service", "state", "label",
    "first_time", "last_time", "duration",
    "n_packets", "n_fwd", "n_bwd", "bytes_fwd", "bytes_bwd",
    "syn_count", "err_count", "closed_by_fin",
    "count", "srv_count", "serror_rate", "same_srv_rate", "diff_srv_rate",
)


@dataclass
class FlowStats:
    """A batch of closed flows, one entry per flow (struct of arrays)."""

    open_seq: np.ndarray        # int64, global flow-open sequence number
    src_host: np.ndarray
    dst_host: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    protocol: np.ndarray        # object, first packet
    service: np.ndarray         # object, first packet
    state: np.ndarray           # object, last packet (capture order)
    label: np.ndarray           # object, first packet
    first_time: np.ndarray
    last_time: np.ndarray
    duration: np.ndarray
    n_packets: np.ndarray
    n_fwd: np.ndarray
    n_bwd: np.ndarray
    bytes_fwd: np.ndarray
    bytes_bwd: np.ndarray
    syn_count: np.ndarray
    err_count: np.ndarray
    closed_by_fin: np.ndarray   # bool
    count: np.ndarray           # window: same-dst closures
    srv_count: np.ndarray       # window: same-dst, same-service closures
    serror_rate: np.ndarray     # window: erroring fraction of same-dst
    same_srv_rate: np.ndarray
    diff_srv_rate: np.ndarray
    payload: np.ndarray         # (n, payload_width) fragment sums

    def __len__(self) -> int:
        return len(self.open_seq)


class _OpenFlow:
    """Accumulator for a flow still open across ``absorb`` boundaries."""

    __slots__ = (
        "open_seq", "first_time", "last_time", "n_packets", "n_fwd", "n_bwd",
        "bytes_fwd", "bytes_bwd", "syn_count", "err_count",
        "protocol", "service", "label", "payload",
        "src_host", "dst_host", "src_port", "dst_port",
    )

    def __init__(self, **kwargs) -> None:
        for name, value in kwargs.items():
            setattr(self, name, value)


def _trailing_group_stats(
    codes: np.ndarray, weights: np.ndarray, window: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per position ``p``: over the trailing ``window`` positions ending at
    ``p`` (inclusive), the number of entries sharing ``codes[p]`` and their
    ``weights`` sum.

    Vectorised via the offset-key trick: sort by ``(code, position)``, then
    the window lower bound of every element is one ``searchsorted`` of
    ``code * n + max(p - window + 1, 0)`` against the composite keys, and
    counts/sums fall out of rank and prefix-sum differences.
    """
    n = len(codes)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0)
    pos = np.arange(n, dtype=np.int64)
    codes = np.asarray(codes, dtype=np.int64)
    order = np.lexsort((pos, codes))
    scode = codes[order]
    spos = pos[order]
    csum = np.cumsum(np.asarray(weights, dtype=np.float64)[order])
    composite = scode * n + spos
    lower = np.searchsorted(
        composite, scode * n + np.maximum(spos - window + 1, 0), side="left"
    )
    rank = np.arange(n, dtype=np.int64)
    counts_sorted = rank - lower + 1
    sums_sorted = csum - np.where(lower > 0, csum[lower - 1], 0.0)
    counts = np.empty(n, np.int64)
    sums = np.empty(n)
    counts[order] = counts_sorted
    sums[order] = sums_sorted
    return counts, sums


class FlowTable:
    """Windowed 5-tuple flow assembly over packet-event batches.

    Parameters
    ----------
    window:
        Width (in closed flows) of the trailing window behind ``count`` /
        ``srv_count`` / the rate features and :meth:`port_entropy`.
    idle_timeout:
        Seconds of inactivity (against the table clock — the maximum
        timestamp seen so far) after which an open flow is evicted at the
        end of an ``absorb`` call.  ``None`` disables eviction.
    payload_width:
        Width of the per-packet payload fragment block the table expects;
        batches must match.
    """

    def __init__(
        self,
        window: int = 100,
        idle_timeout: Optional[float] = None,
        payload_width: int = 0,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive when given")
        self.window = int(window)
        self.idle_timeout = idle_timeout
        self.payload_width = int(payload_width)
        self._open: Dict[Tuple, _OpenFlow] = {}
        self._next_seq = 0
        self._clock = -np.inf
        # Trailing window of closed flows (most recent last).
        self._hist_dst = np.empty(0, np.int64)
        self._hist_srv = np.empty(0, object)
        self._hist_err = np.empty(0, np.float64)
        self._hist_port = np.empty(0, np.int64)
        # Closed-but-undrained flows, one dict of column arrays per close
        # wave; drain() concatenates and sorts by open_seq.
        self._pending: List[Dict[str, np.ndarray]] = []
        self.packets_seen = 0
        self.flows_opened = 0
        self.flows_closed = 0
        self.flows_evicted = 0

    # ------------------------------------------------------------------ #
    @property
    def open_flows(self) -> int:
        return len(self._open)

    def port_entropy(self) -> float:
        """Shannon entropy (bits) of destination ports over the trailing
        window of closed flows; 0.0 while the window is empty."""
        if len(self._hist_port) == 0:
            return 0.0
        _, counts = np.unique(self._hist_port, return_counts=True)
        p = counts / counts.sum()
        return float(-np.sum(p * np.log2(p)))

    # ------------------------------------------------------------------ #
    def absorb(self, events: PacketEvents) -> int:
        """Fold one event batch into the table; returns flows closed.

        All per-packet work is vectorised (see module docstring); the
        Python loops below iterate *flow segments*, whose count is bounded
        by the number of flows touched, never by the packet count.
        """
        n = len(events)
        if n == 0:
            return 0
        if events.payload_width != self.payload_width:
            raise ValueError(
                f"payload width {events.payload_width} does not match the "
                f"table's {self.payload_width}"
            )
        self.packets_seen += n

        # --- 5-tuple grouping + FIN-based sub-flow segmentation --------- #
        # The protocol is coded by first appearance of ``str(value)``, the
        # form the carried open-flow keys use.  One stable lexsort over the
        # five key columns groups each key's events in capture order; which
        # column leads the sort does not matter.
        proto_code_of: Dict[str, int] = {}
        proto_codes = np.fromiter(
            (
                proto_code_of.setdefault(str(value), len(proto_code_of))
                for value in events.protocol
            ),
            np.int64,
            n,
        )
        proto_vocab = list(proto_code_of)
        key_columns = (
            events.src_host,
            events.dst_host,
            events.src_port,
            events.dst_port,
            proto_codes,
        )
        order = np.lexsort(key_columns)
        fin = (events.flags[order] & FLAG_FIN) != 0

        new_key = np.empty(n, bool)
        new_key[0] = True
        new_key[1:] = False
        for column in key_columns:
            sorted_column = column[order]
            new_key[1:] |= sorted_column[1:] != sorted_column[:-1]
        run_starts = np.flatnonzero(new_key)
        run_lengths = np.diff(np.r_[run_starts, n])
        # FINs strictly before each event within its key run: a FIN closes
        # the flow, so the sub-flow index is that running count.
        cum_fin = np.cumsum(fin)
        run_base = np.repeat(cum_fin[run_starts] - fin[run_starts], run_lengths)
        subflow = cum_fin - fin.astype(np.int64) - run_base

        new_seg = new_key.copy()
        new_seg[1:] |= subflow[1:] != subflow[:-1]
        seg_starts = np.flatnonzero(new_seg)
        seg_ends = np.r_[seg_starts[1:], n]
        n_seg = len(seg_starts)

        # --- per-segment reductions (all reduceat over sorted arrays) --- #
        t = events.time[order]
        size = events.size[order]
        forward = events.direction[order] >= 0
        flags = events.flags[order]
        seg_subflow = subflow[seg_starts]
        seg_packets = (seg_ends - seg_starts).astype(np.int64)
        seg_fwd = np.add.reduceat(forward.astype(np.int64), seg_starts)
        seg_bwd = seg_packets - seg_fwd
        seg_bytes_fwd = np.add.reduceat(np.where(forward, size, 0.0), seg_starts)
        seg_bytes_bwd = np.add.reduceat(np.where(forward, 0.0, size), seg_starts)
        seg_syn = np.add.reduceat(
            ((flags & FLAG_SYN) != 0).astype(np.int64), seg_starts
        )
        seg_err = np.add.reduceat(
            ((flags & FLAG_ERR) != 0).astype(np.int64), seg_starts
        )
        seg_tmin = np.minimum.reduceat(t, seg_starts)
        seg_tmax = np.maximum.reduceat(t, seg_starts)
        seg_has_fin = np.add.reduceat(fin.astype(np.int64), seg_starts) > 0
        seg_first = order[seg_starts]          # original index of first packet
        seg_last = order[seg_ends - 1]         # original index of last packet
        if self.payload_width:
            seg_payload = np.add.reduceat(
                events.payload[order], seg_starts, axis=0
            )
        else:
            seg_payload = np.zeros((n_seg, 0))
        seg_protocol = events.protocol[seg_first].copy()
        seg_service = events.service[seg_first].copy()
        seg_label = events.label[seg_first].copy()
        seg_state = events.state[seg_last].copy()

        # Each segment's key row, read from its first event.
        key_rows = np.stack([column[seg_first] for column in key_columns], axis=1)

        def key_tuple(seg: int) -> Tuple:
            row = key_rows[seg]
            return (
                int(row[0]), int(row[1]), int(row[2]), int(row[3]),
                proto_vocab[row[4]],
            )

        # --- merge with flows carried open from previous batches -------- #
        # Only a sub-flow-0 segment can continue an open flow, and each key
        # has at most one such segment per batch.
        continuation: List[Optional[_OpenFlow]] = [None] * n_seg
        if self._open:
            for seg in np.flatnonzero(seg_subflow == 0):
                acc = self._open.pop(key_tuple(seg), None)
                if acc is not None:
                    continuation[seg] = acc

        seg_seq = np.empty(n_seg, np.int64)
        is_new = np.array([acc is None for acc in continuation], dtype=bool)
        new_segs = np.flatnonzero(is_new)
        # New flows open in capture order of their first packet.
        opened = new_segs[np.argsort(seg_first[new_segs], kind="stable")]
        seg_seq[opened] = self._next_seq + np.arange(len(opened))
        self._next_seq += len(opened)
        self.flows_opened += len(opened)

        for seg, acc in enumerate(continuation):
            if acc is None:
                continue
            seg_seq[seg] = acc.open_seq
            seg_packets[seg] += acc.n_packets
            seg_fwd[seg] += acc.n_fwd
            seg_bwd[seg] += acc.n_bwd
            seg_bytes_fwd[seg] += acc.bytes_fwd
            seg_bytes_bwd[seg] += acc.bytes_bwd
            seg_syn[seg] += acc.syn_count
            seg_err[seg] += acc.err_count
            seg_tmin[seg] = min(seg_tmin[seg], acc.first_time)
            seg_tmax[seg] = max(seg_tmax[seg], acc.last_time)
            seg_protocol[seg] = acc.protocol
            seg_service[seg] = acc.service
            seg_label[seg] = acc.label
            if self.payload_width:
                seg_payload[seg] = acc.payload + seg_payload[seg]

        # --- segments without a FIN stay open (at most one per key) ----- #
        for seg in np.flatnonzero(~seg_has_fin):
            row = key_rows[seg]
            self._open[key_tuple(seg)] = _OpenFlow(
                open_seq=int(seg_seq[seg]),
                first_time=float(seg_tmin[seg]),
                last_time=float(seg_tmax[seg]),
                n_packets=int(seg_packets[seg]),
                n_fwd=int(seg_fwd[seg]),
                n_bwd=int(seg_bwd[seg]),
                bytes_fwd=float(seg_bytes_fwd[seg]),
                bytes_bwd=float(seg_bytes_bwd[seg]),
                syn_count=int(seg_syn[seg]),
                err_count=int(seg_err[seg]),
                protocol=seg_protocol[seg],
                service=seg_service[seg],
                label=seg_label[seg],
                payload=seg_payload[seg].copy() if self.payload_width else None,
                src_host=int(row[0]),
                dst_host=int(row[1]),
                src_port=int(row[2]),
                dst_port=int(row[3]),
            )

        # --- close wave: FIN closures in capture order, then evictions -- #
        closed_segs = np.flatnonzero(seg_has_fin)
        closed_segs = closed_segs[np.argsort(seg_last[closed_segs], kind="stable")]
        columns = {
            "open_seq": seg_seq[closed_segs],
            "src_host": key_rows[closed_segs, 0],
            "dst_host": key_rows[closed_segs, 1],
            "src_port": key_rows[closed_segs, 2],
            "dst_port": key_rows[closed_segs, 3],
            "protocol": seg_protocol[closed_segs],
            "service": seg_service[closed_segs],
            "state": seg_state[closed_segs],
            "label": seg_label[closed_segs],
            "first_time": seg_tmin[closed_segs],
            "last_time": seg_tmax[closed_segs],
            "n_packets": seg_packets[closed_segs],
            "n_fwd": seg_fwd[closed_segs],
            "n_bwd": seg_bwd[closed_segs],
            "bytes_fwd": seg_bytes_fwd[closed_segs],
            "bytes_bwd": seg_bytes_bwd[closed_segs],
            "syn_count": seg_syn[closed_segs],
            "err_count": seg_err[closed_segs],
            "closed_by_fin": np.ones(len(closed_segs), bool),
            "payload": seg_payload[closed_segs],
        }

        self._clock = max(self._clock, float(events.time.max()))
        evicted: List[_OpenFlow] = []
        if self.idle_timeout is not None and self._open:
            threshold = self._clock - self.idle_timeout
            stale = [
                key for key, acc in self._open.items()
                if acc.last_time < threshold
            ]
            evicted = sorted(
                (self._open.pop(key) for key in stale),
                key=lambda acc: acc.open_seq,
            )
            self.flows_evicted += len(evicted)

        self._emit_closed(columns, evicted)
        closed = len(closed_segs) + len(evicted)
        self.flows_closed += closed
        return closed

    def close_all(self) -> int:
        """Force-close every open flow (in ``open_seq`` order, no FIN).

        The batch-mode terminator: the extractor calls this when a capture
        interval ends so every flow of the interval becomes a feature row.
        """
        if not self._open:
            return 0
        remaining = sorted(self._open.values(), key=lambda acc: acc.open_seq)
        self._open.clear()
        empty = {
            name: np.empty(0, dtype)
            for name, dtype in (
                ("open_seq", np.int64), ("src_host", np.int64),
                ("dst_host", np.int64), ("src_port", np.int64),
                ("dst_port", np.int64), ("protocol", object),
                ("service", object), ("state", object), ("label", object),
                ("first_time", np.float64), ("last_time", np.float64),
                ("n_packets", np.int64), ("n_fwd", np.int64),
                ("n_bwd", np.int64), ("bytes_fwd", np.float64),
                ("bytes_bwd", np.float64), ("syn_count", np.int64),
                ("err_count", np.int64), ("closed_by_fin", bool),
            )
        }
        empty["payload"] = np.zeros((0, self.payload_width))
        self._emit_closed(empty, remaining)
        self.flows_closed += len(remaining)
        return len(remaining)

    # ------------------------------------------------------------------ #
    def _emit_closed(
        self, columns: Dict[str, np.ndarray], evicted: List[_OpenFlow]
    ) -> None:
        """Append one close wave (FIN closures + evictions, already in close
        order) to the pending store, attaching window statistics."""
        if evicted:
            tail = {
                "open_seq": np.array([a.open_seq for a in evicted], np.int64),
                "src_host": np.array([a.src_host for a in evicted], np.int64),
                "dst_host": np.array([a.dst_host for a in evicted], np.int64),
                "src_port": np.array([a.src_port for a in evicted], np.int64),
                "dst_port": np.array([a.dst_port for a in evicted], np.int64),
                "protocol": np.array([a.protocol for a in evicted], object),
                "service": np.array([a.service for a in evicted], object),
                # An evicted flow never saw a terminating packet; its last
                # observed state is unknowable from the trace, so the state
                # column reports the eviction itself.
                "state": np.array(["EVICTED"] * len(evicted), object),
                "label": np.array([a.label for a in evicted], object),
                "first_time": np.array([a.first_time for a in evicted]),
                "last_time": np.array([a.last_time for a in evicted]),
                "n_packets": np.array([a.n_packets for a in evicted], np.int64),
                "n_fwd": np.array([a.n_fwd for a in evicted], np.int64),
                "n_bwd": np.array([a.n_bwd for a in evicted], np.int64),
                "bytes_fwd": np.array([a.bytes_fwd for a in evicted]),
                "bytes_bwd": np.array([a.bytes_bwd for a in evicted]),
                "syn_count": np.array([a.syn_count for a in evicted], np.int64),
                "err_count": np.array([a.err_count for a in evicted], np.int64),
                "closed_by_fin": np.zeros(len(evicted), bool),
                "payload": (
                    np.stack([a.payload for a in evicted])
                    if self.payload_width
                    else np.zeros((len(evicted), 0))
                ),
            }
            columns = {
                name: np.concatenate([columns[name], tail[name]])
                if name != "payload"
                else np.concatenate([columns[name], tail[name]], axis=0)
                for name in columns
            }
        m = len(columns["open_seq"])
        if m == 0:
            return

        # --- trailing-window statistics over history + this wave -------- #
        dst = np.concatenate([self._hist_dst, columns["dst_host"]])
        srv = np.concatenate([self._hist_srv, columns["service"]])
        err = np.concatenate(
            [self._hist_err, (columns["err_count"] > 0).astype(np.float64)]
        )
        _, dst_codes = np.unique(dst, return_inverse=True)
        # Services coded by first appearance (one dict lookup per flow, no
        # object sort, so any hashable value passes).
        srv_code_of: Dict[object, int] = {}
        srv_codes = np.fromiter(
            (srv_code_of.setdefault(value, len(srv_code_of)) for value in srv),
            np.int64,
            len(srv),
        )
        pair_codes = dst_codes.astype(np.int64) * len(srv_code_of) + srv_codes
        count, err_sum = _trailing_group_stats(dst_codes, err, self.window)
        srv_count, _ = _trailing_group_stats(
            pair_codes, np.zeros(len(pair_codes)), self.window
        )
        new = slice(len(self._hist_dst), None)
        columns["count"] = count[new]
        columns["srv_count"] = srv_count[new]
        columns["serror_rate"] = err_sum[new] / count[new]
        columns["same_srv_rate"] = srv_count[new] / count[new]
        columns["diff_srv_rate"] = 1.0 - columns["same_srv_rate"]
        columns["duration"] = columns["last_time"] - columns["first_time"]
        self._pending.append(columns)

        keep = self.window
        self._hist_dst = dst[-keep:]
        self._hist_srv = srv[-keep:]
        self._hist_err = err[-keep:]
        self._hist_port = np.concatenate(
            [self._hist_port, columns["dst_port"]]
        )[-keep:]

    # ------------------------------------------------------------------ #
    def drain(self) -> FlowStats:
        """Return (and clear) every closed flow, sorted by ``open_seq``."""
        if not self._pending:
            chunks = [
                {
                    name: np.empty(0, object)
                    if name in ("protocol", "service", "state", "label")
                    else np.empty(0, bool)
                    if name == "closed_by_fin"
                    else np.empty(0, np.int64)
                    if name in (
                        "open_seq", "src_host", "dst_host", "src_port",
                        "dst_port", "n_packets", "n_fwd", "n_bwd",
                        "syn_count", "err_count", "count", "srv_count",
                    )
                    else np.empty(0)
                    for name in _STAT_FIELDS
                }
            ]
            chunks[0]["payload"] = np.zeros((0, self.payload_width))
        else:
            chunks = self._pending
            self._pending = []
        merged = {
            name: np.concatenate([chunk[name] for chunk in chunks])
            for name in _STAT_FIELDS
        }
        merged["payload"] = np.concatenate(
            [chunk["payload"] for chunk in chunks], axis=0
        )
        flow_order = np.argsort(merged["open_seq"], kind="stable")
        return FlowStats(
            **{
                name: merged[name][flow_order]
                for name in _STAT_FIELDS + ("payload",)
            }
        )
