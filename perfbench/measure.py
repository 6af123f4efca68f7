"""Measurement primitives of the benchmark, independent of the program.

* :func:`percentile` — a timing percentile that refuses to report a tail
  with fewer than :data:`MIN_TAIL_SAMPLES` samples beyond it;
* :class:`DueBook` — FIFO matching of due (or submit) times to in-order
  commits, so a committed micro-batch that split or merged submissions
  still gives every record its own latency;
* :func:`poisson_schedule` — seeded open-loop arrivals of record bursts;
* :class:`HostGauge` — the host's current CPU speed from a fixed reference
  kernel sampled between calls into the program, to scale closed-loop
  timings to a reference host;
* :class:`Tracer` — spans recorded around calls into each layer, with
  per-layer self time (span duration minus the time of nested spans on the
  same thread), kept in memory and written out when the run ends.

Every clock is injectable so the self-tests drive them without sleeping.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

#: A reported percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


class InsufficientSamples(ValueError):
    """A percentile was requested that the sample cannot support."""


def samples_beyond(count: int, q: float) -> int:
    """Number of samples lying beyond the ``q``-th percentile of ``count``."""
    return int(count * (100.0 - q) / 100.0 + 1e-9)


def percentile(values, q: float) -> float:
    """``q``-th percentile of ``values``, refusing unsupported tails."""
    values = np.asarray(values, dtype=np.float64)
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_TAIL_SAMPLES:
        raise InsufficientSamples(
            f"p{q:g} of {len(values)} samples has {beyond} beyond it "
            f"(need {MIN_TAIL_SAMPLES})"
        )
    return float(np.percentile(values, q))


def records_for(q: float) -> int:
    """Fewest samples whose ``q``-th percentile has enough samples beyond."""
    return math.ceil(MIN_TAIL_SAMPLES * 100.0 / (100.0 - q) - 1e-9)


class DueBook:
    """Per-record latency from FIFO due times to in-order commits.

    Each :meth:`submit` appends ``count`` records due at ``due``; each
    :meth:`commit` of ``count`` records at ``at`` consumes the oldest
    outstanding records, splitting a submission across commits or merging
    several submissions into one commit.  Latencies are kept run-length
    encoded (one value per contiguous piece) and expanded on demand.
    """

    def __init__(self) -> None:
        self._due: Deque[List[float]] = deque()  # [due time, records left]
        self.submitted = 0
        self.committed = 0
        self._values: List[float] = []
        self._counts: List[int] = []
        self._commits: List[Tuple[float, int]] = []  # (time, records)

    @property
    def outstanding(self) -> int:
        return self.submitted - self.committed

    @property
    def commit_count(self) -> int:
        """Number of commits (batches) so far, each one shared latency draw."""
        return len(self._commits)

    def submit(self, due: float, count: int) -> None:
        if count > 0:
            self._due.append([due, count])
            self.submitted += count

    def commit(self, at: float, count: int) -> None:
        if count > self.outstanding:
            raise ValueError(
                f"commit of {count} records exceeds the {self.outstanding} "
                "outstanding"
            )
        self.committed += count
        self._commits.append((at, count))
        while count:
            head = self._due[0]
            take = min(head[1], count)
            self._values.append(at - head[0])
            self._counts.append(take)
            count -= take
            if take == head[1]:
                self._due.popleft()
            else:
                head[1] -= take

    def latencies(self) -> np.ndarray:
        """One latency per committed record, in commit order."""
        return np.repeat(
            np.asarray(self._values, dtype=np.float64),
            np.asarray(self._counts, dtype=np.int64),
        )

    def windows(
        self,
        start: float,
        count: int,
        speed: Optional[Callable[[float, float], float]] = None,
    ) -> List[Tuple[float, np.ndarray]]:
        """Split the commits into up to ``count`` contiguous windows of
        about equal records; per window, ``(records per second, latencies)``.

        A window ends at a commit, and its rate runs from the previous
        window's last commit (``start`` for the first).  Medians over the
        windows let a burst of host noise move one window, not the run.
        With ``speed`` (a :meth:`HostGauge.speed`), each window's rate is
        divided by, and its latencies multiplied by, the host speed factor
        over the window.
        """
        times = np.array([at for at, _ in self._commits])
        ends = np.cumsum([records for _, records in self._commits])
        targets = ends[-1] * np.arange(1, count + 1) / count
        cuts = np.unique(np.searchsorted(ends, targets - 1e-9))
        latencies = self.latencies()
        windows = []
        previous_time, previous_end = start, 0
        for cut in cuts:
            end, time_ = int(ends[cut]), float(times[cut])
            factor = speed(previous_time, time_) if speed is not None else 1.0
            windows.append(
                ((end - previous_end) / (time_ - previous_time) / factor,
                 latencies[previous_end:end] * factor)
            )
            previous_time, previous_end = time_, end
        return windows


def poisson_schedule(
    seed: int,
    rate: float,
    seconds: float,
    burst_low: int,
    burst_high: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Seeded Poisson arrivals of record bursts at ``rate`` records/s.

    Returns ``(offsets, sizes)``: arrival offsets in seconds from the start
    (strictly below ``seconds``) and burst sizes drawn uniformly from
    ``[burst_low, burst_high]``.  Burst arrivals are Poisson with rate
    ``rate / mean burst size``, so the offered record rate is ``rate``.
    """
    rng = np.random.default_rng(np.random.SeedSequence((0x5EED, int(seed))))
    bursts_per_s = rate / ((burst_low + burst_high) / 2.0)
    offsets: List[np.ndarray] = []
    last = 0.0
    chunk = max(int(bursts_per_s * seconds * 1.2), 64)
    while last < seconds:
        gaps = rng.exponential(1.0 / bursts_per_s, size=chunk)
        block = last + np.cumsum(gaps)
        offsets.append(block)
        last = float(block[-1])
    merged = np.concatenate(offsets)
    merged = merged[merged < seconds]
    sizes = rng.integers(burst_low, burst_high + 1, size=len(merged))
    return merged, sizes


class HostGauge:
    """The host's current CPU speed, sampled between calls into the program.

    A shared host's CPU speed swings by about ±20 % over seconds to
    minutes, and a closed loop's timings follow it.  :meth:`tick`, called
    from the timed loop, runs a fixed reference kernel at most every
    ``interval`` seconds and records how long it took; :meth:`speed` turns
    those durations into a factor (``reference_s`` over their median) that
    scales a timing to a host where the kernel takes ``reference_s``.
    :meth:`clock` leaves out the time spent sampling, so the program's
    timings never include it.
    """

    def __init__(
        self,
        interval: float,
        reference_s: float,
        clock: Callable[[], float] = time.perf_counter,
        work: Optional[Callable[[], object]] = None,
    ) -> None:
        self.interval = float(interval)
        self.reference_s = float(reference_s)
        self._clock = clock
        self.work = work if work is not None else reference_kernel()
        #: Seconds spent sampling so far, left out of :meth:`clock`.
        self.spent = 0.0
        #: ``(gauge clock at the sample, kernel seconds)`` per sample.
        self.samples: List[Tuple[float, float]] = []
        self._next = -math.inf

    def clock(self) -> float:
        return self._clock() - self.spent

    def sample(self) -> float:
        """Run the kernel once; returns its duration."""
        started = self._clock()
        self.work()
        finished = self._clock()
        duration = finished - started
        self.samples.append((started - self.spent, duration))
        self.spent += duration
        self._next = finished + self.interval
        return duration

    def tick(self) -> None:
        """Sample unless the last sample is under ``interval`` old."""
        if self._clock() >= self._next:
            self.sample()

    def speed(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Speed factor from the samples taken (gauge clock) in
        ``[start, end)``, or from every sample if none fell there."""
        durations = [d for at, d in self.samples if start <= at < end]
        if not durations:
            durations = [d for _, d in self.samples]
        return self.reference_s / float(np.median(durations))


def reference_kernel(seed: int = 0) -> Callable[[], float]:
    """A fixed ~1 ms of the work the program's hot paths do: a small
    matmul, elementwise numpy and an interpreter loop."""
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((256, 128))
    right = rng.standard_normal((128, 128))

    def kernel() -> float:
        total = 0.0
        for _ in range(2):
            total += float(np.maximum(left @ right, 0.0).sum())
        values = left
        for _ in range(4):
            values = np.tanh(values * 0.5 + 0.1)
        for index in range(3000):
            total += index * 0.5
        return total + float(values[0, 0])

    return kernel


class Tracer:
    """Spans around calls into the program's layers, with self time.

    :meth:`wrap` replaces a method on one instance with a wrapper that
    records a span named after the layer; nothing in the program is edited
    and instances the benchmark does not wrap pay nothing.  Spans nest per
    thread; a span's self time is its duration minus the durations of the
    spans directly nested in it.  Spans are kept in memory as
    ``(id, parent id, name, thread, start, end)`` and written by
    :meth:`dump` when the run ends.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: While false, spans pass straight through and record nothing.
        self.active = True
        self.spans: List[Tuple[int, int, str, str, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        # Per thread name: {span name: [self seconds, calls]}.
        self._self: Dict[str, Dict[str, List[float]]] = {}

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.totals = {}
            with self._lock:
                self._self[threading.current_thread().name] = self._local.totals
        return stack

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        frame = [next(self._ids), self.clock(), 0.0]  # id, start, child time
        stack.append(frame)
        try:
            yield
        finally:
            end = self.clock()
            stack.pop()
            duration = end - frame[1]
            if stack:
                stack[-1][2] += duration
            entry = self._local.totals.setdefault(name, [0.0, 0])
            entry[0] += duration - frame[2]
            entry[1] += 1
            self.spans.append(
                (frame[0], parent, name, threading.current_thread().name,
                 frame[1], end)
            )

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Record a ``name`` span around every call of ``owner.attribute``."""
        original = getattr(owner, attribute)
        span = self.span

        def traced(*args, **kwargs):
            with span(name):
                return original(*args, **kwargs)

        setattr(owner, attribute, traced)

    def self_time(self, name: str, thread: Optional[str] = None) -> float:
        """Total self seconds of ``name`` spans (on one thread or all)."""
        with self._lock:
            tables = (
                [self._self.get(thread, {})] if thread else list(self._self.values())
            )
        return sum(table.get(name, (0.0, 0))[0] for table in tables)

    def calls(self, name: str) -> int:
        with self._lock:
            tables = list(self._self.values())
        return sum(int(table.get(name, (0.0, 0))[1]) for table in tables)

    def thread_self_total(self, thread: str) -> float:
        """Sum of every span's self time on one thread."""
        with self._lock:
            table = dict(self._self.get(thread, {}))
        return sum(entry[0] for entry in table.values())

    def dump(self, path) -> None:
        """Write the spans kept in memory, one JSON array per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
