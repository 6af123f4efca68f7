"""Cross-dataset stream interleaving for multi-detector fleets.

The paper evaluates NSL-KDD and UNSW-NB15 with separately trained
detectors; a deployment runs both behind one front door and routes each
submission to the detector trained on its sensor's schema.
:class:`InterleavedStream` produces that workload: it round-robins the
batches of several single-schema :class:`~repro.data.generator.TrafficStream`
drivers into one feed, re-numbering the global batch index and prefixing
every phase label with its corpus name (``nsl-kdd:syn-flood``) so per-phase
reports stay separable after the merge.

The feed plugs straight into a dataset-routed
:class:`~repro.serving.sharding.ShardedDetectionService`: the router reads
``records.schema.name`` per submission, so every batch lands on the shard
fitted for its corpus.  Like the underlying streams, an interleaved stream
is deterministic and re-iterable — every iteration replays the identical
batch sequence.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

from ..core.detector import PelicanDetector
from ..data.generator import StreamBatch, TrafficGenerator, TrafficStream
from ..serving.service import DetectionService
from ..serving.sharding import ShardedDetectionService, ShardRouter
from .builder import Constant, Drift, Scenario, Segment

__all__ = [
    "InterleavedStream",
    "build_fleet_service",
    "validate_detector_keys",
    "overload_scenario",
    "rollout_drift_scenario",
]


def validate_detector_keys(detectors: Mapping[str, PelicanDetector]) -> None:
    """Check every detector is keyed by the schema name it was fitted on."""
    for name, detector in detectors.items():
        if detector.schema.name != name:
            raise ValueError(
                f"detector keyed {name!r} was fitted on schema "
                f"{detector.schema.name!r}"
            )


class InterleavedStream:
    """Round-robin interleaving of several :class:`TrafficStream` drivers.

    Parameters
    ----------
    streams:
        The single-schema streams to interleave.  They may have different
        lengths; once a stream is exhausted the remaining ones keep taking
        turns.
    names:
        Per-stream label prefixed onto phase names (default: the stream's
        schema name, suffixed with ``#index`` when duplicated).
    """

    def __init__(
        self,
        streams: Sequence[TrafficStream],
        names: Optional[Sequence[str]] = None,
    ) -> None:
        if not streams:
            raise ValueError("an interleaved stream needs at least one stream")
        self.streams = list(streams)
        if names is None:
            names = [stream.schema.name for stream in self.streams]
            seen: Dict[str, int] = {}
            for index, name in enumerate(names):
                count = seen.get(name, 0)
                if count:
                    names[index] = f"{name}#{count}"
                seen[name] = count + 1
        elif len(names) != len(self.streams):
            raise ValueError("names must be index-aligned with streams")
        self.names = list(names)

    @property
    def schemas(self):
        return [stream.schema for stream in self.streams]

    @property
    def total_batches(self) -> int:
        return sum(stream.total_batches for stream in self.streams)

    @property
    def total_records(self) -> int:
        return sum(stream.total_records for stream in self.streams)

    def __iter__(self) -> Iterator[StreamBatch]:
        return self.batches()

    def batches(self) -> Iterator[StreamBatch]:
        """Yield the interleaved batches (deterministic and re-iterable)."""
        iterators: List[Optional[Iterator[StreamBatch]]] = [
            stream.batches() for stream in self.streams
        ]
        index = 0
        while any(iterator is not None for iterator in iterators):
            for position, iterator in enumerate(iterators):
                if iterator is None:
                    continue
                try:
                    batch = next(iterator)
                except StopIteration:
                    iterators[position] = None
                    continue
                yield replace(
                    batch,
                    phase=f"{self.names[position]}:{batch.phase}",
                    index=index,
                )
                index += 1


def build_fleet_service(
    detectors: Mapping[str, PelicanDetector],
    **service_kwargs,
) -> ShardedDetectionService:
    """One dataset-routed shard per fitted detector, keyed by schema name.

    ``detectors`` maps dataset name (``"nsl-kdd"``, ``"unsw-nb15"``) to a
    fitted detector; the returned
    :class:`~repro.serving.sharding.ShardedDetectionService` routes every
    submission to the shard whose detector was trained on that schema, and
    raises on traffic from a corpus no detector covers (routing gaps fail
    loudly).  Extra keyword arguments go to each shard's
    :class:`~repro.serving.service.DetectionService`.
    """
    if not detectors:
        raise ValueError("a fleet needs at least one detector")
    validate_detector_keys(detectors)
    names = list(detectors)
    shards = [
        DetectionService(detectors[name], **service_kwargs) for name in names
    ]
    router = ShardRouter(
        len(names),
        "dataset",
        assignment={name: index for index, name in enumerate(names)},
    )
    return ShardedDetectionService(shards, router, names=names)


def overload_scenario(
    generator: TrafficGenerator,
    batch_size: int = 64,
    seed: int = 0,
    attack_class: Optional[str] = None,
    calm_batches: int = 4,
    surge_batches: int = 10,
    cooldown_batches: int = 4,
    attack_fraction: float = 0.5,
) -> TrafficStream:
    """Calm → sustained surge → cooldown: the autoscaling workload.

    A light benign warm-up, then a long flood-intensity surge (hinted at
    ``RATE_FLOOD``) that keeps every worker saturated, then a calm tail.
    Served through a :class:`~repro.serving.fleet.FleetController` with an
    :class:`~repro.serving.fleet.AutoscalePolicy`, the surge drives pool
    backlog above the scale-up threshold and the cooldown lets it drain
    below the scale-down threshold — the preset that forces both edges of
    the control loop.  The class mix itself is ordinary flood traffic, so
    reports stay comparable with :func:`~repro.scenarios.flood_scenario`
    runs.
    """
    from .presets import RATE_BASELINE, RATE_FLOOD, _pick_attack

    if not 0.0 < attack_fraction < 1.0:
        raise ValueError("attack_fraction must be in (0, 1)")
    normal = generator.schema.normal_class
    attack = _pick_attack(generator, attack_class, ("dos",), "attack")
    benign = {normal: 1.0}
    surge = {normal: 1.0 - attack_fraction, attack: attack_fraction}
    scenario = Scenario(
        "overload",
        (
            Segment("calm", calm_batches, Constant(benign),
                    rate_hint=RATE_BASELINE),
            Segment("surge", surge_batches, Constant(surge),
                    rate_hint=RATE_FLOOD),
            Segment("cooldown", cooldown_batches, Constant(benign),
                    rate_hint=RATE_BASELINE),
        ),
    )
    return scenario.build(generator, batch_size=batch_size, seed=seed)


def rollout_drift_scenario(
    generator: TrafficGenerator,
    batch_size: int = 64,
    seed: int = 0,
    attack_class: Optional[str] = None,
    baseline_batches: int = 6,
    onset_batches: int = 4,
    hold_batches: int = 24,
    attack_fraction: float = 0.3,
    drift_to: float = 3.5,
) -> TrafficStream:
    """Aimed evasion drift with a hold long enough for a staged rollout.

    The :func:`~repro.scenarios.retrain_recovery_scenario` shape — steady
    mixed feed, covariate shift aimed along the generator's evasion
    direction, then a long degraded hold — but with the hold stretched to
    span a full :class:`~repro.serving.fleet.FleetController` rollout:
    shadow trial on the canary shard, staggered shard-by-shard swaps, and
    the post-swap watch window, all under the *same* drifted distribution
    so the promotion gate and the rollback floor judge like against like.
    """
    from .presets import RATE_BASELINE, _pick_attack

    if not 0.0 < attack_fraction < 1.0:
        raise ValueError("attack_fraction must be in (0, 1)")
    if drift_to <= 0.0:
        raise ValueError("drift_to must be positive (this is a drift scenario)")
    normal = generator.schema.normal_class
    attack = _pick_attack(generator, attack_class, ("dos",), "attack")
    mixed = {normal: 1.0 - attack_fraction, attack: attack_fraction}
    scenario = Scenario(
        "rollout-drift",
        (
            Segment("baseline", baseline_batches, Constant(mixed),
                    rate_hint=RATE_BASELINE),
            Segment("drift-onset", onset_batches, Constant(mixed),
                    drift=Drift(to=drift_to), rate_hint=RATE_BASELINE),
            Segment("rollout-hold", hold_batches, Constant(mixed),
                    rate_hint=RATE_BASELINE),
        ),
    )
    return scenario.build(
        generator,
        batch_size=batch_size,
        seed=seed,
        drift_direction=generator.evasion_direction(attack),
    )
