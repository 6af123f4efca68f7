"""Class-conditional synthetic traffic generator.

The published evaluation uses the NSL-KDD and UNSW-NB15 corpora, which cannot
be redistributed with this reproduction.  The generator in this module
replaces them with a *class-conditional generative model* that preserves the
statistical structure the paper's experiments exercise:

* each traffic class (normal, DoS, probe, ...) has its own prototype in the
  numeric feature space plus a class-specific low-rank covariance, so classes
  form separable but overlapping clusters;
* heavy-tailed counters (bytes, durations, packet counts) are produced by
  exponentiating the latent values, mirroring the log-normal marginals of the
  real datasets;
* categorical columns (protocol, service, TCP state/flag) follow per-class
  multinomial distributions, so one-hot encoding yields genuinely informative
  sparse features;
* a configurable *ambiguity* fraction of records is drawn from the pooled
  mixture instead of the class conditional, producing the irreducible error
  that keeps accuracy away from 100 % (substantially higher for UNSW-NB15,
  which is the harder dataset in the paper);
* class priors reproduce the heavy imbalance of the originals (U2R and Worms
  are vanishingly rare).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Sequence

import numpy as np

from .dataset import TrafficRecords
from .schema import DatasetSchema

__all__ = [
    "DifficultyProfile",
    "TrafficGenerator",
    "StreamPhase",
    "StreamBatch",
    "TrafficStream",
]


@dataclass(frozen=True)
class DifficultyProfile:
    """Knobs controlling how hard the synthetic classification problem is.

    Parameters
    ----------
    separation:
        Distance between the normal-traffic prototype and the centre of the
        attack cluster.  This controls the binary attack-vs-normal difficulty
        (detection rate and false-alarm rate).
    family_spread:
        Distance of each attack family's prototype from the attack-cluster
        centre.  This controls how confusable the attack classes are *among
        themselves* (multi-class accuracy) without affecting the binary
        problem much — the key structural property of UNSW-NB15, where the
        paper reports DR ≈ 98 % and FAR ≈ 1.3 % but only ≈ 86 % accuracy.
    latent_rank:
        Number of latent factors behind the numeric features; controls how
        correlated the columns are within a class.
    noise_scale:
        Standard deviation of the per-feature idiosyncratic noise.
    ambiguity:
        Fraction of records whose numeric features are drawn from the pooled
        (class-agnostic) distribution.  These records carry little usable
        signal and bound the achievable accuracy.
    categorical_concentration:
        Dirichlet concentration of the per-class categorical distributions.
        Small values give each class a few dominant category values (highly
        informative); large values make the categorical columns uninformative.
    categorical_noise:
        Probability that a categorical value is resampled uniformly at random,
        independent of the class.
    """

    separation: float = 2.5
    family_spread: float = 2.0
    latent_rank: int = 6
    noise_scale: float = 1.0
    ambiguity: float = 0.02
    categorical_concentration: float = 0.3
    categorical_noise: float = 0.05

    def __post_init__(self) -> None:
        if self.separation <= 0:
            raise ValueError("separation must be positive")
        if self.family_spread < 0:
            raise ValueError("family_spread must be non-negative")
        if self.latent_rank <= 0:
            raise ValueError("latent_rank must be positive")
        if not 0.0 <= self.ambiguity < 1.0:
            raise ValueError("ambiguity must be in [0, 1)")
        if not 0.0 <= self.categorical_noise < 1.0:
            raise ValueError("categorical_noise must be in [0, 1)")
        if self.categorical_concentration <= 0:
            raise ValueError("categorical_concentration must be positive")


class TrafficGenerator:
    """Generate :class:`TrafficRecords` for a dataset schema.

    The generator is deterministic given ``(schema, profile, seed)``: the
    class prototypes, covariance loadings and categorical distributions are
    drawn once at construction time from a dedicated generator so that
    different sample sizes share the same underlying population.
    """

    def __init__(
        self,
        schema: DatasetSchema,
        profile: Optional[DifficultyProfile] = None,
        seed: int = 0,
        class_priors: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.schema = schema
        self.profile = profile or DifficultyProfile()
        self.seed = seed
        self._population_rng = np.random.default_rng(seed)
        priors = dict(class_priors or schema.class_priors)
        missing = [c for c in schema.classes if c not in priors]
        if missing:
            raise ValueError(f"class priors missing for {missing}")
        total = float(sum(priors.values()))
        self.class_priors = {name: priors[name] / total for name in schema.classes}
        self._build_population()

    # ------------------------------------------------------------------ #
    # Population construction
    # ------------------------------------------------------------------ #
    def _build_population(self) -> None:
        rng = self._population_rng
        profile = self.profile
        n_numeric = len(self.schema.numeric_features)
        n_classes = len(self.schema.classes)

        # Shared baseline profile (what "typical traffic" looks like).  Normal
        # traffic sits at the baseline; attack families form a cluster whose
        # centre is `separation` away from normal, and each family sits
        # `family_spread` away from that centre.  This mirrors the structure
        # of the real corpora: attacks are distinguishable from normal traffic
        # (binary DR/FAR) but attack families overlap each other
        # (multi-class accuracy).
        baseline = rng.normal(0.0, 1.0, size=n_numeric)

        def unit_direction() -> np.ndarray:
            direction = rng.normal(0.0, 1.0, size=n_numeric)
            return direction / max(np.linalg.norm(direction) / np.sqrt(n_numeric), 1e-12)

        attack_centre = baseline + profile.separation * unit_direction()
        self._class_means: Dict[str, np.ndarray] = {}
        self._class_loadings: Dict[str, np.ndarray] = {}
        for class_name in self.schema.classes:
            if class_name == self.schema.normal_class:
                self._class_means[class_name] = baseline
            else:
                self._class_means[class_name] = (
                    attack_centre + profile.family_spread * unit_direction()
                )
            loadings = rng.normal(
                0.0, 1.0, size=(profile.latent_rank, n_numeric)
            ) / np.sqrt(profile.latent_rank)
            self._class_loadings[class_name] = loadings

        # The pooled mean/covariance used for "ambiguous" records.
        self._pooled_mean = np.mean(
            [self._class_means[c] for c in self.schema.classes], axis=0
        )
        self._pooled_loadings = rng.normal(
            0.0, 1.0, size=(profile.latent_rank, n_numeric)
        ) / np.sqrt(profile.latent_rank)

        # Per-class categorical distributions drawn from a Dirichlet prior.
        self._categorical_tables: Dict[str, Dict[str, np.ndarray]] = {}
        for feature in self.schema.categorical_features:
            per_class: Dict[str, np.ndarray] = {}
            for class_name in self.schema.classes:
                concentration = np.full(
                    feature.cardinality, profile.categorical_concentration
                )
                per_class[class_name] = rng.dirichlet(concentration)
            self._categorical_tables[feature.name] = per_class

        self._lognormal_mask = np.array(
            [feature.distribution == "lognormal" for feature in self.schema.numeric_features]
        )

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def _sample_numeric(
        self, class_name: str, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        profile = self.profile
        n_numeric = len(self.schema.numeric_features)

        latent = rng.normal(0.0, 1.0, size=(count, profile.latent_rank))
        values = (
            self._class_means[class_name]
            + latent @ self._class_loadings[class_name]
            + rng.normal(0.0, profile.noise_scale, size=(count, n_numeric))
        )

        if profile.ambiguity > 0.0:
            ambiguous = rng.random(count) < profile.ambiguity
            n_ambiguous = int(ambiguous.sum())
            if n_ambiguous:
                latent_ambiguous = rng.normal(0.0, 1.0, size=(n_ambiguous, profile.latent_rank))
                values[ambiguous] = (
                    self._pooled_mean
                    + latent_ambiguous @ self._pooled_loadings
                    + rng.normal(
                        0.0, profile.noise_scale * 1.5, size=(n_ambiguous, n_numeric)
                    )
                )

        # Heavy-tailed counters: exponentiate (and keep the scale moderate so
        # standardisation in preprocessing behaves like it does on real data).
        if self._lognormal_mask.any():
            values[:, self._lognormal_mask] = np.exp(
                np.clip(values[:, self._lognormal_mask], -10.0, 10.0)
            )
        return values

    def _sample_categorical(
        self, class_name: str, count: int, rng: np.random.Generator
    ) -> Dict[str, np.ndarray]:
        profile = self.profile
        columns: Dict[str, np.ndarray] = {}
        for feature in self.schema.categorical_features:
            probabilities = self._categorical_tables[feature.name][class_name]
            choices = rng.choice(feature.cardinality, size=count, p=probabilities)
            if profile.categorical_noise > 0.0:
                noisy = rng.random(count) < profile.categorical_noise
                n_noisy = int(noisy.sum())
                if n_noisy:
                    choices[noisy] = rng.integers(0, feature.cardinality, size=n_noisy)
            values = np.asarray(feature.values, dtype=object)[choices]
            columns[feature.name] = values
        return columns

    def sample_class(
        self, class_name: str, count: int, rng: Optional[np.random.Generator] = None
    ) -> TrafficRecords:
        """Generate ``count`` records of a single class."""
        if class_name not in self.schema.classes:
            raise ValueError(
                f"unknown class {class_name!r}; schema classes: {self.schema.classes}"
            )
        if count <= 0:
            raise ValueError("count must be positive")
        rng = rng or np.random.default_rng(self._population_rng.integers(0, 2**63 - 1))
        return TrafficRecords(
            schema=self.schema,
            numeric=self._sample_numeric(class_name, count, rng),
            categorical=self._sample_categorical(class_name, count, rng),
            labels=np.array([class_name] * count, dtype=object),
        )

    def evasion_direction(self, attack_class: Optional[str] = None) -> np.ndarray:
        """Unit drift direction pointing from the attack cluster towards normal.

        Shifting traffic along this direction is the *evasion* covariate
        drift: attack records migrate into the feature region the detector
        learned as benign, so DR degrades while FAR stays put — unlike a
        random drift direction, whose effect depends on which side of the
        decision boundary it happens to point at.  ``attack_class`` narrows
        the origin to one family; by default the attack-cluster centre
        (mean of all attack prototypes) is used.

        Heavy-tailed (lognormal) feature components are zeroed: those
        columns live on an exponentiated scale where a prototype-space
        offset does not translate, so the direction stays meaningful in
        record space.  Normalised like the stream's internal drift
        direction (norm ``sqrt(n_numeric)``), so ``drift_scale`` values are
        comparable between the two.
        """
        if attack_class is not None:
            if attack_class not in self.schema.attack_classes:
                raise ValueError(
                    f"unknown attack class {attack_class!r}; choices: "
                    f"{self.schema.attack_classes}"
                )
            origin = self._class_means[attack_class]
        else:
            origin = np.mean(
                [self._class_means[c] for c in self.schema.attack_classes],
                axis=0,
            )
        direction = self._class_means[self.schema.normal_class] - origin
        direction = np.where(self._lognormal_mask, 0.0, direction)
        n_numeric = len(direction)
        return direction / max(
            np.linalg.norm(direction) / np.sqrt(n_numeric), 1e-12
        )

    def sample(
        self,
        n_records: int,
        seed: Optional[int] = None,
        min_per_class: int = 2,
    ) -> TrafficRecords:
        """Generate a mixed batch of ``n_records`` following the class priors.

        ``min_per_class`` guarantees that even the rarest classes (U2R in
        NSL-KDD, Worms in UNSW-NB15) appear at least a couple of times in
        small evaluation subsets, matching how the paper's k-fold splits always
        contain a handful of rare-attack records.
        """
        if n_records <= 0:
            raise ValueError("n_records must be positive")
        rng = np.random.default_rng(
            seed if seed is not None else self._population_rng.integers(0, 2**63 - 1)
        )

        class_names = list(self.schema.classes)
        priors = np.array([self.class_priors[name] for name in class_names])
        counts = np.floor(priors * n_records).astype(int)
        counts = np.maximum(counts, min(min_per_class, max(n_records // len(class_names), 1)))
        # Adjust the most common class so the totals add up.
        counts[int(np.argmax(counts))] += n_records - int(counts.sum())
        if counts.min() <= 0:
            raise ValueError(
                "n_records is too small to represent every class; "
                f"need at least {len(class_names) * min_per_class} records"
            )

        parts = [
            self.sample_class(name, int(count), rng)
            for name, count in zip(class_names, counts)
        ]
        return TrafficRecords.concatenate(parts).shuffled(rng)


# ---------------------------------------------------------------------- #
# Streaming scenarios
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class StreamPhase:
    """One episode of a :class:`TrafficStream` scenario.

    Parameters
    ----------
    name:
        Label attached to every batch of the phase (used by the serving
        layer's per-phase monitoring).
    batches:
        Number of record batches the phase emits.
    mix:
        Mapping ``class name -> weight`` describing the traffic composition
        at the start of the phase; weights are normalised, classes omitted
        get weight zero.
    end_mix:
        Optional composition at the *end* of the phase.  When given, the mix
        is linearly interpolated batch-by-batch — this is how gradual drift
        scenarios (e.g. an attack slowly ramping up inside benign traffic)
        are expressed.
    drift_scale:
        Magnitude of a gradual covariate shift applied to the numeric
        features: batch ``i`` is offset by ``drift_start + drift_scale *
        progress`` along a fixed random direction drawn from the stream's
        seed, where progress ramps 0 → 1 across the phase.  This models the
        feature drift that degrades a deployed detector without any label
        change.
    drift_start:
        Baseline drift offset the phase starts from.  A phase following a
        drift ramp can keep the accumulated shift (covariate drift does not
        undo itself when the ramp ends) by starting where the previous phase
        finished; :mod:`repro.scenarios` threads this automatically.
    rate_hint:
        Advisory target rate in records/second for replay-style pacing.
        Ignored by :class:`TrafficStream` itself (batches are emitted as fast
        as the consumer pulls them) but carried through so load harnesses and
        the scenario suite can report the intended intensity — the
        low-PPS/flood distinction of the dpdk_100g attack generator.
    """

    name: str
    batches: int
    mix: Mapping[str, float]
    end_mix: Optional[Mapping[str, float]] = None
    drift_scale: float = 0.0
    drift_start: float = 0.0
    rate_hint: Optional[float] = None

    def __post_init__(self) -> None:
        if self.batches <= 0:
            raise ValueError("a stream phase must emit at least one batch")
        for mapping in (self.mix, self.end_mix):
            if mapping is None:
                continue
            if not mapping:
                raise ValueError("a phase mix cannot be empty")
            if any(weight < 0 for weight in mapping.values()):
                raise ValueError("mix weights must be non-negative")
            if sum(mapping.values()) <= 0:
                raise ValueError("mix weights must sum to a positive value")
        if self.drift_scale < 0:
            raise ValueError("drift_scale must be non-negative")
        if self.drift_start < 0:
            raise ValueError("drift_start must be non-negative")
        if self.rate_hint is not None and self.rate_hint <= 0:
            raise ValueError("rate_hint must be positive when given")


@dataclass(frozen=True)
class StreamBatch:
    """A batch emitted by :class:`TrafficStream`.

    ``index`` is the global batch number, ``phase_index`` the position inside
    the phase, and ``mix`` the resolved (normalised, possibly interpolated)
    class composition the batch was drawn from.
    """

    records: TrafficRecords
    phase: str
    index: int
    phase_index: int
    mix: Dict[str, float]


class TrafficStream:
    """Episodic scenario driver on top of :class:`TrafficGenerator`.

    Emits a deterministic (seeded) sequence of mixed benign/attack record
    batches: a steady benign baseline, flood-style attack bursts at
    configurable mix ratios, and gradual drift.  This is the workload the
    :class:`repro.serving.DetectionService` is exercised under — the
    streaming stand-in for the replayed-PCAP load tests the DDoS literature
    uses.

    The stream is re-iterable: every call to :meth:`batches` (or ``iter``)
    replays exactly the same sequence.
    """

    def __init__(
        self,
        generator: TrafficGenerator,
        phases: Sequence[StreamPhase],
        batch_size: int = 64,
        seed: int = 0,
        drift_direction: Optional[np.ndarray] = None,
    ) -> None:
        if not phases:
            raise ValueError("a TrafficStream needs at least one phase")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        known = set(generator.schema.classes)
        for phase in phases:
            for mapping in (phase.mix, phase.end_mix) if phase.end_mix else (phase.mix,):
                unknown = set(mapping) - known
                if unknown:
                    raise ValueError(
                        f"phase {phase.name!r} references unknown classes: "
                        f"{sorted(unknown)}"
                    )
        self.generator = generator
        self.phases = list(phases)
        self.batch_size = int(batch_size)
        self.seed = int(seed)
        if drift_direction is not None:
            drift_direction = np.asarray(drift_direction, dtype=np.float64)
            n_numeric = len(generator.schema.numeric_features)
            if drift_direction.shape != (n_numeric,):
                raise ValueError(
                    f"drift_direction must have shape ({n_numeric},), got "
                    f"{drift_direction.shape}"
                )
        # None keeps the classic behaviour: a random unit direction drawn
        # from the stream seed.  An explicit direction (e.g.
        # TrafficGenerator.evasion_direction) aims the covariate shift.
        self.drift_direction = drift_direction

    # ------------------------------------------------------------------ #
    @property
    def schema(self) -> DatasetSchema:
        return self.generator.schema

    @property
    def total_batches(self) -> int:
        return sum(phase.batches for phase in self.phases)

    @property
    def total_records(self) -> int:
        return self.total_batches * self.batch_size

    def __iter__(self) -> Iterator[StreamBatch]:
        return self.batches()

    @staticmethod
    def _resolve_mix(
        phase: StreamPhase, progress: float, class_names: Sequence[str]
    ) -> Dict[str, float]:
        mix = {name: float(phase.mix.get(name, 0.0)) for name in class_names}
        if phase.end_mix is not None:
            end = {name: float(phase.end_mix.get(name, 0.0)) for name in class_names}
            mix = {
                name: (1.0 - progress) * mix[name] + progress * end[name]
                for name in class_names
            }
        total = sum(mix.values())
        return {name: weight / total for name, weight in mix.items()}

    def batches(self) -> Iterator[StreamBatch]:
        """Yield the scenario's batches (deterministic for a given seed)."""
        rng = np.random.default_rng(self.seed)
        n_numeric = len(self.schema.numeric_features)
        # The random direction is always drawn so the generator state (and
        # therefore every sampled record) is identical whether or not an
        # explicit direction overrides it.
        drift_direction = rng.normal(0.0, 1.0, size=n_numeric)
        drift_direction /= max(np.linalg.norm(drift_direction) / np.sqrt(n_numeric), 1e-12)
        if self.drift_direction is not None:
            drift_direction = self.drift_direction

        class_names = list(self.schema.classes)
        index = 0
        for phase in self.phases:
            for phase_index in range(phase.batches):
                # Progress ramps 0 -> 1 across the phase; a single-batch phase
                # jumps straight to its end state (otherwise end_mix and
                # drift_scale would be silently ignored).
                if phase.batches == 1:
                    progress = 1.0
                else:
                    progress = phase_index / (phase.batches - 1)
                mix = self._resolve_mix(phase, progress, class_names)
                probabilities = np.array([mix[name] for name in class_names])
                counts = rng.multinomial(self.batch_size, probabilities)
                parts = [
                    self.generator.sample_class(name, int(count), rng)
                    for name, count in zip(class_names, counts)
                    if count > 0
                ]
                records = TrafficRecords.concatenate(parts).shuffled(rng)
                if phase.drift_scale > 0.0 or phase.drift_start != 0.0:
                    offset = phase.drift_start + phase.drift_scale * progress
                    records.numeric = records.numeric + (offset * drift_direction)
                yield StreamBatch(
                    records=records,
                    phase=phase.name,
                    index=index,
                    phase_index=phase_index,
                    mix=mix,
                )
                index += 1

    # ------------------------------------------------------------------ #
    # Preset scenarios live in :mod:`repro.scenarios.presets`; the
    # classmethods below are compatibility wrappers kept so existing call
    # sites (`TrafficStream.flood_scenario(...)`) continue to work unchanged.
    @classmethod
    def flood_scenario(
        cls,
        generator: TrafficGenerator,
        batch_size: int = 64,
        seed: int = 0,
        attack_class: Optional[str] = None,
        baseline_batches: int = 6,
        burst_batches: int = 4,
        attack_fraction: float = 0.7,
        drift_batches: int = 6,
        drift_scale: float = 1.5,
    ) -> "TrafficStream":
        """Preset scenario: benign baseline, three flood bursts, then drift.

        Thin wrapper around :func:`repro.scenarios.flood_scenario` (see its
        docstring); emits exactly the same batches as the pre-refactor
        hand-rolled phase list.
        """
        from ..scenarios.presets import flood_scenario

        return cls._rewrap(
            flood_scenario(
                generator,
                batch_size=batch_size,
                seed=seed,
                attack_class=attack_class,
                baseline_batches=baseline_batches,
                burst_batches=burst_batches,
                attack_fraction=attack_fraction,
                drift_batches=drift_batches,
                drift_scale=drift_scale,
            )
        )

    @classmethod
    def probe_sweep_scenario(
        cls,
        generator: TrafficGenerator,
        batch_size: int = 64,
        seed: int = 0,
        probe_class: Optional[str] = None,
        baseline_batches: int = 4,
        sweep_batches: int = 8,
        scan_batches: int = 3,
        sweep_fraction: float = 0.15,
        scan_fraction: float = 0.5,
    ) -> "TrafficStream":
        """Preset scenario: low-and-slow reconnaissance instead of a flood.

        Thin wrapper around :func:`repro.scenarios.probe_sweep_scenario`
        (see its docstring); emits exactly the same batches as the
        pre-refactor hand-rolled phase list.
        """
        from ..scenarios.presets import probe_sweep_scenario

        return cls._rewrap(
            probe_sweep_scenario(
                generator,
                batch_size=batch_size,
                seed=seed,
                probe_class=probe_class,
                baseline_batches=baseline_batches,
                sweep_batches=sweep_batches,
                scan_batches=scan_batches,
                sweep_fraction=sweep_fraction,
                scan_fraction=scan_fraction,
            )
        )

    def packet_events(self, window: int = 100):
        """Packet-event emission mode: this scenario, lowered to events.

        Returns a :class:`~repro.ingest.EventTrafficStream` wrapping this
        stream — ``event_batches()`` yields each phase as a seeded packet
        trace, while iterating it still yields :class:`StreamBatch` values
        (each trace re-aggregated through a fresh flow extractor) that
        equal this stream's batches bit for bit, so every serving
        execution model consumes it unchanged.
        """
        from ..ingest.lowering import EventTrafficStream

        return EventTrafficStream(self, window=window)

    @classmethod
    def _rewrap(cls, stream: "TrafficStream") -> "TrafficStream":
        """Rebuild a preset's stream as ``cls`` so subclasses stay subclasses
        (the pre-refactor classmethods constructed ``cls(...)`` directly)."""
        if type(stream) is cls:
            return stream
        return cls(
            stream.generator,
            stream.phases,
            batch_size=stream.batch_size,
            seed=stream.seed,
            drift_direction=stream.drift_direction,
        )
