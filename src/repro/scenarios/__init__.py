"""``repro.scenarios`` — the composable streaming-workload library.

Scenarios are the workloads the serving tier is judged against: seeded,
re-iterable traffic episodes mixing benign and attack classes the way the
DDoS literature's replayed-PCAP load tests do (cf. the dpdk_100g attack
generator: flood variants, low-and-slow attacks, configurable
benign/attack mixing ratios).  The package splits into four pieces:

* :mod:`repro.scenarios.builder` — declare scenarios as data:
  :class:`Segment` values pairing a name and batch budget with a mix
  schedule (:class:`Constant` / :class:`Ramp` / :class:`Spike`), an
  optional :class:`Drift` schedule (threaded across segments) and an
  advisory rate hint; :class:`Scenario` compiles them into the
  :class:`~repro.data.generator.StreamPhase` list a deterministic
  :class:`~repro.data.generator.TrafficStream` executes.
* :mod:`repro.scenarios.presets` — the library: :func:`flood_scenario`,
  :func:`probe_sweep_scenario`, :func:`imbalance_shift_scenario`,
  :func:`slow_dos_scenario`, the lifecycle-tier
  :func:`retrain_recovery_scenario` (pure covariate drift that degrades a
  deployed detector) and the cross-dataset :func:`fleet_scenario`.
* :mod:`repro.scenarios.fleet` — :class:`InterleavedStream` (round-robin
  multi-corpus feeds) and :func:`build_fleet_service` (one dataset-routed
  detector shard per corpus).
* :mod:`repro.scenarios.suite` — :class:`ScenarioSuite`, which sweeps
  every preset through the synchronous, process-pool and sharded execution
  models and produces the ``BENCH_scenarios.json`` regression rows.

Authoring guide, preset table and the determinism/re-iterability
guarantees: ``docs/SCENARIOS.md``.
"""

from .builder import (
    Constant,
    Drift,
    Mix,
    MixSchedule,
    Ramp,
    Scenario,
    ScenarioBuilder,
    Segment,
    Spike,
)
from .fleet import (
    InterleavedStream,
    build_fleet_service,
    build_replica_fleet,
    overload_scenario,
    rollout_drift_scenario,
)
from .presets import (
    EVENT_STREAM_PRESETS,
    RATE_BASELINE,
    RATE_FLOOD,
    RATE_SLOW,
    SINGLE_STREAM_PRESETS,
    fleet_scenario,
    flood_scenario,
    imbalance_shift_scenario,
    probe_sweep_scenario,
    retrain_recovery_scenario,
    slow_dos_scenario,
    syn_flood_event_scenario,
)
from .suite import ScenarioSuite, report_row

__all__ = [
    "Mix",
    "MixSchedule",
    "Constant",
    "Ramp",
    "Spike",
    "Drift",
    "Segment",
    "Scenario",
    "ScenarioBuilder",
    "InterleavedStream",
    "build_fleet_service",
    "build_replica_fleet",
    "overload_scenario",
    "rollout_drift_scenario",
    "flood_scenario",
    "probe_sweep_scenario",
    "imbalance_shift_scenario",
    "slow_dos_scenario",
    "retrain_recovery_scenario",
    "fleet_scenario",
    "syn_flood_event_scenario",
    "SINGLE_STREAM_PRESETS",
    "EVENT_STREAM_PRESETS",
    "RATE_BASELINE",
    "RATE_FLOOD",
    "RATE_SLOW",
    "ScenarioSuite",
    "report_row",
]
