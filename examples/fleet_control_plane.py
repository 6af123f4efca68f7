#!/usr/bin/env python3
"""Fleet control plane: autoscaling and a staged canary rollout.

Builds on ``examples/concurrent_serving.py`` — same corpus, same seeded
scenario style — and drives a replica fleet through the two control loops
of :class:`repro.serving.FleetController`:

1. **Backlog-driven autoscaling** — the overload preset (calm →
   sustained surge → cooldown) served on a two-shard replica fleet whose
   per-shard worker pools start at one child process.  At every stream
   batch boundary the controller polls each pool's
   :class:`repro.serving.PoolStats`, reads its backlog per worker and
   resizes between the :class:`repro.serving.AutoscalePolicy` bounds;
   every decision lands in the run's event log.  The run's confusion
   counts are then checked against an uncontrolled fixed-size run
   (autoscaling is invisible in reports), and the *recorded schedule* is
   replayed to show the run reproduces decision for decision.
2. **Staged canary rollout** — a challenger rehydrated from a
   :class:`repro.serving.DetectorCheckpoint` shadows the canary shard's
   traffic on the rollout-drift preset, passes the
   :class:`repro.serving.ShadowComparison` gate, and is hot-swapped shard
   by shard with a stagger while the controller watches post-swap rolling
   DR.  A second, deliberately broken challenger then demonstrates the
   rollback path: it promotes through a permissive gate, collapses DR,
   and every already-swapped shard reverts to its primary.

Run with::

    python examples/fleet_control_plane.py
"""

from repro.core import PelicanDetector
from repro.data import NSLKDD_SCHEMA, load_nslkdd, nslkdd_generator
from repro.scenarios import overload_scenario, rollout_drift_scenario
from repro.serving import (
    AutoscalePolicy,
    DetectorCheckpoint,
    FleetController,
    RolloutPolicy,
    ShardedDetectionService,
)


def counts(report):
    rolling = report.rolling
    return (rolling.tp, rolling.tn, rolling.fp, rolling.fn)


def print_events(outcome) -> None:
    for event in outcome.events:
        print(f"    {event}")


def build_fleet(detector):
    return ShardedDetectionService.replicated(
        detector, 2, max_batch_size=64, flush_interval=0.0, window=1 << 20
    )


def poisoned_challenger(detector):
    """A checkpoint-rehydrated challenger with its head zeroed out: it
    predicts the normal class for everything, so post-swap DR collapses."""
    challenger = DetectorCheckpoint.capture(detector).restore()
    head = challenger.network.layers[-1]
    normal_index = challenger.preprocessor.normal_index
    head.kernel.data[...] = 0.0
    head.bias.data[...] = 0.0
    head.bias.data[normal_index] = 10.0
    return challenger


def main() -> None:
    train_records = load_nslkdd(n_records=800, seed=1)
    detector = PelicanDetector(
        NSLKDD_SCHEMA, num_blocks=2, epochs=5, batch_size=96,
        dropout_rate=0.3, seed=0,
    )
    print(f"training on {len(train_records)} records ...")
    detector.fit(train_records, verbose=1)
    generator = nslkdd_generator()

    # ------------------------------------------------------------------ #
    print("\n=== 1. backlog-driven autoscaling (overload preset) ===")
    stream = overload_scenario(generator, batch_size=96, seed=3)
    controller = FleetController(
        build_fleet(detector),
        num_workers=1,
        autoscale=AutoscalePolicy(
            min_workers=1, max_workers=3,
            scale_up_backlog=0.01, scale_down_backlog=0.005,
        ),
    )
    outcome = controller.run_stream(stream)
    print(f"  {len(outcome.events)} fleet events:")
    print_events(outcome)

    baseline = build_fleet(detector).run_stream(stream)
    print(f"  autoscaled counts:   {counts(outcome.report)}")
    print(f"  uncontrolled counts: {counts(baseline)}")
    assert counts(outcome.report) == counts(baseline)

    replayed = FleetController(
        build_fleet(detector), num_workers=1, schedule=outcome.schedule()
    ).run_stream(stream)
    assert counts(replayed.report) == counts(outcome.report)
    assert replayed.schedule() == outcome.schedule()
    print("  replaying the recorded schedule reproduces the run bit for bit")

    # ------------------------------------------------------------------ #
    print("\n=== 2. staged canary rollout (rollout-drift preset) ===")
    rollout_stream = rollout_drift_scenario(generator, batch_size=96, seed=5)
    fleet = build_fleet(detector)
    controller = FleetController(
        fleet, num_workers=2,
        rollout=RolloutPolicy(
            shadow_batches=3, stagger_batches=2, min_watch_records=64
        ),
    )
    challenger = DetectorCheckpoint.capture(detector).restore()
    controller.request_rollout(challenger)
    outcome = controller.run_stream(rollout_stream)
    print_events(outcome)
    assert outcome.promoted and outcome.completed
    assert all(shard.detector is challenger for shard in fleet.shards)
    print("  challenger serving on every shard")

    # ------------------------------------------------------------------ #
    print("\n=== 3. automatic rollback on post-swap DR collapse ===")
    fleet = build_fleet(detector)
    primaries = [shard.detector for shard in fleet.shards]
    controller = FleetController(
        fleet, num_workers=2,
        rollout=RolloutPolicy(
            shadow_batches=2, stagger_batches=1,
            # Permissive gate: the broken challenger gets promoted, so the
            # post-swap watch (DR floor 0.5) has something to catch.
            min_dr_gain=-1.0, max_far_regression=1.0,
            dr_floor=0.5, min_watch_records=200,
        ),
    )
    controller.request_rollout(poisoned_challenger(detector))
    outcome = controller.run_stream(rollout_stream)
    print_events(outcome)
    assert outcome.rolled_back and not outcome.completed
    assert [shard.detector for shard in fleet.shards] == primaries
    print("  every swapped shard reverted to its primary")


if __name__ == "__main__":
    main()
