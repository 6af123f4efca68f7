"""Scenario-suite benchmark: every preset, every execution model.

Trains one small detector per corpus (the same service scale as the
serving-throughput bench), sweeps the full scenario library with
:class:`repro.scenarios.ScenarioSuite` — flood, probe-sweep,
imbalance-shift, slow-dos and retrain-recovery under the synchronous,
process-pool (checkpoint-rehydrated child processes) and replica-sharded
execution models, plus the cross-dataset fleet preset on a dataset-routed
two-shard service (inline and with per-shard process pools) — and writes
the per-scenario, per-phase DR/FAR/throughput rows to
``BENCH_scenarios.json`` at the repository root.  That file is the
scenario-regression baseline future PRs diff against, alongside
``BENCH_serving.json``.

The suite additionally exercises the fleet control plane: the ``overload``
preset on an autoscaled replica fleet (recording scaling-event counts and
cross-checking the confusion counts against an uncontrolled run) and the
``rollout-drift`` preset with a checkpoint-rehydrated challenger driven
through the staged canary rollout (recording stage timings and per-stage
DR); and runs the ``retrain-recovery`` preset under a
:class:`repro.serving.lifecycle.DriftSupervisor` (rolling window 512,
inline retrain on the replay buffer) and the baseline records the
lifecycle row: the event timeline (drift detected → retrain → promoted),
the per-batch rolling DR/FAR curves and the recovery time in batches and
seconds.

Hard assertions: for every scenario the execution models must agree on the
confusion counts bit for bit (the serving tier's ordering guarantee), and
every phase of every preset must be attributed.  Quality claims
(``check_claims`` scales only): the flood preset's flood phases keep
DR ≥ 90 % while the benign baseline's FAR stays under 15 %; the slow-dos
low-and-slow phase — 8 % attack mix, far below volumetric thresholds — is
still detected at DR ≥ 80 %; and the supervised retrain-recovery run must
actually recover — promotion happens and the post-swap recovery-window DR
beats the unsupervised (no lifecycle) run's by ≥ 20 points.
"""

import json
from pathlib import Path

from bench_utils import emit
from repro.core import PelicanDetector
from repro.data import NSLKDD_SCHEMA, UNSWNB15_SCHEMA, load_nslkdd, load_unswnb15
from repro.scenarios import ScenarioSuite

BATCH_SIZE = 64
NUM_WORKERS = 2
REPLICA_SHARDS = 2
TRAIN_RECORDS = 500
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_scenarios.json"


def _train(schema, loader, seed):
    detector = PelicanDetector(
        schema, num_blocks=1, epochs=2, batch_size=64, dropout_rate=0.3,
        seed=seed,
    )
    detector.fit(loader(n_records=TRAIN_RECORDS, seed=seed))
    return detector


def _run_suite(seed):
    detectors = {
        "nsl-kdd": _train(NSLKDD_SCHEMA, load_nslkdd, seed),
        "unsw-nb15": _train(UNSWNB15_SCHEMA, load_unswnb15, seed),
    }
    suite = ScenarioSuite(
        detectors,
        batch_size=BATCH_SIZE,
        seed=seed,
        num_workers=NUM_WORKERS,
        replica_shards=REPLICA_SHARDS,
        include_fleet_control=True,
        include_lifecycle=True,
    )
    return suite.run()


def _counts(row):
    overall = row["overall"]
    return (overall["tp"], overall["tn"], overall["fp"], overall["fn"])


def _render(results) -> str:
    lines = [
        "Scenario suite (batch %d, %d workers, %d replica shards)"
        % (results["batch_size"], results["num_workers"], results["replica_shards"]),
        f"{'scenario':<17s} {'model':<16s} {'records':>8s} {'rec/s':>10s} "
        f"{'DR':>7s} {'FAR':>7s} {'ACC':>7s}",
    ]
    for name, entry in results["scenarios"].items():
        for model, row in entry["models"].items():
            overall = row["overall"]
            lines.append(
                f"{name:<17s} {model:<16s} {row['records']:>8d} "
                f"{row['throughput_rps']:>10,.0f} {overall['dr']:>7.2%} "
                f"{overall['far']:>7.2%} {overall['acc']:>7.2%}"
            )
        first = next(iter(entry["models"].values()))
        for phase, quality in first["phases"].items():
            lines.append(
                f"    {phase:<29s} {quality['records']:>8d} {'':>10s} "
                f"{quality['dr']:>7.2%} {quality['far']:>7.2%} "
                f"{quality['acc']:>7.2%}"
            )
    fleet_control = results.get("fleet_control")
    if fleet_control:
        lines.append("fleet control plane (FleetController)")
        for preset in ("overload", "rollout"):
            row = fleet_control[preset]
            lines.append(
                f"  {preset}: {row['report']['records']} rec, "
                f"{row['scaling_events']} scaling events, "
                f"promoted={row['promoted']}, completed={row['completed']}, "
                f"rolled_back={row['rolled_back']}"
            )
            if row["stage_timings_s"]:
                timings = ", ".join(f"{t:.3f}s" for t in row["stage_timings_s"])
                lines.append(f"    stage timings: {timings}")
            for phase, quality in row["report"]["phases"].items():
                lines.append(
                    f"    {phase:<29s} {quality['records']:>8d} {'':>10s} "
                    f"{quality['dr']:>7.2%} {quality['far']:>7.2%} "
                    f"{quality['acc']:>7.2%}"
                )
    lifecycle = results.get("lifecycle")
    if lifecycle:
        lines.append(
            "lifecycle (retrain-recovery under DriftSupervisor, "
            f"window {lifecycle['window']})"
        )
        for event in lifecycle["events"]:
            detail = ", ".join(
                f"{k}={v}" for k, v in event["detail"].items()
            )
            lines.append(
                f"    batch {event['batch_index']:>3d} "
                f"({event['records_seen']:>6d} rec) {event['kind']}"
                + (f"  [{detail}]" if detail else "")
            )
        if lifecycle["promoted"]:
            lines.append(
                f"    recovery: {lifecycle['recovery_batches']} batches, "
                f"{lifecycle['recovery_seconds']:.2f}s"
            )
        for phase, quality in lifecycle["report"]["phases"].items():
            lines.append(
                f"    {phase:<29s} {quality['records']:>8d} {'':>10s} "
                f"{quality['dr']:>7.2%} {quality['far']:>7.2%} "
                f"{quality['acc']:>7.2%}"
            )
    return "\n".join(lines)


def test_scenario_suite(run_once, seed, check_claims):
    results = run_once(_run_suite, seed)
    emit(_render(results))
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")

    scenarios = results["scenarios"]
    assert set(scenarios) == {
        "flood", "probe-sweep", "imbalance-shift", "slow-dos",
        "retrain-recovery", "fleet",
    }
    for name, entry in scenarios.items():
        rows = entry["models"]
        assert len(rows) >= 2, f"{name}: fewer than two execution models"
        counts = {_counts(row) for row in rows.values()}
        assert len(counts) == 1, (
            f"{name}: execution models disagree on the confusion counts"
        )
        for model, row in rows.items():
            assert row["records"] == entry["total_records"], (
                f"{name}/{model}: dropped records"
            )
            phase_total = sum(q["records"] for q in row["phases"].values())
            assert phase_total == entry["total_records"], (
                f"{name}/{model}: phase attribution lost records"
            )

    fleet_control = results["fleet_control"]
    overload = fleet_control["overload"]
    assert overload["report"]["records"] == overload["total_records"], (
        "autoscaled overload run dropped records"
    )
    assert overload["scaling_events"] >= 1, (
        "the overload preset never forced a scaling event"
    )
    assert overload["counts_equal_uncontrolled"], (
        "autoscaling moved the confusion counts"
    )
    rollout = fleet_control["rollout"]
    assert rollout["report"]["records"] == rollout["total_records"], (
        "staged rollout run dropped records"
    )
    assert rollout["promoted"] and rollout["completed"], (
        f"staged rollout did not complete: {rollout['events']}"
    )
    swaps = rollout["event_counts"].get("swap", 0)
    assert swaps == REPLICA_SHARDS, (
        f"expected {REPLICA_SHARDS} stage swaps, saw {swaps}"
    )
    assert len(rollout["stage_timings_s"]) == swaps - 1
    assert all(t >= 0.0 for t in rollout["stage_timings_s"])

    lifecycle = results["lifecycle"]
    assert lifecycle["report"]["records"] == lifecycle["total_records"], (
        "lifecycle run dropped records across the hot-swap"
    )
    assert len(lifecycle["dr_curve"]) == lifecycle["total_batches"]

    if check_claims:
        assert lifecycle["triggered"] and lifecycle["promoted"], (
            f"drift supervisor never recovered: {lifecycle['events']}"
        )
        unsupervised_dr = scenarios["retrain-recovery"]["models"][
            "synchronous"
        ]["phases"]["recovery-window"]["dr"]
        supervised_dr = lifecycle["report"]["phases"]["recovery-window"]["dr"]
        assert supervised_dr >= unsupervised_dr + 0.20, (
            f"supervised recovery-window DR {supervised_dr:.2%} does not "
            f"beat the unsupervised {unsupervised_dr:.2%} by 20 points"
        )

        flood = scenarios["flood"]["models"]["synchronous"]["phases"]
        for phase in ("syn-flood", "udp-flood", "http-flood"):
            assert flood[phase]["dr"] >= 0.90, (
                f"flood {phase}: DR {flood[phase]['dr']:.2%} below 90%"
            )
        assert flood["benign-baseline"]["far"] <= 0.15, (
            f"flood baseline FAR {flood['benign-baseline']['far']:.2%} above 15%"
        )
        slow = scenarios["slow-dos"]["models"]["synchronous"]["phases"]
        assert slow["low-and-slow"]["dr"] >= 0.80, (
            "slow-rate DoS went undetected: DR "
            f"{slow['low-and-slow']['dr']:.2%} below 80%"
        )
