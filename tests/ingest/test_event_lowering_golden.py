"""Seeded golden tests for the packet-event round trip.

Two layers of determinism are locked here:

* **Round trip** — a scenario lowered to packet events and aggregated back
  through the replay-mode extractor reproduces the featurized stream
  **bit for bit**: same numeric float64 payload, same categoricals, same
  labels, same phase/index bookkeeping, on both corpora.  This is the
  contract that lets every serving execution model score the event plane
  with confusion counts identical to the record plane.
* **Goldens** — sha256 digests of the lowered event traces *and* of the
  aggregated feature batches, committed in ``goldens/event_stream_digests
  .json``.  A digest drift means the lowering or the flow table changed
  observable behaviour for existing seeds — which is a compatibility break
  for anyone holding event-plane baselines, and must be deliberate
  (regenerate from the repository root with
  ``PYTHONPATH=src python tests/ingest/test_event_lowering_golden.py``).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.data.nslkdd import nslkdd_generator
from repro.data.unswnb15 import unswnb15_generator
from repro.scenarios import flood_scenario, syn_flood_event_scenario

pytestmark = pytest.mark.ingest

GOLDEN_PATH = Path(__file__).parent / "goldens" / "event_stream_digests.json"

_GENERATORS = {"nsl-kdd": nslkdd_generator, "unsw-nb15": unswnb15_generator}

#: The locked configurations: (name, schema, stream factory).
def _cases():
    return {
        "syn-flood-events/nsl-kdd/bs32/seed7": lambda: syn_flood_event_scenario(
            _GENERATORS["nsl-kdd"](), batch_size=32, seed=7,
            baseline_batches=2, flood_batches=2,
        ),
        "syn-flood-events/unsw-nb15/bs32/seed7": lambda: syn_flood_event_scenario(
            _GENERATORS["unsw-nb15"](), batch_size=32, seed=7,
            baseline_batches=2, flood_batches=2,
        ),
        "flood/nsl-kdd/bs48/seed3": lambda: flood_scenario(
            _GENERATORS["nsl-kdd"](), batch_size=48, seed=3,
            baseline_batches=2, burst_batches=1, drift_batches=2,
        ).packet_events(),
    }


def _f8(array):
    return np.ascontiguousarray(array, dtype="<f8").tobytes()


def _i8(array):
    return np.ascontiguousarray(array, dtype="<i8").tobytes()


def _obj(array):
    return "\x1f".join(str(v) for v in array).encode("utf-8")


def _digest_events(event_stream):
    """sha256 over every lowered packet trace (capture order, all columns)."""
    h = hashlib.sha256()
    for eb in event_stream.event_batches():
        ev = eb.events
        h.update(f"{eb.index}:{eb.phase}:{len(ev)}".encode())
        h.update(_f8(ev.time))
        for name in ("src_host", "dst_host", "src_port", "dst_port"):
            h.update(_i8(getattr(ev, name)))
        h.update(_f8(ev.size))
        h.update(ev.direction.astype("<i1").tobytes())
        h.update(ev.flags.astype("u1").tobytes())
        for name in ("protocol", "service", "state", "label"):
            h.update(_obj(getattr(ev, name)))
        h.update(_f8(ev.payload))
    return h.hexdigest()


def _digest_batches(stream):
    """sha256 over featurized stream batches (numeric bits + categoricals)."""
    h = hashlib.sha256()
    for batch in stream:
        records = batch.records
        h.update(f"{batch.index}:{batch.phase}:{len(records)}".encode())
        h.update(_f8(records.numeric))
        for name in records.schema.categorical_names:
            h.update(_obj(records.categorical[name]))
        h.update(_obj(records.labels))
    return h.hexdigest()


# --------------------------------------------------------------------- #
@pytest.mark.parametrize("dataset", ["nsl-kdd", "unsw-nb15"])
def test_round_trip_reproduces_featurized_stream(dataset):
    generator = _GENERATORS[dataset]()
    stream = flood_scenario(
        generator, batch_size=32, seed=5,
        baseline_batches=2, burst_batches=1, drift_batches=2,
    )
    event_stream = stream.packet_events()
    reference = list(stream)
    replayed = list(event_stream)
    assert len(replayed) == len(reference)
    for got, want in zip(replayed, reference):
        assert got.phase == want.phase
        assert got.index == want.index
        assert got.phase_index == want.phase_index
        assert got.mix == want.mix
        # Bitwise: the payload-fragment scheme restores every float64.
        assert np.array_equal(got.records.numeric, want.records.numeric)
        for name in want.records.schema.categorical_names:
            assert list(got.records.categorical[name]) == list(
                want.records.categorical[name]
            )
        assert list(got.records.labels) == list(want.records.labels)


def test_event_stream_reiterates_identically():
    event_stream = _cases()["syn-flood-events/nsl-kdd/bs32/seed7"]()
    assert _digest_events(event_stream) == _digest_events(event_stream)
    assert _digest_batches(event_stream) == _digest_batches(event_stream)


def test_digests_match_committed_goldens():
    assert GOLDEN_PATH.exists(), (
        f"missing golden file {GOLDEN_PATH}; regenerate with "
        "`PYTHONPATH=src python tests/ingest/test_event_lowering_golden.py`"
    )
    goldens = json.loads(GOLDEN_PATH.read_text())
    current = _current_digests()
    assert current == goldens, (
        "event-plane digests drifted from the committed goldens — the "
        "lowering or flow table changed observable behaviour for existing "
        "seeds; if deliberate, regenerate with "
        "`PYTHONPATH=src python tests/ingest/test_event_lowering_golden.py`"
    )


def _current_digests():
    digests = {}
    for name, factory in _cases().items():
        event_stream = factory()
        digests[name] = {
            "events": _digest_events(event_stream),
            "batches": _digest_batches(event_stream),
        }
    return digests


if __name__ == "__main__":
    # Golden regeneration: run this file directly after a *deliberate*
    # change to the lowering or flow-table semantics.
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(_current_digests(), indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")
