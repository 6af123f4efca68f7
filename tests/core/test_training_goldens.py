"""Seeded digest goldens of trained Pelican weights.

Every paper table is computed from networks that
:meth:`PelicanDetector.fit` trains, and bench-scale training is chaotic: a
round-off difference in one step grows about tenfold per step.  sha256
digests of every parameter and every batch-norm moving statistic after a
short seeded fit — residual and plain, 3 blocks, on NSL-KDD (121 features)
and UNSW-NB15 (196 features) — are committed in
``goldens/training_digests.json``.  A digest drift means training changed
for existing seeds (a GEMM shape, a summation order, a dropout draw, the
moving-statistics update), which moves every trained detector and every
paper table; it must be deliberate (regenerate with
``PYTHONPATH=src python tests/core/test_training_goldens.py``).

A detector's seed alone determines its network: every layer's generator is
derived from it, so a second same-seed fit in the same process ends with
the same weights, bit for bit (checked below on one case).
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core import PelicanDetector
from repro.data import NSLKDD_SCHEMA, UNSWNB15_SCHEMA, load_nslkdd, load_unswnb15

GOLDEN_PATH = Path(__file__).parent / "goldens" / "training_digests.json"

#: The locked fits: name → (schema, loader, residual).  Each fit trains 2
#: epochs over 250 records in batches of 64 (the last batch of each epoch
#: holds 58), with dropout 0.6.
_CASES = {
    "nsl-kdd/residual-13": (NSLKDD_SCHEMA, load_nslkdd, True),
    "nsl-kdd/plain-13": (NSLKDD_SCHEMA, load_nslkdd, False),
    "unsw-nb15/residual-13": (UNSWNB15_SCHEMA, load_unswnb15, True),
    "unsw-nb15/plain-13": (UNSWNB15_SCHEMA, load_unswnb15, False),
}
_SEED = 5
_RECORDS = 250


def _digest(array):
    return hashlib.sha256(np.ascontiguousarray(array, dtype="<f8").tobytes()).hexdigest()


def _fit_digests(schema, load, residual):
    detector = PelicanDetector(
        schema, num_blocks=3, residual=residual, epochs=2, batch_size=64,
        dropout_rate=0.6, seed=_SEED,
    )
    detector.fit(load(n_records=_RECORDS, seed=_SEED))
    network = detector.network
    digests = {}
    for (name, _), weight in zip(network.weight_specs(), network.get_weights()):
        digests[name] = _digest(weight)
    for (name, _), buffer in zip(network.buffer_specs(), network.get_buffers()):
        digests[name] = _digest(buffer)
    return digests


def _current_digests():
    return {name: _fit_digests(*case) for name, case in _CASES.items()}


def test_trained_weights_match_committed_goldens():
    goldens = json.loads(GOLDEN_PATH.read_text())
    current = _current_digests()
    assert current.keys() == goldens.keys()
    for name, digests in current.items():
        drifted = sorted(
            array for array, digest in digests.items()
            if goldens[name].get(array) != digest
        )
        assert digests.keys() == goldens[name].keys(), name
        assert not drifted, (
            f"{name}: trained arrays drifted from the committed goldens "
            f"({', '.join(drifted)}) — training changed for existing seeds; "
            "if deliberate, regenerate with "
            "`PYTHONPATH=src python tests/core/test_training_goldens.py`"
        )


def test_a_second_fit_in_the_same_process_matches():
    case = _CASES["nsl-kdd/residual-13"]
    assert _fit_digests(*case) == _fit_digests(*case)


if __name__ == "__main__":
    # Golden regeneration: run this file directly after a *deliberate*
    # change to training.
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(_current_digests(), indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")
