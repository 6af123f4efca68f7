"""Seeded digest goldens of the training inputs.

The paper's tables are computed from the matrices
:meth:`IDSPreprocessor.fit_transform` and :meth:`IDSPreprocessor.transform`
produce.  sha256 digests of those outputs — inputs, one-hot targets, class
ids, binary labels, class order and the fitted mean/scale — on both
datasets are committed in ``goldens/pipeline_digests.json``.  A digest
drift means the one-hot layout, the standardization arithmetic or the
class coding changed for existing seeds, which moves every trained
detector and every paper table; it must be deliberate (regenerate with
``PYTHONPATH=src python tests/preprocessing/test_pipeline_goldens.py``).
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.data import NSLKDD_SCHEMA, UNSWNB15_SCHEMA, load_nslkdd, load_unswnb15
from repro.preprocessing import IDSPreprocessor

GOLDEN_PATH = Path(__file__).parent / "goldens" / "pipeline_digests.json"

#: The locked configurations: name → (schema, loader, fit seed, transform seed).
_CASES = {
    "nsl-kdd/fit3000-seed4/transform1500-seed9": (
        NSLKDD_SCHEMA, load_nslkdd, 4, 9,
    ),
    "unsw-nb15/fit3000-seed4/transform1500-seed9": (
        UNSWNB15_SCHEMA, load_unswnb15, 4, 9,
    ),
}


def _digest(prepared):
    """sha256 over every array and the class coding of one PreparedData."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(prepared.inputs, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(prepared.targets, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(prepared.class_indices, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(prepared.binary_labels, dtype="<i8").tobytes())
    h.update(f"{prepared.class_names}:{prepared.normal_index}".encode())
    return h.hexdigest()


def _current_digests():
    digests = {}
    for name, (schema, load, fit_seed, transform_seed) in _CASES.items():
        preprocessor = IDSPreprocessor(schema)
        fitted = preprocessor.fit_transform(load(n_records=3000, seed=fit_seed))
        transformed = preprocessor.transform(
            load(n_records=1500, seed=transform_seed)
        )
        state = preprocessor.export_state()
        statistics = hashlib.sha256(
            np.ascontiguousarray(state["scaler_mean"], dtype="<f8").tobytes()
            + np.ascontiguousarray(state["scaler_scale"], dtype="<f8").tobytes()
        ).hexdigest()
        digests[name] = {
            "fit_transform": _digest(fitted),
            "transform": _digest(transformed),
            "statistics": statistics,
        }
    return digests


def test_digests_match_committed_goldens():
    goldens = json.loads(GOLDEN_PATH.read_text())
    assert _current_digests() == goldens, (
        "training-input digests drifted from the committed goldens — the "
        "encoding, standardization or class coding changed for existing "
        "seeds; if deliberate, regenerate with "
        "`PYTHONPATH=src python tests/preprocessing/test_pipeline_goldens.py`"
    )


if __name__ == "__main__":
    # Golden regeneration: run this file directly after a *deliberate*
    # change to the training pipeline.
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(_current_digests(), indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")
