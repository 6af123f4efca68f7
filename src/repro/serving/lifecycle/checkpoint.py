"""Single-archive detector checkpoints.

The paper's workflow trains a detector once and deploys it into the NIDS
(Fig. 1).  :class:`DetectorCheckpoint` is the deployable artifact that
workflow needs: **one** ``.npz`` archive bundling everything required to
reconstruct a scoring-identical detector on another process or machine —

* the architecture recipe (schema name, block count, residual family, the
  Table I-style :class:`~repro.core.config.NetworkConfig`, seed);
* the network's complete inference state: trainable weights *and*
  non-trainable buffers (batch-norm moving statistics) in
  :meth:`~repro.nn.layers.base.Layer.get_weights` /
  :meth:`~repro.nn.layers.base.Layer.get_buffers` order;
* the fitted preprocessing statistics: per-column categorical vocabularies,
  the standard-scaler mean/scale, and the class order.

``restore()`` rebuilds the detector from the recipe, loads the state and
returns a :class:`~repro.core.detector.PelicanDetector` whose
``predict(fast=True)`` outputs are bitwise-identical to the captured one.
Loading bumps the global weights epoch, so the fast path's folded
batch-norm constants are re-derived from the restored buffers instead of
being served stale.

Format: metadata is a JSON document stored as a zero-dimensional unicode
array under ``meta`` (no pickling anywhere); float arrays are stored
exactly (``float64`` npz round-trips are lossless).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from ...core.config import NetworkConfig
from ...core.detector import PelicanDetector
from ...data.schema import get_schema
from ...nn.serialization import (
    BUFFER_KEY,
    WEIGHT_KEY,
    check_array_specs,
    load_prefixed_arrays,
)

__all__ = ["DetectorCheckpoint", "CHECKPOINT_FORMAT"]

CHECKPOINT_FORMAT = "repro-detector-checkpoint/1"


@dataclass
class DetectorCheckpoint:
    """A captured, serialisable snapshot of a fitted detector.

    Use the three classmethod/method entry points::

        checkpoint = DetectorCheckpoint.capture(detector)
        path = checkpoint.save("models/pelican-v3")        # one .npz archive
        clone = DetectorCheckpoint.load(path).restore()    # scoring-identical

    Attributes
    ----------
    meta:
        JSON-able architecture + preprocessing metadata.
    weights / buffers:
        The network's parameter and buffer arrays.
    scaler_mean / scaler_scale:
        The fitted standard-scaler statistics (stored exactly).
    """

    meta: Dict[str, object]
    weights: List[np.ndarray] = field(repr=False)
    buffers: List[np.ndarray] = field(repr=False)
    scaler_mean: np.ndarray = field(repr=False)
    scaler_scale: np.ndarray = field(repr=False)

    # ------------------------------------------------------------------ #
    @classmethod
    def capture(cls, detector: PelicanDetector) -> "DetectorCheckpoint":
        """Snapshot a fitted detector (arrays are copied, nothing shared)."""
        if not detector.is_fitted:
            raise RuntimeError("only a fitted detector can be checkpointed")
        preprocessor_state = detector.preprocessor.export_state()
        meta = {
            "format": CHECKPOINT_FORMAT,
            "schema": detector.schema.name,
            "num_blocks": detector.num_blocks,
            "residual": bool(detector.residual),
            "seed": detector.seed,
            "config": asdict(detector.config),
            "classes": list(preprocessor_state["classes"]),
            "categories": preprocessor_state["categories"],
            "num_features": detector.preprocessor.num_features,
        }
        return cls(
            meta=meta,
            weights=detector.network.get_weights(),
            buffers=detector.network.get_buffers(),
            scaler_mean=np.asarray(preprocessor_state["scaler_mean"]),
            scaler_scale=np.asarray(preprocessor_state["scaler_scale"]),
        )

    # ------------------------------------------------------------------ #
    def save(self, path: Union[str, Path]) -> Path:
        """Write the single-archive bundle (``.npz`` appended if missing)."""
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_suffix(".npz")
        arrays: Dict[str, np.ndarray] = {
            "meta": np.array(json.dumps(self.meta)),
            "scaler_mean": self.scaler_mean,
            "scaler_scale": self.scaler_scale,
        }
        for index, array in enumerate(self.weights):
            arrays[WEIGHT_KEY.format(index=index)] = array
        for index, array in enumerate(self.buffers):
            arrays[BUFFER_KEY.format(index=index)] = array
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **arrays)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "DetectorCheckpoint":
        """Read a bundle written by :meth:`save`."""
        path = Path(path)
        if not path.exists() and path.suffix != ".npz":
            path = path.with_suffix(".npz")
        with np.load(path) as archive:
            if "meta" not in archive.files:
                raise ValueError(
                    f"{path.name} is not a detector checkpoint (no metadata); "
                    "network-only archives load with repro.nn.serialization.load_state"
                )
            meta = json.loads(str(archive["meta"][()]))
            if meta.get("format") != CHECKPOINT_FORMAT:
                raise ValueError(
                    f"unsupported checkpoint format {meta.get('format')!r} "
                    f"(expected {CHECKPOINT_FORMAT!r})"
                )
            scaler_mean = archive["scaler_mean"]
            scaler_scale = archive["scaler_scale"]
        return cls(
            meta=meta,
            weights=load_prefixed_arrays(path, "weight_"),
            buffers=load_prefixed_arrays(path, "buffer_"),
            scaler_mean=scaler_mean,
            scaler_scale=scaler_scale,
        )

    # ------------------------------------------------------------------ #
    def restore(self) -> PelicanDetector:
        """Reconstruct a fitted, scoring-identical detector from the bundle.

        Rebuilds the architecture from the recipe, loads the weight and
        buffer arrays (shape-validated, naming the offending array on
        mismatch), and restores the preprocessing statistics.  The returned
        detector is independent of the captured one — retraining either
        does not affect the other.
        """
        meta = self.meta
        schema = get_schema(str(meta["schema"]))
        detector = PelicanDetector(
            schema,
            num_blocks=int(meta["num_blocks"]),
            residual=bool(meta["residual"]),
            config=NetworkConfig(**meta["config"]),
            seed=meta["seed"],
        )
        detector.preprocessor.restore_state(
            {
                "schema": meta["schema"],
                "categories": meta["categories"],
                "classes": meta["classes"],
                "scaler_mean": self.scaler_mean,
                "scaler_scale": self.scaler_scale,
            }
        )
        network = detector.build_untrained(
            num_classes=len(meta["classes"]),
            num_features=int(meta["num_features"]),
        )
        source = "the checkpoint bundle"
        check_array_specs("weight", network.weight_specs(), self.weights, source)
        check_array_specs("buffer", network.buffer_specs(), self.buffers, source)
        network.set_weights(self.weights)
        network.set_buffers(self.buffers)
        detector.network = network
        return detector
