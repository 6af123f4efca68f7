"""Model weight serialization.

The paper's workflow trains a detector once and then deploys it inside the
NIDS (Fig. 1); this module provides the persistence layer that makes that
workflow possible here.  :func:`save_state` writes the trainable parameters
(in :meth:`~repro.nn.layers.base.Layer.get_weights` order) **plus** the
non-trainable buffers (batch-norm moving statistics), i.e. the complete
inference state, to a single ``.npz`` archive; :func:`load_state` reads it
back into a freshly constructed (already built) model of the same
architecture, which then scores identically to the one that was saved.
Loading bumps the global weights epoch (via ``set_weights`` /
``set_buffers``), so cached derived constants such as the folded batch-norm
scale/shift are re-derived on the next fast-path batch instead of serving
stale values.

Shape mismatches are reported by array index *and* qualified parameter
name (``weight 3 ('dense/kernel'): ...``), so a wrong-architecture load
points at the offending layer instead of surfacing a bare positional
error.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Sequence, Tuple, Union

import numpy as np

from .layers.base import Layer

__all__ = [
    "save_state",
    "load_state",
    "WEIGHT_KEY",
    "BUFFER_KEY",
    "check_array_specs",
    "load_prefixed_arrays",
]

#: Archive key templates shared by every weight container in the repo
#: (these files and the serving tier's ``DetectorCheckpoint`` bundle).
WEIGHT_KEY = "weight_{index:04d}"
BUFFER_KEY = "buffer_{index:04d}"


def _normalise_path(path: Union[str, Path], must_exist: bool) -> Path:
    path = Path(path)
    if must_exist:
        if not path.exists() and path.suffix != ".npz":
            path = path.with_suffix(".npz")
    elif path.suffix != ".npz":
        path = path.with_suffix(".npz")
    return path


def check_array_specs(
    kind: str,
    specs: Sequence[Tuple[str, Tuple[int, ...]]],
    arrays: Sequence[np.ndarray],
    source: str,
) -> None:
    """Validate loaded arrays against ``(name, shape)`` specs.

    Names the offending array index and qualified parameter/buffer name —
    and runs *before* the model is touched, so a failed load mutates
    nothing.  ``source`` labels where the arrays came from (a file name,
    a checkpoint bundle) in the error message.
    """
    first_mismatch = next(
        (
            f"{kind} {index} ({name!r}) in {source}: model expects "
            f"shape {shape}, source has {tuple(array.shape)}"
            for index, ((name, shape), array) in enumerate(zip(specs, arrays))
            if tuple(array.shape) != shape
        ),
        None,
    )
    if len(specs) != len(arrays):
        # Also name the first array that differs: a file saved from a
        # different layout (say, a full Conv1D kernel for a 1-step layer)
        # usually differs in both.
        detail = "" if first_mismatch is None else f"; first difference: {first_mismatch}"
        raise ValueError(
            f"{kind} count mismatch loading {source}: model has "
            f"{len(specs)} arrays, source has {len(arrays)}{detail}"
        )
    if first_mismatch is not None:
        raise ValueError(first_mismatch)


def load_prefixed_arrays(path: Union[str, Path], prefix: str) -> List[np.ndarray]:
    """All arrays whose key starts with ``prefix``, in sorted-key order."""
    with np.load(path) as archive:
        keys = sorted(key for key in archive.files if key.startswith(prefix))
        return [archive[key] for key in keys]


def save_state(model: Layer, path: Union[str, Path]) -> Path:
    """Save weights *and* buffers — the model's complete inference state.

    ``path`` gets ``.npz`` appended if missing.  The archive carries the
    non-trainable state arrays (batch-norm moving mean/variance) beside the
    weights, so a model restored with :func:`load_state` produces
    bitwise-identical inference outputs.
    """
    path = _normalise_path(path, must_exist=False)
    weights = model.get_weights()
    if not weights:
        raise ValueError(
            "the model has no weights to save; build it by calling it on data first"
        )
    arrays = {
        WEIGHT_KEY.format(index=index): array
        for index, array in enumerate(weights)
    }
    for index, buffer in enumerate(model.get_buffers()):
        arrays[BUFFER_KEY.format(index=index)] = buffer
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **arrays)
    return path


def load_state(model: Layer, path: Union[str, Path]) -> Layer:
    """Load an archive saved by :func:`save_state` into ``model`` (in place).

    The model must already be built and have the same architecture as the
    saved one.  Validates every array's shape (weights and buffers) against
    the model before mutating anything, so a failed load leaves the model
    untouched; a mismatch raises ``ValueError`` naming the offending array
    index and parameter.  An archive of a model without buffers (no batch
    norm) holds weights only, and loads as such.
    """
    path = _normalise_path(path, must_exist=True)
    weights = load_prefixed_arrays(path, "weight_")
    buffers = load_prefixed_arrays(path, "buffer_")
    check_array_specs("weight", model.weight_specs(), weights, path.name)
    if buffers:
        check_array_specs("buffer", model.buffer_specs(), buffers, path.name)
    model.set_weights(weights)
    if buffers:
        model.set_buffers(buffers)
    return model
