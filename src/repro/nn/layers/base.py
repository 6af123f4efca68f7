"""Layer base class.

A layer owns trainable parameters (created lazily the first time it sees an
input, so that input shapes do not have to be specified up front) and
transforms a :class:`~repro.nn.tensor.Tensor` in :meth:`call`.  Composite
layers — such as the paper's plain and residual blocks — register sub-layers
with :meth:`register` so that ``parameters()`` recurses into them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..inference import invalidate_weight_caches, weights_epoch
from ..initializers import get_initializer
from ..tensor import Tensor, as_tensor

__all__ = ["Layer"]


class Layer:
    """Base class for all neural-network layers.

    Parameters
    ----------
    name:
        Optional label used in ``summary()`` output; defaults to the class
        name in lower-case with a per-class counter.
    seed:
        Optional seed for the layer's private random generator (weight
        initialization, dropout masks).  A layer built without one takes a
        child of its parent's :class:`numpy.random.SeedSequence` when it is
        registered (see :meth:`register`), so a network's draws are a pure
        function of its top-level seed; with no seed anywhere, the top
        layer draws fresh entropy.  A layer built with a seed keeps it.
    """

    _instance_counters: Dict[str, int] = {}

    def __init__(self, name: Optional[str] = None, seed: Optional[int] = None) -> None:
        if name is None:
            base = type(self).__name__.lower()
            count = Layer._instance_counters.get(base, 0)
            Layer._instance_counters[base] = count + 1
            name = f"{base}_{count}" if count else base
        self.name = name
        self.built = False
        self._parameters: Dict[str, Tensor] = {}
        self._buffers: Dict[str, np.ndarray] = {}
        self._sublayers: List["Layer"] = []
        self._seeded = seed is not None
        self._seed_sequence: Optional[np.random.SeedSequence] = None
        self._rng: Optional[np.random.Generator] = None
        if self._seeded:
            self._derive(np.random.SeedSequence(seed))
        # ((weights epoch, dtype), arrays) — see fast_arrays.
        self._cast_arrays: Optional[Tuple[tuple, Dict[str, np.ndarray]]] = None

    # ------------------------------------------------------------------ #
    # Parameter management
    # ------------------------------------------------------------------ #
    def add_parameter(
        self,
        name: str,
        shape: Tuple[int, ...],
        initializer: str,
        live=None,
    ) -> Tensor:
        """Create, register and return a trainable parameter tensor.

        ``initializer`` names a scheme of :mod:`repro.nn.initializers`.
        ``live`` is an optional index into the initial value: the value is
        drawn at the full ``shape`` (same generator, same fans) and only
        ``value[live]`` is kept, so a layer that stores part of a kernel
        starts from exactly that part of the full kernel.
        """
        initializer = get_initializer(initializer)
        value = initializer(shape, self.rng)
        if live is not None:
            value = value[live].copy()  # a copy: a view would pin the full array
        parameter = Tensor(
            value,
            requires_grad=True,
            name=f"{self.name}/{name}",
        )
        self._parameters[name] = parameter
        return parameter

    def _check_steps(self, steps: int, one_step: bool) -> None:
        """Reject ``steps != 1`` when the layer stores only what 1 step uses."""
        if one_step and steps != 1:
            raise ValueError(
                f"{self.name} was built on 1 time step and stores only the "
                f"parameters that step uses; got {steps} steps"
            )

    def add_buffer(self, name: str, value: np.ndarray) -> np.ndarray:
        """Register a non-trainable state array (e.g. batch-norm running stats)."""
        self._buffers[name] = np.asarray(value, dtype=np.float64)
        return self._buffers[name]

    def register(self, layer: "Layer") -> "Layer":
        """Register a sub-layer so its parameters are tracked recursively.

        A sub-layer built without a seed takes the next spawned child of
        this layer's seed sequence, and passes children on to its own
        sub-layers in registration order.  A layer that has no sequence yet
        (built without a seed, not yet registered) hands them out when it
        gets one.
        """
        self._sublayers.append(layer)
        if not layer._seeded and self._seed_sequence is not None:
            layer._derive(self._seed_sequence.spawn(1)[0])
        return layer

    def _derive(self, sequence: np.random.SeedSequence) -> None:
        """Draw from ``sequence``, and re-derive the unseeded sub-layers."""
        self._seed_sequence = sequence
        self._rng = None
        for layer in self._sublayers:
            if not layer._seeded:
                layer._derive(sequence.spawn(1)[0])

    @property
    def rng(self) -> np.random.Generator:
        """The generator of weight initialization and dropout masks, made
        on first use; a layer never given a sequence draws fresh entropy."""
        if self._rng is None:
            if self._seed_sequence is None:
                self._derive(np.random.SeedSequence())
            self._rng = np.random.default_rng(self._seed_sequence)
        return self._rng

    @rng.setter
    def rng(self, generator: np.random.Generator) -> None:
        self._rng = generator

    def parameters(self) -> List[Tensor]:
        """Return all trainable parameters of this layer and its sub-layers."""
        parameters = list(self._parameters.values())
        for sublayer in self._sublayers:
            parameters.extend(sublayer.parameters())
        return parameters

    def count_params(self) -> int:
        """Total number of scalar trainable parameters."""
        return int(sum(p.size for p in self.parameters()))

    @property
    def sublayers(self) -> List["Layer"]:
        return list(self._sublayers)

    # ------------------------------------------------------------------ #
    # Forward pass
    # ------------------------------------------------------------------ #
    def build(self, input_shape: Tuple[int, ...]) -> None:
        """Create parameters once the input shape is known (no-op by default)."""

    def call(self, inputs: Tensor, training: bool = False) -> Tensor:
        raise NotImplementedError

    def __call__(self, inputs, training: bool = False) -> Tensor:
        if isinstance(inputs, (list, tuple)):
            tensors = [as_tensor(x) for x in inputs]
            if not self.built:
                self.build(tuple(t.shape for t in tensors))
                self.built = True
            return self.call(tensors, training=training)
        inputs = as_tensor(inputs)
        if not self.built:
            self.build(inputs.shape)
            self.built = True
        return self.call(inputs, training=training)

    # ------------------------------------------------------------------ #
    # Graph-free inference fast path (see repro.nn.inference)
    # ------------------------------------------------------------------ #
    def fast_call(self, inputs):
        """Inference-mode forward on raw ndarrays, bypassing the autodiff tape.

        Every layer overrides this with pure-numpy kernels (there is no tape
        fallback).  Inference semantics apply: dropout is a no-op and batch
        norm uses its moving statistics.
        """
        raise NotImplementedError

    def inference_arrays(self) -> Dict[str, np.ndarray]:
        """The float64 arrays :meth:`fast_call` reads, by name.

        The stored parameter arrays themselves; layers that serve derived
        constants instead (batch norm's folded scale and shift, a Pelican
        block's folded GRU gates) override it.
        """
        return {name: p.data for name, p in self._parameters.items()}

    def fast_arrays(self, dtype) -> Dict[str, np.ndarray]:
        """:meth:`inference_arrays` at the dtype a ``fast_call`` computes in.

        float32 input reads float32 copies, cast once per weight state: the
        copies are cached on the layer, tagged ``(weights epoch, dtype)``,
        so any weight change re-casts them on the next batch.  Every other
        dtype reads the float64 arrays as they are, with no copy, so the
        float64 fast path runs on exactly the stored values.
        """
        if dtype != np.float32:
            return self.inference_arrays()
        tag = (weights_epoch(), np.dtype(dtype))
        cast = self._cast_arrays
        if cast is None or cast[0] != tag:
            arrays = {
                name: value.astype(dtype)
                for name, value in self.inference_arrays().items()
            }
            cast = (tag, arrays)
            self._cast_arrays = cast
        return cast[1]

    def fast_forward(self, inputs):
        """Build the layer if needed, then run :meth:`fast_call`."""
        inputs = np.asarray(inputs)
        if not self.built:
            self.build(inputs.shape)
            self.built = True
        return self.fast_call(inputs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"

    # ------------------------------------------------------------------ #
    # Serialization helpers (used by Model.get_weights / set_weights)
    # ------------------------------------------------------------------ #
    def get_weights(self) -> List[np.ndarray]:
        """Return copies of this layer's (and sub-layers') parameter arrays."""
        weights = [p.data.copy() for p in self._parameters.values()]
        for sublayer in self._sublayers:
            weights.extend(sublayer.get_weights())
        return weights

    def weight_specs(self) -> List[Tuple[str, Tuple[int, ...]]]:
        """``(qualified name, shape)`` pairs in :meth:`get_weights` order.

        Lets serialization code name the offending array when a load fails
        instead of surfacing a bare positional mismatch.
        """
        specs = [
            (p.name, tuple(p.data.shape)) for p in self._parameters.values()
        ]
        for sublayer in self._sublayers:
            specs.extend(sublayer.weight_specs())
        return specs

    def get_buffers(self) -> List[np.ndarray]:
        """Copies of the non-trainable state arrays (e.g. BN moving stats).

        Ordered like :meth:`get_weights`: this layer's buffers first, then
        each sub-layer's, so ``(get_weights(), get_buffers())`` is the full
        inference state of the layer tree.
        """
        buffers = [buffer.copy() for buffer in self._buffers.values()]
        for sublayer in self._sublayers:
            buffers.extend(sublayer.get_buffers())
        return buffers

    def buffer_specs(self) -> List[Tuple[str, Tuple[int, ...]]]:
        """``(qualified name, shape)`` pairs in :meth:`get_buffers` order."""
        specs = [
            (f"{self.name}/{name}", tuple(buffer.shape))
            for name, buffer in self._buffers.items()
        ]
        for sublayer in self._sublayers:
            specs.extend(sublayer.buffer_specs())
        return specs

    def set_buffers(self, buffers: Sequence[np.ndarray]) -> int:
        """Load buffer arrays in the order produced by :meth:`get_buffers`.

        Returns the number of arrays consumed so nested layers can continue
        from the right offset.  Bumps the weights epoch: derived constants
        such as the folded batch-norm scale/shift depend on buffer state.
        """
        consumed = 0
        for name, current in self._buffers.items():
            value = np.asarray(buffers[consumed], dtype=np.float64)
            if value.shape != current.shape:
                raise ValueError(
                    f"buffer shape mismatch for {self.name}/{name}: "
                    f"expected {current.shape}, got {value.shape}"
                )
            self._buffers[name] = value.copy()
            consumed += 1
        if consumed:
            invalidate_weight_caches()
        for sublayer in self._sublayers:
            consumed += sublayer.set_buffers(buffers[consumed:])
        return consumed

    def set_weights(self, weights: Sequence[np.ndarray]) -> int:
        """Load parameter arrays in the order produced by :meth:`get_weights`.

        Returns the number of arrays consumed so nested layers can continue
        from the right offset.
        """
        consumed = 0
        for parameter in self._parameters.values():
            value = np.asarray(weights[consumed], dtype=np.float64)
            if value.shape != parameter.data.shape:
                raise ValueError(
                    f"weight shape mismatch for {parameter.name}: "
                    f"expected {parameter.data.shape}, got {value.shape}"
                )
            parameter.data = value.copy()
            consumed += 1
        if consumed:
            invalidate_weight_caches()
        for sublayer in self._sublayers:
            consumed += sublayer.set_weights(weights[consumed:])
        return consumed
