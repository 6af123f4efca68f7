"""Tests for the graph-free inference fast path and the empty-batch fixes."""

import time

import numpy as np
import pytest

from repro.core import (
    NetworkConfig,
    PlainBlock,
    build_network,
    compile_for_paper,
    get_scale,
    scaled_config,
)
from repro.core.pelican import (
    PAPER_BLOCK_COUNTS,
    build_plain21,
    build_plain41,
    build_residual21,
    build_pelican,
)
from repro.nn import (
    GRU,
    LSTM,
    BatchNormalization,
    Conv1D,
    Dense,
    Dropout,
    GlobalAveragePooling1D,
    Layer,
    MaxPooling1D,
    Reshape,
    Sequential,
)
from repro.nn.inference import (
    get_raw_activation,
    invalidate_weight_caches,
    raw_conv1d,
    raw_hard_sigmoid,
    raw_max_pool1d,
    raw_tanh,
    weights_epoch,
)
from repro.nn.optimizers import SGD
from repro.nn.tensor import max_pool1d


RNG = np.random.default_rng(42)


def assert_fast_matches_graph(layer, inputs, atol=1e-12):
    """The layer's fast path must reproduce its inference-mode graph path."""
    graph = layer(inputs, training=False).data
    fast = layer.fast_forward(inputs)
    np.testing.assert_allclose(fast, graph, atol=atol, rtol=0)
    return graph, fast


class TestRawKernels:
    # Kernel 1 is a 1-step layer's stored tap (and the shortcut
    # projection); kernels 2 and 3 pad unevenly and evenly; kernels 4 and
    # 10 are wider than some step counts, so they have dead taps; 12 steps
    # make every tap live and partial.
    @pytest.mark.parametrize("kernel_size", [1, 2, 3, 4, 10])
    @pytest.mark.parametrize("steps", [1, 3, 5, 12])
    def test_raw_conv1d_matches_graph_op(self, steps, kernel_size, conv1d_oracle):
        # The tape op shares raw_conv1d's per-tap kernel, so both are held
        # to the independent pad + im2col formulation instead.
        x = RNG.normal(size=(3, steps, 6))
        kernel = RNG.normal(size=(kernel_size, 6, 5))
        bias = RNG.normal(size=5)
        expected = conv1d_oracle(x, kernel, bias, 1, "same")[0]
        actual = raw_conv1d(x, kernel, bias)
        np.testing.assert_allclose(actual, expected, atol=1e-12, rtol=0)

    # Odd step counts end in a window with a right pad; pools 3 and 4 pad
    # on the left too; pool 1 is the identity.
    @pytest.mark.parametrize("pool_size", [1, 2, 3, 4])
    @pytest.mark.parametrize("steps", [1, 4, 5, 9])
    def test_raw_max_pool1d_matches_graph_op(self, pool_size, steps):
        x = RNG.normal(size=(3, steps, 4))
        expected = max_pool1d(x, pool_size).data
        actual = raw_max_pool1d(x, pool_size)
        np.testing.assert_allclose(actual, expected, atol=0, rtol=0)

    def test_raw_activation_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown activation"):
            get_raw_activation("swish")


class TestLayerFastPaths:
    def test_dense(self):
        assert_fast_matches_graph(
            Dense(5, activation="softmax", seed=0), RNG.normal(size=(6, 9))
        )

    def test_dropout_and_reshape(self):
        x = RNG.normal(size=(5, 2, 6))
        assert_fast_matches_graph(Dropout(0.5, seed=0), x)  # no-op at inference
        assert_fast_matches_graph(Reshape((4, 3)), x)

    def test_conv1d(self):
        assert_fast_matches_graph(
            Conv1D(8, kernel_size=3, activation="relu", seed=0),
            RNG.normal(size=(4, 7, 5)),
        )

    @pytest.mark.parametrize("batch", [1, 256])
    def test_conv1d_paper_shape(self, batch):
        """Kernel 10 over one 121-channel step: only the centre tap is real."""
        assert_fast_matches_graph(
            Conv1D(121, kernel_size=10, seed=0), RNG.normal(size=(batch, 1, 121))
        )

    def test_pooling_layers(self):
        x = RNG.normal(size=(4, 6, 3))
        assert_fast_matches_graph(MaxPooling1D(pool_size=2), x)
        assert_fast_matches_graph(GlobalAveragePooling1D(), x)

    def test_batch_norm_uses_moving_statistics(self):
        layer = BatchNormalization(seed=0)
        # Push a few training batches through so the moving stats are real.
        for _ in range(3):
            layer(RNG.normal(loc=2.0, scale=3.0, size=(16, 1, 5)), training=True)
        assert_fast_matches_graph(layer, RNG.normal(size=(8, 1, 5)))

    def test_batch_norm_folded_constants_are_cached(self):
        layer = BatchNormalization(seed=0)
        layer(RNG.normal(loc=1.0, scale=2.0, size=(16, 1, 5)), training=True)
        x = RNG.normal(size=(8, 1, 5))
        layer.fast_forward(x)
        scale, shift = layer.folded_constants()
        # A second batch at the same weights epoch reuses the exact arrays.
        layer.fast_forward(x)
        again_scale, again_shift = layer.folded_constants()
        assert again_scale is scale and again_shift is shift

    def test_batch_norm_cache_invalidated_by_optimizer_step(self):
        layer = BatchNormalization(seed=0)
        layer(RNG.normal(size=(16, 1, 5)), training=True)
        layer.fast_forward(RNG.normal(size=(4, 1, 5)))
        stale_scale, _ = layer.folded_constants()
        # Mimic a training step on gamma: the fast path must re-derive.
        layer.gamma.grad = np.full_like(layer.gamma.data, 0.5)
        SGD(learning_rate=1.0).step([layer.gamma])
        assert_fast_matches_graph(layer, RNG.normal(size=(4, 1, 5)))
        fresh_scale, _ = layer.folded_constants()
        assert fresh_scale is not stale_scale
        assert np.abs(fresh_scale - stale_scale).max() > 0

    def test_batch_norm_cache_invalidated_by_set_weights(self):
        layer = BatchNormalization(seed=0)
        layer(RNG.normal(size=(16, 1, 5)), training=True)
        layer.fast_forward(RNG.normal(size=(4, 1, 5)))
        layer.set_weights([np.full(5, 2.0), np.full(5, -1.0)])
        assert_fast_matches_graph(layer, RNG.normal(size=(4, 1, 5)))

    def test_weights_epoch_is_monotonic(self):
        before = weights_epoch()
        assert invalidate_weight_caches() == before + 1
        assert weights_epoch() == before + 1

    @pytest.mark.parametrize("return_sequences", [False, True])
    @pytest.mark.parametrize("layer_cls", [GRU, LSTM])
    def test_recurrent_layers(self, layer_cls, return_sequences):
        layer = layer_cls(units=6, return_sequences=return_sequences, seed=0)
        assert_fast_matches_graph(layer, RNG.normal(size=(4, 5, 3)))

    # With test_recurrent_layers (5 steps, batch 4) this covers steps {1, 5}
    # x batch {1, 4}; one step runs only the all-zero initial-state branch.
    @pytest.mark.parametrize("steps,batch", [(1, 1), (1, 4), (5, 1)])
    @pytest.mark.parametrize("return_sequences", [False, True])
    @pytest.mark.parametrize("layer_cls", [GRU, LSTM])
    def test_recurrent_layers_steps_and_batch(
        self, layer_cls, return_sequences, steps, batch
    ):
        layer = layer_cls(units=6, return_sequences=return_sequences, seed=0)
        assert_fast_matches_graph(layer, RNG.normal(size=(batch, steps, 3)))

    def test_a_layer_without_a_fast_kernel_has_no_tape_fallback(self):
        class TapeOnly(Layer):
            def call(self, inputs, training=False):
                return inputs

        with pytest.raises(NotImplementedError):
            TapeOnly().fast_forward(RNG.normal(size=(5, 3)))

    def test_fast_path_accepts_float32_inputs(self):
        layer = Dense(4, activation="relu", seed=0)
        x64 = RNG.normal(size=(5, 3))
        graph = layer(x64, training=False).data
        fast = layer.fast_forward(x64.astype(np.float32))
        np.testing.assert_allclose(fast, graph, atol=1e-5, rtol=0)


SMALL_CONFIG = NetworkConfig(
    filters=12, kernel_size=10, recurrent_units=12, dropout_rate=0.4,
    epochs=1, learning_rate=0.01, batch_size=16,
)

FOUR_NETWORKS = {
    "plain-21": build_plain21,
    "residual-21": build_residual21,
    "plain-41": build_plain41,
    "residual-41": build_pelican,
}


class TestModelFastPath:
    @pytest.mark.parametrize("name", sorted(FOUR_NETWORKS))
    def test_four_networks_fast_matches_graph(self, name):
        """Acceptance: fast-path probabilities match on all four networks."""
        rng = np.random.default_rng(3)
        network = compile_for_paper(
            FOUR_NETWORKS[name](num_classes=5, config=SMALL_CONFIG, seed=0),
            SMALL_CONFIG,
        )
        x = rng.normal(size=(48, 1, SMALL_CONFIG.filters))
        y = np.zeros((48, 5))
        y[np.arange(48), rng.integers(0, 5, 48)] = 1.0
        network.fit(x, y, epochs=1, batch_size=16)  # realistic BN moving stats
        x_eval = rng.normal(size=(32, 1, SMALL_CONFIG.filters))
        graph = network.predict(x_eval)
        fast = network.predict(x_eval, fast=True)
        np.testing.assert_allclose(fast, graph, atol=1e-6, rtol=0)
        np.testing.assert_allclose(fast.sum(axis=-1), 1.0, atol=1e-9)

    def test_residual_fast_path_is_batch_split_invariant(self):
        """Rows scored together share one GEMM; splitting must not change them."""
        rng = np.random.default_rng(7)
        network = compile_for_paper(
            build_residual21(num_classes=5, config=SMALL_CONFIG, seed=0),
            SMALL_CONFIG,
        )
        x = rng.normal(size=(256, 1, SMALL_CONFIG.filters))
        y = np.zeros((256, 5))
        y[np.arange(256), rng.integers(0, 5, 256)] = 1.0
        network.fit(x[:48], y[:48], epochs=1, batch_size=16)
        whole = network.predict(x, batch_size=256, fast=True)
        for rows in (1, 7, 129):
            split = network.predict(x, batch_size=rows, fast=True)
            np.testing.assert_allclose(split, whole, atol=1e-12, rtol=0)
            np.testing.assert_array_equal(split.argmax(axis=-1), whole.argmax(axis=-1))

    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(PAPER_BLOCK_COUNTS))
    def test_fast_path_is_twice_the_tape_at_bench_scale(self, name):
        """The serving target: at ``bench`` scale and batch 256, the fast
        path's best of 3 predicts is at least 2x the tape's."""
        scale = get_scale("bench")
        config = scaled_config("nsl-kdd", scale)
        network = build_network(
            num_blocks=scale.scale_blocks(PAPER_BLOCK_COUNTS[name]),
            num_classes=5,
            config=config,
            residual=name.startswith("residual"),
            seed=0,
        )
        x = np.random.default_rng(0).normal(size=(256, 1, config.filters))
        graph = network.predict(x)  # also builds the layers
        np.testing.assert_allclose(
            network.predict(x, fast=True), graph, atol=1e-6, rtol=0
        )

        def best_time(fast):
            best = float("inf")
            for _ in range(3):
                started = time.perf_counter()
                network.predict(x, fast=fast)
                best = min(best, time.perf_counter() - started)
            return best

        speedup = best_time(fast=False) / best_time(fast=True)
        assert speedup >= 2.0, (
            f"{name}: fast path speedup {speedup:.2f}x below the 2x serving target"
        )

    def test_fast_predict_batches_consistently(self):
        network = Sequential([Dense(8, activation="relu", seed=0),
                              Dense(3, activation="softmax", seed=1)])
        x = RNG.normal(size=(25, 6))
        np.testing.assert_allclose(
            network.predict(x, batch_size=7, fast=True),
            network.predict(x, batch_size=25, fast=True),
            atol=1e-12,
        )


class TestEmptyBatchFixes:
    def _built_network(self):
        network = Sequential([Dense(8, activation="relu", seed=0),
                              Dense(4, activation="softmax", seed=1)])
        network.compile("sgd", "categorical_crossentropy")
        network.predict(RNG.normal(size=(3, 6)))  # build
        return network

    @pytest.mark.parametrize("fast", [False, True])
    def test_predict_empty_returns_zero_by_num_classes(self, fast):
        network = self._built_network()
        result = network.predict(np.empty((0, 6)), fast=fast)
        assert result.shape == (0, 4)

    def test_predict_classes_empty_does_not_crash(self):
        network = self._built_network()
        classes = network.predict_classes(np.empty((0, 6)))
        assert classes.shape == (0,)
        assert classes.dtype == np.int64

    def test_predict_empty_rank1_input_on_built_model(self):
        network = self._built_network()
        assert network.predict(np.empty((0,))).shape == (0, 4)

    def test_predict_empty_rank1_input_on_unbuilt_model_raises(self):
        network = Sequential([Dropout(0.5)])  # no units-bearing layer anywhere
        with pytest.raises(ValueError, match="cannot infer the output shape"):
            network.predict(np.empty((0,)))

    def test_fit_empty_raises_clear_error(self):
        network = self._built_network()
        with pytest.raises(ValueError, match="cannot fit on empty data"):
            network.fit(np.empty((0, 6)), np.empty((0, 4)))

    def test_evaluate_empty_raises_clear_error(self):
        network = self._built_network()
        with pytest.raises(ValueError, match="cannot evaluate on empty data"):
            network.evaluate(np.empty((0, 6)), np.empty((0, 4)))


ALLOCATING_ACTIVATIONS = {
    "relu": lambda x: np.maximum(x, 0.0),
    "hard_sigmoid": lambda x: np.clip(0.2 * x + 0.5, 0.0, 1.0),
    "tanh": np.tanh,
}

IN_PLACE_KERNELS = {
    "relu": get_raw_activation("relu"),
    "hard_sigmoid": raw_hard_sigmoid,
    "tanh": raw_tanh,
}


class TestInPlaceKernels:
    """Fast kernels work in place on arrays they own, bit-equal to the formulas."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("name", sorted(ALLOCATING_ACTIVATIONS))
    def test_raw_activation_overwrites_its_argument(self, name, dtype):
        x = (RNG.normal(scale=4.0, size=(6, 9))).astype(dtype)
        expected = ALLOCATING_ACTIVATIONS[name](x.copy())
        result = IN_PLACE_KERNELS[name](x)
        assert result is x
        assert result.dtype == expected.dtype
        assert np.array_equal(result, expected)

    def test_batch_norm_fast_call_is_bit_equal_to_scale_and_shift(self):
        layer = BatchNormalization(seed=0)
        layer(RNG.normal(loc=1.0, scale=2.0, size=(16, 1, 5)), training=True)
        x = RNG.normal(size=(8, 1, 5))
        scale, shift = layer.folded_constants()
        assert np.array_equal(layer.fast_forward(x), x * scale + shift)

    @pytest.mark.parametrize("return_sequences", [False, True])
    def test_multi_step_lstm_keeps_its_cell_state(self, return_sequences):
        layer = LSTM(units=6, return_sequences=return_sequences, seed=0)
        x = RNG.normal(size=(4, 5, 3))
        fast = layer.fast_forward(x)
        kernel, recurrent_kernel, bias = (
            layer.kernel.data, layer.recurrent_kernel.data, layer.bias.data
        )
        gate = ALLOCATING_ACTIVATIONS["hard_sigmoid"]
        units = layer.units
        hidden = cell = None
        outputs = []
        for step in range(x.shape[1]):
            gates = x[:, step, :] @ kernel
            if hidden is not None:
                gates = gates + hidden @ recurrent_kernel
            gates = gates + bias
            input_gate = gate(gates[:, 0:units])
            forget_gate = gate(gates[:, units:2 * units])
            candidate = np.tanh(gates[:, 2 * units:3 * units])
            output_gate = gate(gates[:, 3 * units:4 * units])
            cell = (input_gate * candidate if cell is None
                    else forget_gate * cell + input_gate * candidate)
            hidden = output_gate * np.tanh(cell)
            outputs.append(hidden)
        expected = np.stack(outputs, axis=1) if return_sequences else hidden
        assert np.array_equal(fast, expected)


def _read_only(x):
    x = np.array(x)
    x.flags.writeable = False
    return x


def assert_input_untouched(layer, inputs):
    """``fast_forward`` must not write into the caller's (read-only) array."""
    if isinstance(inputs, list):
        frozen = [_read_only(x) for x in inputs]
        before = [x.copy() for x in frozen]
    else:
        frozen = _read_only(inputs)
        before = frozen.copy()
    layer.fast_forward(frozen)
    np.testing.assert_array_equal(frozen, before)


class TestFastPathOwnership:
    @pytest.mark.parametrize("activation", ["relu", "softmax", None])
    def test_dense_and_activation(self, activation):
        x = RNG.normal(size=(6, 9))
        assert_input_untouched(Dense(5, activation=activation, seed=0), x)

    @pytest.mark.parametrize("steps", [1, 5])
    def test_conv1d_and_batch_norm(self, steps):
        x = RNG.normal(size=(4, steps, 5))
        assert_input_untouched(Conv1D(6, kernel_size=3, activation="relu", seed=0), x)
        layer = BatchNormalization(seed=0)
        layer(RNG.normal(size=(16, steps, 5)), training=True)
        assert_input_untouched(layer, x)

    @pytest.mark.parametrize("steps", [1, 6])
    def test_pooling(self, steps):
        x = RNG.normal(size=(4, steps, 3))
        for layer in (MaxPooling1D(pool_size=2), GlobalAveragePooling1D()):
            assert_input_untouched(layer, x)

    @pytest.mark.parametrize("steps", [1, 5])
    @pytest.mark.parametrize("return_sequences", [False, True])
    @pytest.mark.parametrize("layer_cls", [GRU, LSTM])
    def test_recurrent_layers(self, layer_cls, return_sequences, steps):
        layer = layer_cls(units=6, return_sequences=return_sequences, seed=0)
        assert_input_untouched(layer, RNG.normal(size=(4, steps, 3)))


def _layer_tree(layer):
    yield layer
    for sublayer in layer.sublayers:
        yield from _layer_tree(sublayer)


def _spy_fast_arrays(model, monkeypatch):
    """Record ``(layer, dtype, arrays)`` for every ``fast_arrays`` call."""
    calls = []
    for layer in _layer_tree(model):
        def spy(dtype, _layer=layer, _original=layer.fast_arrays):
            arrays = _original(dtype)
            calls.append((_layer, dtype, arrays))
            return arrays

        monkeypatch.setattr(layer, "fast_arrays", spy)
    return calls


def _trained(network, rng):
    """Fit one epoch so the BN moving statistics are real."""
    x = rng.normal(size=(48, 1, SMALL_CONFIG.filters))
    y = np.eye(5)[rng.integers(0, 5, 48)]
    network.fit(x, y, epochs=1, batch_size=16)
    return network


def _fresh_restore(build, network, x):
    """The same architecture, built anew and loaded with ``network``'s state."""
    clone = build()
    clone.predict(x[:1])  # build every layer
    clone.set_weights(network.get_weights())
    clone.set_buffers(network.get_buffers())
    return clone


class TestServedDtype:
    """float32 in, float32 computed and out; float64 stays the oracle."""

    def _network(self, name="residual-21"):
        if name == "residual-21":
            network = build_residual21(num_classes=5, config=SMALL_CONFIG, seed=0)
        else:
            network = Sequential([Conv1D(8, kernel_size=3, seed=0),
                                  LSTM(units=6, seed=1),
                                  Dense(5, activation="softmax", seed=2)])
        return _trained(compile_for_paper(network, SMALL_CONFIG),
                        np.random.default_rng(5))

    @pytest.mark.parametrize("name", ["residual-21", "conv-lstm"])
    def test_float64_runs_on_the_stored_arrays(self, name, monkeypatch):
        network = self._network(name)
        calls = _spy_fast_arrays(network, monkeypatch)
        x = np.random.default_rng(0).normal(size=(16, 1, SMALL_CONFIG.filters))
        assert network.predict(x, fast=True).dtype == np.float64

        # On one step a block reads its own folded gate arrays in place of
        # its second batch norm's and its GRU's.
        blocks = [layer for layer in _layer_tree(network)
                  if isinstance(layer, PlainBlock)]
        assert bool(blocks) == (name == "residual-21")
        folded_into_blocks = {id(sublayer) for block in blocks
                              for sublayer in (block.recurrent_norm, block.recurrent)}
        with_arrays = {id(layer) for layer in _layer_tree(network)
                       if layer.inference_arrays()}
        assert ({id(layer) for layer, _, _ in calls}
                == with_arrays - folded_into_blocks)
        for layer, dtype, arrays in calls:
            assert dtype == np.float64
            if isinstance(layer, BatchNormalization):
                stored = layer.folded_constants()
            elif isinstance(layer, PlainBlock):
                stored = list(layer.inference_arrays().values())  # per-epoch fold
            else:
                stored = [p.data for p in layer._parameters.values()]
            assert len(arrays) == len(stored)
            for array in arrays.values():
                assert any(array is original for original in stored), layer.name
        assert all(layer._cast_arrays is None for layer in _layer_tree(network))

    def test_float32_computes_and_returns_float32(self):
        network = self._network()
        x = np.random.default_rng(0).normal(size=(16, 1, SMALL_CONFIG.filters))
        served = network.predict(x.astype(np.float32), fast=True)
        assert served.dtype == np.float32
        np.testing.assert_allclose(served, network.predict(x, fast=True),
                                   atol=1e-5, rtol=0)
        # The tape and integer inputs still run in float64.
        assert network.predict(x.astype(np.float32)).dtype == np.float64
        assert network.predict(x.astype(np.int64), fast=True).dtype == np.float64
        empty = network.predict(x[:0].astype(np.float32), fast=True)
        assert empty.shape == (0, 5) and empty.dtype == np.float32

    def test_float32_is_cast_once_per_weight_state(self):
        layer = Dense(4, seed=0)
        x = RNG.normal(size=(5, 3)).astype(np.float32)
        layer.fast_forward(x)
        first = layer.fast_arrays(np.float32)
        assert first["kernel"].dtype == np.float32
        np.testing.assert_array_equal(first["kernel"],
                                      layer.kernel.data.astype(np.float32))
        assert layer.fast_arrays(np.float32) is first
        invalidate_weight_caches()
        assert layer.fast_arrays(np.float32) is not first

    def test_no_stale_float32_weights_after_set_weights(self):
        network = self._network()
        x = np.random.default_rng(1).normal(
            size=(32, 1, SMALL_CONFIG.filters)).astype(np.float32)
        before = network.predict(x, fast=True)  # caches float32 copies
        rng = np.random.default_rng(2)
        network.set_weights([w + rng.normal(scale=0.1, size=w.shape)
                             for w in network.get_weights()])
        after = network.predict(x, fast=True)
        assert np.abs(after - before).max() > 1e-3
        fresh = _fresh_restore(
            lambda: compile_for_paper(
                build_residual21(num_classes=5, config=SMALL_CONFIG, seed=9),
                SMALL_CONFIG,
            ),
            network, x,
        )
        np.testing.assert_array_equal(after, fresh.predict(x, fast=True))

    def test_no_stale_float32_weights_after_an_optimizer_step(self):
        # Dense only: no batch norm, whose training forward would also
        # bump the weights epoch and hide a step that does not.
        def build(seed=0):
            network = Sequential([Dense(8, activation="relu", seed=seed),
                                  Dense(3, activation="softmax", seed=seed + 1)])
            network.compile(SGD(learning_rate=0.5), "categorical_crossentropy")
            return network

        network = build()
        x = RNG.normal(size=(16, 6))
        y = np.eye(3)[RNG.integers(0, 3, 16)]
        before = network.predict(x.astype(np.float32), fast=True)
        network.train_on_batch(x, y)
        after = network.predict(x.astype(np.float32), fast=True)
        assert np.abs(after - before).max() > 1e-3
        fresh = _fresh_restore(lambda: build(seed=7), network, x)
        np.testing.assert_array_equal(
            after, fresh.predict(x.astype(np.float32), fast=True)
        )
