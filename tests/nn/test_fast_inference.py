"""Tests for the graph-free inference fast path and the empty-batch fixes."""

import numpy as np
import pytest

from repro.core import NetworkConfig, compile_for_paper
from repro.core.pelican import (
    build_plain21,
    build_plain41,
    build_residual21,
    build_pelican,
)
from repro.nn import (
    GRU,
    LSTM,
    Activation,
    Add,
    AveragePooling1D,
    BatchNormalization,
    Concatenate,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    GlobalAveragePooling1D,
    GlobalMaxPooling1D,
    MaxPooling1D,
    Reshape,
    Sequential,
    SimpleRNN,
)
from repro.nn.inference import (
    get_raw_activation,
    invalidate_weight_caches,
    raw_conv1d,
    raw_max_pool1d,
    weights_epoch,
)
from repro.nn.optimizers import SGD
from repro.nn.tensor import conv1d, max_pool1d, relu


RNG = np.random.default_rng(42)


def assert_fast_matches_graph(layer, inputs, atol=1e-12):
    """The layer's fast path must reproduce its inference-mode graph path."""
    graph = layer(inputs, training=False).data
    fast = layer.fast_forward(inputs)
    np.testing.assert_allclose(fast, graph, atol=atol, rtol=0)
    return graph, fast


class TestRawKernels:
    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("steps", [1, 5, 12])
    def test_raw_conv1d_matches_graph_op(self, padding, stride, steps):
        kernel_size = 4
        if padding == "valid" and steps < kernel_size:
            pytest.skip("valid padding needs steps >= kernel_size")
        x = RNG.normal(size=(3, steps, 6))
        kernel = RNG.normal(size=(kernel_size, 6, 5))
        bias = RNG.normal(size=5)
        expected = conv1d(x, kernel, bias=bias, stride=stride, padding=padding).data
        actual = raw_conv1d(x, kernel, bias=bias, stride=stride, padding=padding)
        np.testing.assert_allclose(actual, expected, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("stride", [2, 3])
    def test_raw_conv1d_copies_strided_taps_before_the_gemm(self, stride):
        """A partial strided tap slice over batch > 1 has no 2-D view."""
        x = RNG.normal(size=(4, 12, 6))
        partial_tap = x[:, 1:10:stride, :]
        assert not np.shares_memory(partial_tap.reshape(-1, 6), x)
        kernel = RNG.normal(size=(10, 6, 5))
        bias = RNG.normal(size=5)
        expected = conv1d(x, kernel, bias=bias, stride=stride, padding="same").data
        actual = raw_conv1d(x, kernel, bias=bias, stride=stride, padding="same")
        np.testing.assert_allclose(actual, expected, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("pool_size,stride", [(2, None), (3, 2), (2, 1)])
    @pytest.mark.parametrize("steps", [1, 4, 9])
    def test_raw_max_pool1d_matches_graph_op(self, padding, pool_size, stride, steps):
        if padding == "valid" and steps < pool_size:
            pytest.skip("valid padding needs steps >= pool_size")
        x = RNG.normal(size=(3, steps, 4))
        expected = max_pool1d(x, pool_size=pool_size, stride=stride, padding=padding).data
        actual = raw_max_pool1d(x, pool_size=pool_size, stride=stride, padding=padding)
        np.testing.assert_allclose(actual, expected, atol=0, rtol=0)

    def test_raw_activation_resolves_tensor_ops_and_custom_callables(self):
        x = RNG.normal(size=(4, 7))
        assert np.array_equal(get_raw_activation(relu)(x), np.maximum(x, 0.0))
        custom = get_raw_activation(lambda t: t * 2.0)
        np.testing.assert_allclose(custom(x), x * 2.0)

    def test_raw_activation_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown activation"):
            get_raw_activation("swish")


class TestLayerFastPaths:
    def test_dense(self):
        assert_fast_matches_graph(
            Dense(5, activation="softmax", seed=0), RNG.normal(size=(6, 9))
        )

    def test_dense_without_bias(self):
        assert_fast_matches_graph(
            Dense(3, use_bias=False, seed=0), RNG.normal(size=(6, 4))
        )

    def test_activation_dropout_flatten_reshape(self):
        x = RNG.normal(size=(5, 2, 6))
        assert_fast_matches_graph(Activation("tanh"), x)
        assert_fast_matches_graph(Dropout(0.5, seed=0), x)  # no-op at inference
        assert_fast_matches_graph(Flatten(), x)
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
        assert_fast_matches_graph(AveragePooling1D(pool_size=2), x)
        assert_fast_matches_graph(GlobalAveragePooling1D(), x)
        assert_fast_matches_graph(GlobalMaxPooling1D(), x)

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
    @pytest.mark.parametrize("layer_cls", [GRU, LSTM, SimpleRNN])
    def test_recurrent_layers(self, layer_cls, return_sequences):
        layer = layer_cls(units=6, return_sequences=return_sequences, seed=0)
        assert_fast_matches_graph(layer, RNG.normal(size=(4, 5, 3)))

    # With test_recurrent_layers (5 steps, batch 4) this covers steps {1, 5}
    # x batch {1, 4}; one step runs only the all-zero initial-state branch.
    @pytest.mark.parametrize("steps,batch", [(1, 1), (1, 4), (5, 1)])
    @pytest.mark.parametrize("return_sequences", [False, True])
    @pytest.mark.parametrize("layer_cls", [GRU, LSTM, SimpleRNN])
    def test_recurrent_layers_steps_and_batch(
        self, layer_cls, return_sequences, steps, batch
    ):
        layer = layer_cls(units=6, return_sequences=return_sequences, seed=0)
        assert_fast_matches_graph(layer, RNG.normal(size=(batch, steps, 3)))

    def test_merge_layers(self):
        a, b = RNG.normal(size=(3, 2, 4)), RNG.normal(size=(3, 2, 4))
        assert_fast_matches_graph(Add(), [a, b])
        assert_fast_matches_graph(Concatenate(axis=-1), [a, b])

    def test_fallback_layer_without_fast_kernel(self):
        class FallbackDense(Dense):
            def fast_call(self, inputs):  # force the base-class fallback
                return super(Dense, self).fast_call(inputs)

        assert_fast_matches_graph(FallbackDense(4, activation="relu", seed=0),
                                  RNG.normal(size=(5, 3)))

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
        network = Sequential([Flatten()])  # no units-bearing layer anywhere
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
