"""Unit tests for the layer library (shapes, parameters, training/inference modes)."""

import numpy as np
import pytest

from repro.nn import layers as L
from repro.nn import tensor as ops
from repro.nn.tensor import Tensor

RNG = np.random.default_rng(7)


class TestDense:
    def test_output_shape(self):
        layer = L.Dense(8)
        out = layer(RNG.normal(size=(4, 5)))
        assert out.shape == (4, 8)

    def test_parameter_shapes(self):
        layer = L.Dense(8)
        layer(RNG.normal(size=(4, 5)))
        kernel, bias = layer.parameters()
        assert kernel.shape == (5, 8)
        assert bias.shape == (8,)

    def test_softmax_activation_rows_sum_to_one(self):
        layer = L.Dense(5, activation="softmax")
        out = layer(RNG.normal(size=(6, 3)))
        assert np.allclose(out.data.sum(axis=1), 1.0)

    def test_invalid_units(self):
        with pytest.raises(ValueError):
            L.Dense(0)

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            L.Dense(3, activation="swishy")

    def test_count_params(self):
        layer = L.Dense(10)
        layer(RNG.normal(size=(1, 4)))
        assert layer.count_params() == 4 * 10 + 10


class TestDropoutReshape:
    def test_dropout_inactive_at_inference(self):
        layer = L.Dropout(0.5)
        x = np.ones((10, 10))
        assert np.allclose(layer(x, training=False).data, 1.0)

    def test_dropout_active_in_training(self):
        layer = L.Dropout(0.5, seed=0)
        out = layer(np.ones((50, 50)), training=True).data
        assert (out == 0.0).any()

    def test_dropout_invalid_rate(self):
        with pytest.raises(ValueError):
            L.Dropout(1.0)

    def test_reshape(self):
        out = L.Reshape((2, 4))(RNG.normal(size=(3, 8)))
        assert out.shape == (3, 2, 4)

    def test_reshape_mismatch_raises(self):
        with pytest.raises(ValueError):
            L.Reshape((3, 3))(RNG.normal(size=(2, 8)))


class TestConv1D:
    def test_same_padding_preserves_steps(self):
        layer = L.Conv1D(16, 3)
        out = layer(RNG.normal(size=(2, 7, 4)))
        assert out.shape == (2, 7, 16)

    def test_single_timestep_input(self):
        # The paper's (1, features) inputs with kernel size 10.
        layer = L.Conv1D(121, 10)
        out = layer(RNG.normal(size=(3, 1, 121)))
        assert out.shape == (3, 1, 121)

    def test_relu_activation_nonnegative(self):
        layer = L.Conv1D(4, 3, activation="relu")
        out = layer(RNG.normal(size=(2, 5, 3)))
        assert (out.data >= 0).all()

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            L.Conv1D(4, 3)(RNG.normal(size=(2, 5)))

    def test_parameter_count(self):
        layer = L.Conv1D(6, 5)
        layer(RNG.normal(size=(1, 4, 3)))
        assert layer.count_params() == 5 * 3 * 6 + 6

    def test_one_step_keeps_only_the_centre_tap(self):
        """On 1 step with ``same`` padding only tap (k - 1) // 2 reads input."""
        layer = L.Conv1D(6, 10, seed=3)
        layer(RNG.normal(size=(2, 1, 3)))
        assert layer.kernel.shape == (1, 3, 6)
        assert layer.count_params() == 3 * 6 + 6

    def test_one_step_initial_kernel_is_the_full_kernels_centre_tap(self):
        one_step, full = L.Conv1D(6, 10, seed=3), L.Conv1D(6, 10, seed=3)
        one_step(RNG.normal(size=(2, 1, 3)))
        full(RNG.normal(size=(2, 4, 3)))
        assert full.kernel.shape == (10, 3, 6)
        assert np.array_equal(one_step.kernel.data, full.kernel.data[4:5])

    def test_one_step_output_is_the_full_kernels_output(self):
        one_step, full = L.Conv1D(6, 10, seed=3), L.Conv1D(6, 10, seed=3)
        full(RNG.normal(size=(2, 4, 3)))
        x = RNG.normal(size=(5, 1, 3))
        expected = ops.conv1d(x, full.kernel, full.bias).data
        assert np.array_equal(one_step(x).data, expected)
        assert np.array_equal(one_step.fast_forward(x), expected)

    def test_one_step_layer_rejects_more_steps(self):
        layer = L.Conv1D(6, 10)
        layer(RNG.normal(size=(2, 1, 3)))
        with pytest.raises(ValueError, match="built on 1 time step"):
            layer(RNG.normal(size=(2, 4, 3)))
        with pytest.raises(ValueError, match="built on 1 time step"):
            layer.fast_forward(RNG.normal(size=(2, 4, 3)))


class TestPooling:
    def test_maxpool_shape(self):
        out = L.MaxPooling1D(2)(RNG.normal(size=(2, 6, 3)))
        assert out.shape == (2, 3, 3)

    def test_maxpool_values(self):
        x = np.array([[[1.0], [5.0], [2.0], [4.0]]])
        out = L.MaxPooling1D(2)(x)
        assert np.allclose(out.data.reshape(-1), [5.0, 4.0])

    def test_maxpool_odd_steps_pads_right(self):
        """Five steps in windows of 2: the last window is one real step
        and one ``-inf`` pad on the right."""
        x = np.array([[[1.0], [5.0], [2.0], [4.0], [3.0]]])
        out = L.MaxPooling1D(2)(x)
        assert np.array_equal(out.data.reshape(-1), [5.0, 4.0, 3.0])

    def test_maxpool_single_step_same_padding(self):
        out = L.MaxPooling1D(2)(RNG.normal(size=(2, 1, 5)))
        assert out.shape == (2, 1, 5)

    def test_global_average_pooling(self):
        x = np.ones((2, 4, 3))
        out = L.GlobalAveragePooling1D()(x)
        assert out.shape == (2, 3)
        assert np.allclose(out.data, 1.0)

    def test_invalid_pool_size(self):
        with pytest.raises(ValueError):
            L.MaxPooling1D(0)


class TestBatchNormalization:
    def test_training_normalizes_batch(self):
        layer = L.BatchNormalization()
        x = RNG.normal(loc=5.0, scale=3.0, size=(64, 1, 8))
        out = layer(x, training=True).data
        assert np.abs(out.mean(axis=(0, 1))).max() < 1e-6
        assert np.abs(out.std(axis=(0, 1)) - 1.0).max() < 1e-2

    def test_moving_statistics_updated(self):
        layer = L.BatchNormalization()
        x = RNG.normal(loc=2.0, size=(32, 4))
        layer(x, training=True)
        assert np.abs(layer._buffers["moving_mean"] - 2.0).max() < 1.0

    def test_inference_uses_moving_statistics(self):
        layer = L.BatchNormalization()
        x = RNG.normal(loc=3.0, scale=2.0, size=(256, 6))
        for _ in range(20):
            layer(x, training=True)
        out = layer(x, training=False).data
        assert np.abs(out.mean(axis=0)).max() < 0.2

    def test_parameters_are_gamma_and_beta(self):
        layer = L.BatchNormalization()
        layer(RNG.normal(size=(4, 3)), training=True)
        assert {p.shape for p in layer.parameters()} == {(3,)}
        assert len(layer.parameters()) == 2


def _full_gate_gru(kernel, recurrent_kernel, bias, inputs):
    """One GRU step on h_0 == 0 with every gate multiplied out (Keras layout)."""
    units = recurrent_kernel.shape[0]
    hidden = Tensor(np.zeros((inputs.shape[0], units)))
    x_t = inputs[:, 0, :]
    gates_x = ops.matmul(x_t, kernel) + bias
    gates_h = ops.matmul(hidden, recurrent_kernel)
    update = ops.hard_sigmoid(gates_x[:, 0:units] + gates_h[:, 0:units])
    reset = ops.hard_sigmoid(gates_x[:, units:2 * units] + gates_h[:, units:2 * units])
    candidate = ops.tanh(
        gates_x[:, 2 * units:3 * units] + reset * gates_h[:, 2 * units:3 * units]
    )
    return update * hidden + (1.0 - update) * candidate


def _update_and_candidate(array, units):
    """The [z | c] columns a 1-step GRU keeps of a Keras [z | r | c] array."""
    return np.concatenate([array[..., :units], array[..., 2 * units:]], axis=-1)


class TestRecurrent:
    def test_gru_output_shape_last_state(self):
        layer = L.GRU(12)
        out = layer(RNG.normal(size=(3, 5, 7)))
        assert out.shape == (3, 12)

    def test_gru_return_sequences(self):
        layer = L.GRU(12, return_sequences=True)
        out = layer(RNG.normal(size=(3, 5, 7)))
        assert out.shape == (3, 5, 12)

    def test_gru_parameter_shapes(self):
        layer = L.GRU(4)
        layer(RNG.normal(size=(2, 3, 6)))
        shapes = {p.name.split("/")[-1]: p.shape for p in layer.parameters()}
        assert shapes["kernel"] == (6, 12)
        assert shapes["recurrent_kernel"] == (4, 12)
        assert shapes["bias"] == (12,)

    def test_gru_single_timestep(self):
        layer = L.GRU(196)
        out = layer(RNG.normal(size=(2, 1, 196)))
        assert out.shape == (2, 196)

    def test_lstm_output_shape(self):
        layer = L.LSTM(9)
        out = layer(RNG.normal(size=(2, 4, 5)))
        assert out.shape == (2, 9)

    def test_lstm_parameter_shapes(self):
        layer = L.LSTM(4)
        layer(RNG.normal(size=(2, 3, 6)))
        shapes = {p.name.split("/")[-1]: p.shape for p in layer.parameters()}
        assert shapes["kernel"] == (6, 16)
        assert shapes["recurrent_kernel"] == (4, 16)

    def test_recurrent_rejects_2d_input(self):
        with pytest.raises(ValueError):
            L.GRU(4)(RNG.normal(size=(3, 5)))

    def test_invalid_units(self):
        with pytest.raises(ValueError):
            L.GRU(0)

    def test_gru_one_step_keeps_update_and_candidate_columns(self):
        layer = L.GRU(4)
        layer(RNG.normal(size=(2, 1, 6)))
        shapes = {p.name.split("/")[-1]: p.shape for p in layer.parameters()}
        assert shapes == {"kernel": (6, 8), "bias": (8,)}
        assert not hasattr(layer, "recurrent_kernel")

    def test_gru_one_step_initial_kernel_is_the_full_kernels_live_columns(self):
        one_step, full = L.GRU(5, seed=2), L.GRU(5, seed=2)
        one_step(RNG.normal(size=(2, 1, 3)))
        full(RNG.normal(size=(2, 3, 3)))
        assert np.array_equal(
            one_step.kernel.data, _update_and_candidate(full.kernel.data, 5)
        )
        assert np.array_equal(one_step.bias.data, np.zeros(10))

    def test_gru_one_step_layer_rejects_more_steps(self):
        layer = L.GRU(4)
        layer(RNG.normal(size=(2, 1, 6)))
        with pytest.raises(ValueError, match="built on 1 time step"):
            layer(RNG.normal(size=(2, 3, 6)))
        with pytest.raises(ValueError, match="built on 1 time step"):
            layer.fast_forward(RNG.normal(size=(2, 3, 6)))

    def test_gru_zero_state_step_matches_full_gate_formula(self):
        """A 1-step GRU stores only the [z | c] columns and no recurrent
        kernel; it equals the full (z, r, c) formula on the full-shape
        kernel it was sliced from, output and gradients bit for bit (the
        tape multiplies the full layout's GEMM shapes, so BLAS sums in the
        same order; 2 * units-column GEMMs differ at this size)."""
        units, batch, features = 121, 64, 121
        layer, full = L.GRU(units, seed=0), L.GRU(units, seed=0)
        full(RNG.normal(size=(batch, 2, features)))
        full.bias.data = RNG.normal(size=3 * units)
        layer.build((batch, 1, features))
        layer.built = True
        layer.bias.data = _update_and_candidate(full.bias.data, units)
        assert not hasattr(layer, "recurrent_kernel")

        x = Tensor(RNG.normal(size=(batch, 1, features)), requires_grad=True)
        upstream = RNG.normal(size=(batch, units))
        output = layer(x)
        output.backward(upstream)
        grad_x = x.grad
        x.zero_grad()
        expected = _full_gate_gru(full.kernel, full.recurrent_kernel, full.bias, x)
        expected.backward(upstream)

        assert np.array_equal(output.data, expected.data)
        assert np.array_equal(
            layer.kernel.grad, _update_and_candidate(full.kernel.grad, units)
        )
        assert np.array_equal(
            layer.bias.grad, _update_and_candidate(full.bias.grad, units)
        )
        assert np.array_equal(grad_x, x.grad)
        # The dropped entries are the ones the full formula gives no gradient.
        assert np.all(full.kernel.grad[:, units:2 * units] == 0.0)
        assert np.all(full.bias.grad[units:2 * units] == 0.0)
        assert np.all(full.recurrent_kernel.grad == 0.0)

    def test_gru_gradients_flow_to_all_parameters(self):
        layer = L.GRU(5)
        out = layer(Tensor(RNG.normal(size=(2, 3, 4)), requires_grad=True))
        out.sum().backward()
        for parameter in layer.parameters():
            assert parameter.grad is not None
            assert np.isfinite(parameter.grad).all()


class TestMergeLayers:
    def test_add(self):
        layer = L.Add()
        a, b = np.ones((2, 3)), np.full((2, 3), 2.0)
        assert np.allclose(layer([a, b]).data, 3.0)

    def test_add_requires_matching_shapes(self):
        with pytest.raises(ValueError):
            L.Add()([np.ones((2, 3)), np.ones((2, 4))])

    def test_add_requires_two_inputs(self):
        with pytest.raises(ValueError):
            L.Add()([np.ones((2, 3))])


class TestLayerBase:
    def test_unique_default_names(self):
        first, second = L.Dense(3), L.Dense(3)
        assert first.name != second.name

    def test_get_set_weights_roundtrip(self):
        layer = L.Dense(4, seed=0)
        layer(RNG.normal(size=(2, 3)))
        weights = layer.get_weights()
        layer.set_weights([w * 0.0 for w in weights])
        assert all(np.allclose(w, 0.0) for w in layer.get_weights())

    def test_set_weights_shape_mismatch(self):
        layer = L.Dense(4)
        layer(RNG.normal(size=(2, 3)))
        with pytest.raises(ValueError):
            layer.set_weights([np.zeros((5, 5)), np.zeros(4)])
