"""Numerical gradient checks for every differentiable primitive.

These are the tests that keep the hand-written autodiff honest: each op's
analytic backward pass is compared against central differences.
"""

import numpy as np
import pytest

from repro.nn import GRU, Conv1D
from repro.nn import tensor as ops
from repro.nn.gradcheck import check_gradient
from repro.nn.tensor import Tensor

RNG = np.random.default_rng(42)


def _tensor(shape, scale=1.0):
    return Tensor(RNG.normal(scale=scale, size=shape), requires_grad=True)


def _assert_gradient(func, inputs, tolerance=1e-4):
    ok, error = check_gradient(func, inputs, tolerance=tolerance)
    assert ok, f"gradient mismatch: max relative error {error:.2e}"


class TestElementwiseGradients:
    def test_add(self):
        _assert_gradient(lambda t: t[0] + t[1], [_tensor((3, 4)), _tensor((3, 4))])

    def test_add_broadcast(self):
        _assert_gradient(lambda t: t[0] + t[1], [_tensor((3, 4)), _tensor((4,))])

    def test_mul(self):
        _assert_gradient(lambda t: t[0] * t[1], [_tensor((2, 5)), _tensor((2, 5))])

    def test_division(self):
        denominator = Tensor(RNG.uniform(1.0, 2.0, size=(3, 3)), requires_grad=True)
        _assert_gradient(lambda t: t[0] / t[1], [_tensor((3, 3)), denominator])

    def test_power(self):
        base = Tensor(RNG.uniform(0.5, 2.0, size=(4,)), requires_grad=True)
        _assert_gradient(lambda t: t[0] ** 3, [base])

    def test_exp(self):
        _assert_gradient(lambda t: ops.exp(t[0]), [_tensor((3, 3), scale=0.5)])

    def test_log(self):
        positive = Tensor(RNG.uniform(0.5, 3.0, size=(4, 2)), requires_grad=True)
        _assert_gradient(lambda t: ops.log(t[0]), [positive])

    def test_relu(self):
        # Keep values away from the kink at zero for a clean numerical check.
        values = RNG.normal(size=(4, 4))
        values[np.abs(values) < 0.1] = 0.5
        _assert_gradient(lambda t: ops.relu(t[0]), [Tensor(values, requires_grad=True)])

    def test_tanh(self):
        _assert_gradient(lambda t: ops.tanh(t[0]), [_tensor((3, 4))])

    def test_hard_sigmoid(self):
        values = RNG.uniform(-2.0, 2.0, size=(5,))
        _assert_gradient(
            lambda t: ops.hard_sigmoid(t[0]), [Tensor(values, requires_grad=True)]
        )

    def test_softmax(self):
        _assert_gradient(lambda t: ops.softmax(t[0]), [_tensor((3, 6))])


class TestLinearAlgebraGradients:
    def test_matmul(self):
        _assert_gradient(lambda t: t[0] @ t[1], [_tensor((3, 4)), _tensor((4, 2))])

    def test_matmul_batched_left(self):
        _assert_gradient(lambda t: t[0] @ t[1], [_tensor((2, 3, 4)), _tensor((4, 5))])


class TestReductionGradients:
    def test_sum_all(self):
        _assert_gradient(lambda t: t[0].sum(), [_tensor((3, 4))])

    def test_sum_axis_keepdims(self):
        _assert_gradient(lambda t: t[0].sum(axis=1, keepdims=True), [_tensor((3, 4))])

    def test_mean_axis(self):
        _assert_gradient(lambda t: t[0].mean(axis=0), [_tensor((3, 4))])


class TestShapeGradients:
    def test_reshape(self):
        _assert_gradient(lambda t: t[0].reshape(6, 2), [_tensor((3, 4))])

    def test_transpose(self):
        _assert_gradient(lambda t: ops.transpose(t[0], (1, 0, 2)), [_tensor((2, 3, 4))])

    def test_getitem(self):
        _assert_gradient(lambda t: t[0][:, 1:3], [_tensor((3, 5))])

    def test_getitem_repeated_fancy_index_accumulates(self):
        _assert_gradient(lambda t: t[0][[0, 2, 0, 0]], [_tensor((3, 4))])
        _assert_gradient(lambda t: t[0][:, [1, 1, 3]], [_tensor((3, 4))])

    def test_concatenate(self):
        _assert_gradient(
            lambda t: ops.concatenate([t[0], t[1]], axis=1),
            [_tensor((2, 3)), _tensor((2, 4))],
        )

    def test_stack(self):
        _assert_gradient(
            lambda t: ops.stack([t[0], t[1]], axis=1), [_tensor((2, 3)), _tensor((2, 3))]
        )


class TestConvolutionGradients:
    def test_conv1d_same_padding(self):
        _assert_gradient(
            lambda t: ops.conv1d(t[0], t[1], t[2]),
            [_tensor((2, 6, 3)), _tensor((3, 3, 4)), _tensor((4,))],
        )

    def test_conv1d_kernel_wider_than_steps(self):
        # Kernel 10 over 3 steps: taps 0 and 9 read only padding (dead taps).
        _assert_gradient(
            lambda t: ops.conv1d(t[0], t[1], t[2]),
            [_tensor((2, 3, 2)), _tensor((10, 2, 3)), _tensor((3,))],
        )

    def test_conv1d_single_timestep(self):
        # The paper's networks run the convolution over (1, features) inputs.
        _assert_gradient(
            lambda t: ops.conv1d(t[0], t[1], t[2]),
            [_tensor((3, 1, 5)), _tensor((4, 5, 5)), _tensor((5,))],
        )

    def test_maxpool(self):
        values = RNG.normal(size=(2, 6, 3))
        _assert_gradient(
            lambda t: ops.max_pool1d(t[0], pool_size=2),
            [Tensor(values, requires_grad=True)],
        )

    def test_maxpool_odd_steps(self):
        # Five steps in windows of 2: the last window has a right pad.
        values = RNG.normal(size=(2, 5, 3))
        _assert_gradient(
            lambda t: ops.max_pool1d(t[0], pool_size=2),
            [Tensor(values, requires_grad=True)],
        )

    def test_maxpool_single_timestep(self):
        values = RNG.normal(size=(2, 1, 4))
        _assert_gradient(
            lambda t: ops.max_pool1d(t[0], pool_size=2),
            [Tensor(values, requires_grad=True)],
        )

    def test_global_average_pool(self):
        _assert_gradient(lambda t: ops.global_average_pool1d(t[0]), [_tensor((2, 4, 3))])


class TestConv1dErrors:
    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            ops.conv1d(
                Tensor(np.ones((1, 4, 3))), Tensor(np.ones((2, 5, 4))), Tensor(np.ones(4))
            )


class TestRecurrentGradients:
    def test_gru_single_timestep(self):
        # The paper's shape: the layer keeps only the [z | c] columns.
        layer = GRU(3, seed=0)
        x = _tensor((2, 1, 4), scale=0.5)
        layer(x)
        layer.bias.data = RNG.normal(size=layer.bias.shape) * 0.1
        assert layer.kernel.shape == (4, 6)
        _assert_gradient(lambda t: layer(t[0]), [x, layer.kernel, layer.bias])

    def test_conv1d_layer_single_timestep(self):
        # The paper's shape: kernel 10 stored as its one live tap.
        layer = Conv1D(5, 10, seed=0)
        x = _tensor((3, 1, 4))
        layer(x)
        assert layer.kernel.shape == (1, 4, 5)
        _assert_gradient(lambda t: layer(t[0]), [x, layer.kernel, layer.bias])

    def test_gru_multistep(self):
        # After the first step the state is non-zero: the recurrent matmul and
        # the reset gate are live and the recurrent kernel gets a real gradient.
        layer = GRU(3, return_sequences=True, seed=0)
        x = _tensor((2, 3, 4), scale=0.5)
        layer(x)
        _assert_gradient(
            lambda t: layer(t[0]),
            [x, layer.kernel, layer.recurrent_kernel, layer.bias],
        )


class TestFusedBlockGradients:
    """A Pelican block's one-node training step (see ``repro.core.blocks``)."""

    @pytest.mark.parametrize("shortcut_from", [None, "bn", "input"])
    def test_block_training_step(self, shortcut_from):
        from repro.core import PlainBlock, ResidualBlock

        if shortcut_from is None:
            block = PlainBlock(4, 10, 4, dropout_rate=0.6, seed=0)
        else:
            block = ResidualBlock(
                4, 10, 4, dropout_rate=0.6, shortcut_from=shortcut_from, seed=0
            )
        x = _tensor((6, 1, 4))
        block.build(x.shape)
        block.built = True
        for parameter in block.parameters():
            parameter.data[...] = RNG.normal(scale=0.5, size=parameter.shape)
        weights = RNG.normal(size=(6, 1, 4))

        def step(t):
            block.dropout.rng = np.random.default_rng(3)  # one mask throughout
            outputs = block(t[0] * 1.0, training=True)
            assert outputs._parents[1:] == tuple(block.parameters())
            return outputs * weights

        _assert_gradient(step, [x, *block.parameters()])
