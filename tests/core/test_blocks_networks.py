"""Tests for the plain/residual blocks and the Section V-C network builders."""

import numpy as np
import pytest

from repro.core import (
    NetworkConfig,
    PlainBlock,
    ResidualBlock,
    blocks_for_depth,
    build_hast_ids,
    build_lunet,
    build_network,
    build_pelican,
    build_plain21,
    build_plain41,
    build_plain_network,
    build_residual21,
    build_residual_network,
    compile_for_paper,
    get_paper_config,
    lunet_depth_sweep,
    parameter_layer_count,
)
from repro.nn.tensor import Tensor

#: A miniature Table-I style configuration for fast tests.
TINY = NetworkConfig(
    filters=12, kernel_size=3, recurrent_units=12, dropout_rate=0.3,
    epochs=2, learning_rate=0.01, batch_size=16,
)

RNG = np.random.default_rng(0)


def _inputs(batch=6, features=12):
    return RNG.normal(size=(batch, 1, features))


class TestPlainBlock:
    def test_output_shape_preserved(self):
        block = PlainBlock(12, 3, 12, dropout_rate=0.3)
        out = block(_inputs())
        assert out.shape == (6, 1, 12)

    def test_parameter_layer_count_is_four(self):
        block = PlainBlock(12, 3, 12)
        block(_inputs())
        assert block.parameter_layer_count() == 4

    def test_has_bn_conv_bn_gru_parameters(self):
        block = PlainBlock(12, 3, 12)
        block(_inputs())
        names = {p.name.split("/")[-1] for p in block.parameters()}
        assert "kernel" in names            # conv + gru kernels
        assert "gamma" in names             # batch-norm scales
        # One step from a zero state: the GRU keeps no recurrent kernel
        # (the multi-step layout is covered by test_gru_parameter_shapes).
        assert "recurrent_kernel" not in names
        assert block.convolution.kernel.shape == (1, 12, 12)
        assert block.recurrent.kernel.shape == (12, 24)

    def test_dropout_only_in_training(self):
        block = PlainBlock(12, 3, 12, dropout_rate=0.6, seed=0)
        x = _inputs()
        inference_1 = block(x, training=False).data
        inference_2 = block(x, training=False).data
        assert np.allclose(inference_1, inference_2)

    def test_gradients_reach_all_parameters(self):
        block = PlainBlock(12, 3, 12, dropout_rate=0.0)
        out = block(Tensor(_inputs(), requires_grad=False), training=True)
        out.sum().backward()
        for parameter in block.parameters():
            assert parameter.grad is not None


class TestResidualBlock:
    def test_output_shape_preserved(self):
        block = ResidualBlock(12, 3, 12, dropout_rate=0.3)
        assert block(_inputs()).shape == (6, 1, 12)

    def test_identity_shortcut_adds_bn_output(self):
        """With the transformation path zeroed, the block must output exactly
        the shortcut (the first BN's output) — the defining residual property."""
        block = ResidualBlock(12, 3, 12, dropout_rate=0.0)
        x = _inputs()
        block(x)  # build
        # Zero the GRU contribution by zeroing its kernels and bias.
        for parameter in block.recurrent.parameters():
            parameter.data[...] = 0.0
        expected = block.input_norm(x, training=False).data
        out = block(x, training=False).data
        assert np.allclose(out, expected, atol=1e-8)

    def test_shortcut_from_input_option(self):
        block = ResidualBlock(12, 3, 12, dropout_rate=0.0, shortcut_from="input")
        x = _inputs()
        block(x)
        for parameter in block.recurrent.parameters():
            parameter.data[...] = 0.0
        out = block(x, training=False).data
        assert np.allclose(out, x, atol=1e-8)

    def test_invalid_shortcut_option(self):
        with pytest.raises(ValueError):
            ResidualBlock(12, 3, 12, shortcut_from="everywhere")

    def test_projection_inserted_when_units_differ(self):
        block = ResidualBlock(filters=8, kernel_size=3, recurrent_units=8)
        out = block(RNG.normal(size=(4, 1, 12)))  # 12 input features vs 8 units
        assert out.shape == (4, 1, 8)
        assert block.parameter_layer_count() == 5  # projection adds one layer

    def test_projection_handles_multi_step_inputs(self):
        block = ResidualBlock(filters=6, kernel_size=3, recurrent_units=6)
        out = block(RNG.normal(size=(4, 3, 6)))
        assert out.shape == (4, 1, 6)

    def test_no_projection_for_paper_configuration(self):
        block = ResidualBlock(12, 3, 12)
        block(_inputs())
        assert block._projection is None
        assert block.parameter_layer_count() == 4


class TestParameterLayerArithmetic:
    def test_five_blocks_is_21_layers(self):
        assert parameter_layer_count(5) == 21

    def test_ten_blocks_is_41_layers(self):
        assert parameter_layer_count(10) == 41

    def test_blocks_for_depth_inverse(self):
        assert blocks_for_depth(21) == 5
        assert blocks_for_depth(41) == 10

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            parameter_layer_count(0)
        with pytest.raises(ValueError):
            blocks_for_depth(1)

    def test_lunet_depth_sweep_range(self):
        assert list(lunet_depth_sweep(max_blocks=10)) == list(range(1, 11))
        with pytest.raises(ValueError):
            lunet_depth_sweep(max_blocks=0)


class TestNetworkBuilders:
    def test_build_network_block_count(self):
        network = build_network(3, num_classes=5, config=TINY, residual=True)
        block_layers = [l for l in network.layers if isinstance(l, PlainBlock)]
        assert len(block_layers) == 3
        assert all(isinstance(l, ResidualBlock) for l in block_layers)

    def test_plain_builder_uses_plain_blocks(self):
        network = build_plain_network(2, num_classes=5, config=TINY)
        block_layers = [l for l in network.layers if isinstance(l, PlainBlock)]
        assert not any(isinstance(l, ResidualBlock) for l in block_layers)

    def test_named_builders_block_counts(self):
        assert len([l for l in build_plain21(5, TINY).layers if isinstance(l, PlainBlock)]) == 5
        assert len([l for l in build_plain41(5, TINY).layers if isinstance(l, PlainBlock)]) == 10
        assert len([l for l in build_residual21(5, TINY).layers if isinstance(l, ResidualBlock)]) == 5
        assert len([l for l in build_pelican(5, TINY).layers if isinstance(l, ResidualBlock)]) == 10

    def test_pelican_is_residual_41(self):
        network = build_pelican(5, TINY)
        blocks = [l for l in network.layers if isinstance(l, ResidualBlock)]
        assert parameter_layer_count(len(blocks)) == 41

    def test_output_is_class_distribution(self):
        network = build_residual_network(2, num_classes=5, config=TINY)
        out = network(_inputs())
        assert out.shape == (6, 5)
        assert np.allclose(out.data.sum(axis=1), 1.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_network(0, 5, TINY)
        with pytest.raises(ValueError):
            build_network(2, 1, TINY)

    def test_compile_for_paper_uses_rmsprop(self):
        from repro.nn.optimizers import RMSprop

        network = compile_for_paper(build_residual_network(1, 5, TINY), TINY)
        assert isinstance(network.optimizer, RMSprop)
        assert network.optimizer.learning_rate == pytest.approx(TINY.learning_rate)

    def test_lunet_is_plain_block_stack(self):
        network = build_lunet(5, TINY, num_blocks=2)
        blocks = [l for l in network.layers if isinstance(l, PlainBlock)]
        assert len(blocks) == 2
        assert not any(isinstance(l, ResidualBlock) for l in blocks)

    def test_hast_ids_builds_and_classifies(self):
        network = build_hast_ids(5, TINY)
        out = network(_inputs())
        assert out.shape == (6, 5)
        assert np.allclose(out.data.sum(axis=1), 1.0)

    def test_hast_ids_rejects_single_class(self):
        with pytest.raises(ValueError):
            build_hast_ids(1, TINY)

    def test_deep_network_trains_one_step(self):
        network = compile_for_paper(build_residual_network(2, 3, TINY, seed=0), TINY)
        x = _inputs(batch=12)
        y = np.eye(3)[RNG.integers(0, 3, size=12)]
        logs = network.train_on_batch(x, y)
        assert np.isfinite(logs["loss"])


class TestPaperShapeParameters:
    """Pelican-41 on NSL-KDD stores only the parameters its 1-step input uses."""

    @staticmethod
    def _pelican41():
        config = get_paper_config("nsl-kdd")
        network = compile_for_paper(build_pelican(5, config), config)
        network.predict(np.empty((0, 1, 121)))  # builds without compute
        return network

    def test_pelican41_on_nslkdd_has_448310_parameters(self):
        """Also after one RMSprop step, which keeps one running average per
        stored entry (2,352,850 in the full Keras layout)."""
        network = self._pelican41()
        assert network.count_params() == 448_310
        x = _inputs(batch=8, features=121)
        y = np.eye(5)[RNG.integers(0, 5, size=8)]
        network.train_on_batch(x, y)
        state = network.optimizer._state.values()
        entries = sum(array.size for slot in state for array in slot.values())
        assert entries == 448_310
