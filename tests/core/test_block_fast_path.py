"""The blocks' straight-line fast path: bit-equal, input-preserving, lean.

:meth:`PlainBlock.fast_transform` runs the whole block as one body that
works in place on the arrays it allocates.  These tests hold it to the
sublayer-by-sublayer ``fast_forward`` chain it replaced (bitwise, not
within a tolerance), check that no block writes into its caller's array,
and cap the peak allocation of one paper-shape block.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import NetworkConfig, PlainBlock, ResidualBlock, build_pelican

RNG = np.random.default_rng(11)


def chain_oracle(block, inputs):
    """The block as a chain of sublayer ``fast_forward`` calls."""
    normalized = block.input_norm.fast_forward(inputs)
    features = block.convolution.fast_forward(normalized)
    features = block.pooling.fast_forward(features)
    features = block.recurrent_norm.fast_forward(features)
    features = block.recurrent.fast_forward(features)
    features = block.reshape.fast_forward(features)
    features = block.dropout.fast_forward(features)
    if not isinstance(block, ResidualBlock):
        return features
    shortcut = normalized if block.shortcut_from == "bn" else inputs
    batch, steps, channels = shortcut.shape
    if steps != 1:
        shortcut = shortcut.mean(axis=1).reshape(batch, 1, channels)
    if channels != block.recurrent_units:
        shortcut = block._projection.fast_forward(shortcut)
    return features + shortcut


#: (block class, shortcut source, input channels); units are always 6, so
#: 5 input channels force the residual projection.
VARIANTS = [
    (PlainBlock, None, 6),
    (ResidualBlock, "bn", 6),
    (ResidualBlock, "bn", 5),
    (ResidualBlock, "input", 6),
    (ResidualBlock, "input", 5),
]


def make_block(block_cls, shortcut_from, channels, steps):
    kwargs = {} if shortcut_from is None else {"shortcut_from": shortcut_from}
    block = block_cls(filters=6, kernel_size=4, recurrent_units=6, seed=3, **kwargs)
    # One training batch seeds the BN moving statistics away from (0, 1).
    block(RNG.normal(loc=0.5, scale=2.0, size=(16, steps, channels)), training=True)
    return block


def read_only(x):
    x = np.array(x)
    x.flags.writeable = False
    return x


@pytest.mark.parametrize("steps", [1, 5])
@pytest.mark.parametrize("block_cls,shortcut_from,channels", VARIANTS)
class TestBlockFastPath:
    def test_bit_equal_to_the_sublayer_chain(
        self, block_cls, shortcut_from, channels, steps
    ):
        block = make_block(block_cls, shortcut_from, channels, steps)
        x = RNG.normal(size=(9, steps, channels))
        assert np.array_equal(block.fast_forward(x), chain_oracle(block, x))

    def test_leaves_a_read_only_input_untouched(
        self, block_cls, shortcut_from, channels, steps
    ):
        block = make_block(block_cls, shortcut_from, channels, steps)
        x = read_only(RNG.normal(size=(9, steps, channels)))
        before = x.copy()
        outputs = block.fast_forward(x)
        np.testing.assert_array_equal(x, before)
        assert not np.shares_memory(outputs, x)


def test_fast_predict_leaves_a_read_only_input_untouched():
    config = NetworkConfig(
        filters=12, kernel_size=10, recurrent_units=12, dropout_rate=0.4,
        epochs=1, learning_rate=0.01, batch_size=16,
    )
    network = build_pelican(num_classes=5, config=config, seed=0)
    x = read_only(RNG.normal(size=(40, 1, 12)))
    before = x.copy()
    frozen = network.predict(x, batch_size=16, fast=True)
    np.testing.assert_array_equal(x, before)
    assert np.array_equal(frozen, network.predict(before, batch_size=16, fast=True))


def test_paper_shape_block_peak_allocation():
    """One Pelican block on a 256-record batch allocates at most five batches.

    The block needs the normalized input (kept for the shortcut), the
    convolution output and the GRU's two gate products: four
    ``(256, 121)`` float64 arrays.  A temporary reintroduced on the fast
    path pushes the peak past the fifth.
    """
    features = 121
    block = ResidualBlock(
        filters=features, kernel_size=10, recurrent_units=features, seed=0
    )
    x = RNG.normal(size=(256, 1, features))
    block.fast_forward(x)  # build, and cache the folded BN constants
    tracemalloc.start()
    try:
        block.fast_call(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * x.nbytes, f"peak {peak} B is {peak / x.nbytes:.2f} batches"
