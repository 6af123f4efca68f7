"""The blocks' straight-line fast path: exact, input-preserving, lean.

:meth:`PlainBlock.fast_transform` runs the whole block as one body that
works in place on the arrays it allocates.  These tests hold it to the
sublayer-by-sublayer ``fast_forward`` chain it replaced: bitwise on
several steps, and within float64 round-off on one step, where the second
batch norm and the GRU run as one stacked gate product with folded
weights.  They also check that no block writes into its caller's array,
that a 1-step block never falls back to the GRU's own fast call, and cap
the peak allocation of one paper-shape block.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import (
    NetworkConfig,
    PlainBlock,
    ResidualBlock,
    build_pelican,
    compile_for_paper,
)
from repro.nn import GRU

RNG = np.random.default_rng(11)

CONFIG = NetworkConfig(
    filters=12, kernel_size=10, recurrent_units=12, dropout_rate=0.4,
    epochs=1, learning_rate=0.01, batch_size=16,
)


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
        """Bitwise on several steps; on one step the folded gates reorder
        the float64 sums, so within round-off."""
        block = make_block(block_cls, shortcut_from, channels, steps)
        x = RNG.normal(size=(9, steps, channels))
        if steps == 1:
            np.testing.assert_allclose(
                block.fast_forward(x), chain_oracle(block, x), atol=1e-12, rtol=0
            )
        else:
            assert np.array_equal(block.fast_forward(x), chain_oracle(block, x))

    def test_an_empty_batch_gives_an_empty_output(
        self, block_cls, shortcut_from, channels, steps
    ):
        block = make_block(block_cls, shortcut_from, channels, steps)
        for dtype in (np.float64, np.float32):
            outputs = block.fast_forward(np.zeros((0, steps, channels), dtype))
            assert outputs.shape == (0, 1, 6) and outputs.dtype == dtype

    def test_one_step_never_runs_the_grus_own_fast_call(
        self, block_cls, shortcut_from, channels, steps, monkeypatch
    ):
        """One step serves the folded gates; a silent fallback to the GRU's
        own body would still be exact, so only this spy can tell."""
        block = make_block(block_cls, shortcut_from, channels, steps)
        calls = []
        fast_call = GRU.fast_call

        def spy(self, inputs):
            calls.append(inputs.dtype)
            return fast_call(self, inputs)

        monkeypatch.setattr(GRU, "fast_call", spy)
        x = RNG.normal(size=(9, steps, channels))
        block.fast_forward(x)
        block.fast_forward(x.astype(np.float32))
        assert calls == ([] if steps == 1 else [np.float64, np.float32])

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
    network = build_pelican(num_classes=5, config=CONFIG, seed=0)
    x = read_only(RNG.normal(size=(40, 1, CONFIG.filters)))
    before = x.copy()
    frozen = network.predict(x, batch_size=16, fast=True)
    np.testing.assert_array_equal(x, before)
    assert np.array_equal(frozen, network.predict(before, batch_size=16, fast=True))


def assert_fast_matches_the_tape(network, x):
    """float64 fast within 1e-6 of the tape, float32 within 1e-5."""
    tape = network.predict(x)
    np.testing.assert_allclose(network.predict(x, fast=True), tape, atol=1e-6, rtol=0)
    np.testing.assert_allclose(
        network.predict(x.astype(np.float32), fast=True), tape, atol=1e-5, rtol=0
    )
    return tape


@pytest.mark.parametrize("change", ["set_weights", "set_buffers", "optimizer_step"])
def test_no_stale_gate_fold_after_a_weight_change(change):
    """The folded gates (and their float32 copies) follow every weight
    change: an optimizer step (with its training-mode batch norms), a
    weight load and a moving-statistics load."""
    rng = np.random.default_rng(4)
    network = compile_for_paper(
        build_pelican(num_classes=5, config=CONFIG, seed=0), CONFIG
    )
    x = rng.normal(size=(48, 1, CONFIG.filters))
    y = np.eye(5)[rng.integers(0, 5, 48)]
    network.fit(x, y, epochs=1, batch_size=16)  # real BN moving statistics
    before = assert_fast_matches_the_tape(network, x)  # caches both folds
    if change == "set_weights":
        network.set_weights([w + rng.normal(scale=0.1, size=w.shape)
                             for w in network.get_weights()])
    elif change == "set_buffers":
        network.set_buffers([b + rng.uniform(0.1, 1.0, size=b.shape)
                             for b in network.get_buffers()])
    else:
        network.train_on_batch(x[:16], y[:16])
    after = assert_fast_matches_the_tape(network, x)
    assert np.abs(after - before).max() > 1e-3


def test_paper_shape_block_peak_allocation():
    """One Pelican block on a 256-record batch allocates at most five batches.

    The block needs the normalized input (kept for the shortcut), the
    convolution output and the stacked gate product, one ``(2, 256, 121)``
    array: four ``(256, 121)`` float64 batches.  A temporary reintroduced
    on the fast path pushes the peak past the fifth.
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
