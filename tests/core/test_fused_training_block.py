"""The fused training node of a Pelican block against the composed chain.

On one step in training mode a :class:`PlainBlock` or
:class:`ResidualBlock` runs as one tape node whose forward and backward
inline the composed sublayer chain's arithmetic.  These tests hold it to
that chain bit for bit: the output, the input gradient, every parameter
gradient, the dropout draw and the batch-norm moving statistics, over two
training steps (the first seeds the moving statistics, the second blends
into them).  They also pin which calls take the fused path.
"""

import copy

import numpy as np
import pytest

from repro.core import PlainBlock, ResidualBlock
from repro.nn.tensor import Tensor


def composed(block, inputs):
    """The block as the chain of sublayer calls it fuses."""
    outputs, normalized = block.transform(inputs, training=True)
    if isinstance(block, ResidualBlock):
        shortcut = normalized if block.shortcut_from == "bn" else inputs
        outputs = block.merge([outputs, shortcut], training=True)
    return outputs


def fused(block, inputs):
    return block(inputs, training=True)


def make_block(kind, width, rate, batch, seed=0):
    if kind == "plain":
        block = PlainBlock(width, 10, width, dropout_rate=rate, seed=seed)
    else:
        block = ResidualBlock(
            width, 10, width, dropout_rate=rate, shortcut_from=kind, seed=seed
        )
    block.build((batch, 1, width))
    block.built = True
    # Move every parameter off its initial value (BN starts at gamma 1,
    # beta 0; biases at 0), so each gradient term is exercised.
    rng = np.random.default_rng(seed + 1)
    for parameter in block.parameters():
        parameter.data[...] = rng.normal(scale=0.5, size=parameter.shape)
    return block


def is_fused(outputs, block, inputs):
    return outputs._parents == (inputs, *block.parameters())


def run_steps(block, forward, values, upstream, input_kind):
    """Two training steps; returns every array the step produced."""
    results = []
    for step in range(2):
        leaf = Tensor(values[step], requires_grad=input_kind != "constant")
        # "node": the input is another op's output, as inside a network.
        inputs = leaf * 1.0 if input_kind == "node" else leaf
        for parameter in block.parameters():
            parameter.zero_grad()
        outputs = forward(block, inputs)
        (outputs * upstream[step]).sum().backward()
        results.append(outputs.data)
        results.append(leaf.grad if leaf.requires_grad else np.zeros(0))
        results.extend(parameter.grad for parameter in block.parameters())
        results.extend(block.get_buffers())
    results.append(block.dropout.rng.random(4))  # the generators moved alike
    return results, outputs, inputs


@pytest.mark.parametrize("batch", [1, 63, 64])
@pytest.mark.parametrize("width", [121, 196])
@pytest.mark.parametrize("rate", [0.0, 0.6])
@pytest.mark.parametrize("kind", ["plain", "bn", "input"])
def test_fused_node_equals_composed_chain(kind, rate, width, batch):
    block = make_block(kind, width, rate, batch)
    twin = copy.deepcopy(block)
    rng = np.random.default_rng(width * 1000 + batch)
    values = rng.normal(scale=2.0, size=(2, batch, 1, width))
    upstream = rng.normal(size=(2, batch, 1, width))
    for input_kind in ("constant", "node"):
        got, outputs, inputs = run_steps(block, fused, values, upstream, input_kind)
        want, _, _ = run_steps(twin, composed, values, upstream, input_kind)
        assert is_fused(outputs, block, inputs)
        assert len(got) == len(want)
        for index, (a, b) in enumerate(zip(got, want)):
            assert np.array_equal(a, b), f"{input_kind}: array {index} differs"


class RecordingGenerator:
    """A generator proxy that records every ``random`` draw."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = []

    def random(self, shape):
        draw = self.rng.random(shape)
        self.draws.append((shape, draw))
        return draw


@pytest.mark.parametrize("kind", ["plain", "bn", "input"])
def test_fused_node_draws_the_composed_dropout_mask(kind):
    block = make_block(kind, 121, 0.6, 64)
    twin = copy.deepcopy(block)
    block.dropout.rng = RecordingGenerator(block.dropout.rng)
    twin.dropout.rng = RecordingGenerator(twin.dropout.rng)
    values = np.random.default_rng(3).normal(size=(64, 1, 121))
    got = fused(block, Tensor(values)).data
    want = composed(twin, Tensor(values)).data
    assert np.array_equal(got, want)
    [(shape, draw)] = block.dropout.rng.draws
    [(twin_shape, twin_draw)] = twin.dropout.rng.draws
    assert shape == twin_shape == (64, 1, 121)
    assert np.array_equal(draw, twin_draw)


def test_inference_several_steps_and_a_projection_stay_composed():
    values = np.random.default_rng(4).normal(size=(8, 1, 12))

    block = make_block("bn", 12, 0.6, 8)
    inputs = Tensor(values)
    assert is_fused(block(inputs, training=True), block, inputs)
    assert not is_fused(block(inputs, training=False), block, inputs)

    several = ResidualBlock(12, 3, 12, dropout_rate=0.6, seed=1)
    inputs = Tensor(np.random.default_rng(5).normal(size=(8, 2, 12)))
    outputs = several(inputs, training=True)
    assert not is_fused(outputs, several, inputs)
    assert outputs.shape == (8, 1, 12)

    projected = ResidualBlock(6, 10, 6, dropout_rate=0.6, seed=2)
    inputs = Tensor(values)
    outputs = projected(inputs, training=True)
    assert projected.parameter_layer_count() == 5
    assert not is_fused(outputs, projected, inputs)
    assert outputs.shape == (8, 1, 6)


def test_backward_leaves_the_upstream_gradient_untouched():
    block = make_block("bn", 16, 0.6, 8)
    inputs = Tensor(np.random.default_rng(6).normal(size=(8, 1, 16)), requires_grad=True)
    outputs = fused(block, inputs)
    upstream = np.random.default_rng(7).normal(size=outputs.shape)
    kept = upstream.copy()
    outputs.backward(upstream)
    assert np.array_equal(upstream, kept)
    assert outputs.grad is not upstream
    assert np.array_equal(outputs.grad, kept)
