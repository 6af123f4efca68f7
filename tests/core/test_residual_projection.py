"""Regression tests: the residual shortcut projection is built eagerly.

Before the fix, a :class:`ResidualBlock` whose input channel count differs
from ``recurrent_units`` only created its 1x1 projection convolution inside
the first forward pass — so ``count_params()`` and weight serialization on a
built-but-never-run block silently omitted it.
"""

import numpy as np
import pytest

from repro.core import ResidualBlock
from repro.nn.serialization import load_state, save_state


def make_block(seed=0):
    # 8 input channels vs 12 recurrent units forces the projection.
    return ResidualBlock(
        filters=8, kernel_size=3, recurrent_units=12, dropout_rate=0.2, seed=seed
    )


class TestEagerProjection:
    def test_projection_exists_after_build_without_forward(self):
        block = make_block()
        block.build((4, 1, 8))
        assert block._projection is not None
        assert block._projection.built
        assert block.parameter_layer_count() == 5

    def test_count_params_stable_across_first_forward(self):
        block = make_block()
        block.build((4, 1, 8))
        params_before = block.count_params()
        block(np.random.default_rng(0).normal(size=(4, 1, 8)))
        assert block.count_params() == params_before

    def test_weights_roundtrip_without_forward(self, tmp_path):
        source = make_block(seed=1)
        source.build((4, 1, 8))
        source.built = True
        target = make_block(seed=2)
        target.build((4, 1, 8))
        target.built = True
        path = save_state(source, tmp_path / "block.npz")
        load_state(target, path)

        x = np.random.default_rng(3).normal(size=(5, 1, 8))
        np.testing.assert_allclose(
            target(x, training=False).data,
            source(x, training=False).data,
            atol=1e-12,
        )

    def test_identity_shortcut_builds_no_projection(self):
        block = ResidualBlock(filters=8, kernel_size=3, recurrent_units=8)
        block.build((4, 1, 8))
        assert block._projection is None
        assert block.parameter_layer_count() == 4

    def test_fast_path_matches_graph_path_with_projection(self):
        block = make_block()
        x = np.random.default_rng(4).normal(size=(6, 1, 8))
        graph = block(x, training=False).data
        fast = block.fast_forward(x)
        np.testing.assert_allclose(fast, graph, atol=1e-12, rtol=0)

    def test_lazy_creation_still_works_when_build_is_skipped(self):
        # Calling the block directly (Layer.__call__ runs build first) must
        # keep working even for exotic code paths that bypass build().
        block = make_block()
        out = block(np.random.default_rng(5).normal(size=(3, 1, 8)))
        assert out.shape == (3, 1, 12)
        assert block._projection is not None
