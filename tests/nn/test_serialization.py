"""Tests for model persistence: save_state / load_state write and read the
weights and the buffers (batch-norm moving statistics) in one archive."""

import numpy as np
import pytest

import repro.nn as nn
from repro.nn.serialization import load_state, save_state


def _model(seed=0):
    model = nn.Sequential(
        [nn.Dense(8, activation="relu", seed=seed), nn.Dense(3, activation="softmax", seed=seed)],
        seed=seed,
    )
    model.compile(optimizer=nn.Adam(0.01), loss="categorical_crossentropy")
    return model


class TestSerialization:
    def test_roundtrip_preserves_predictions(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 5))
        Y = np.eye(3)[rng.integers(0, 3, size=40)]
        model = _model(seed=1)
        model.fit(X, Y, epochs=2, batch_size=20, verbose=0)
        reference = model.predict(X)

        saved = save_state(model, tmp_path / "detector")
        assert saved.suffix == ".npz"
        assert saved.exists()

        clone = _model(seed=2)
        clone(np.zeros((1, 5)))  # build
        load_state(clone, saved)
        assert np.allclose(clone.predict(X), reference)

    def test_load_accepts_path_without_suffix(self, tmp_path):
        model = _model()
        model(np.zeros((1, 4)))
        save_state(model, tmp_path / "weights")
        clone = _model()
        clone(np.zeros((1, 4)))
        load_state(clone, tmp_path / "weights")

    def test_saving_unbuilt_model_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_state(nn.Sequential([nn.Dense(4)]), tmp_path / "empty")

    def test_loading_into_wrong_architecture_rejected(self, tmp_path):
        model = _model()
        model(np.zeros((1, 6)))
        saved = save_state(model, tmp_path / "m")

        other = nn.Sequential([nn.Dense(2)])
        other(np.zeros((1, 6)))
        with pytest.raises(ValueError):
            load_state(other, saved)

    def test_shape_mismatch_rejected(self, tmp_path):
        model = _model()
        model(np.zeros((1, 6)))
        saved = save_state(model, tmp_path / "m")

        different_width = _model()
        different_width(np.zeros((1, 7)))
        with pytest.raises(ValueError):
            load_state(different_width, saved)

    def test_shape_mismatch_names_the_offending_array(self, tmp_path):
        """The error carries the array index and qualified parameter name,
        not just a bare positional complaint."""
        model = _model()
        model(np.zeros((1, 6)))
        saved = save_state(model, tmp_path / "m")

        different_width = _model()
        different_width(np.zeros((1, 7)))
        with pytest.raises(ValueError, match=r"weight 0 \('.*kernel'\)"):
            load_state(different_width, saved)

    def test_shape_mismatch_leaves_the_model_untouched(self, tmp_path):
        model = _model()
        model(np.zeros((1, 6)))
        saved = save_state(model, tmp_path / "m")

        different_width = _model()
        different_width(np.zeros((1, 7)))
        before = [w.copy() for w in different_width.get_weights()]
        with pytest.raises(ValueError):
            load_state(different_width, saved)
        after = different_width.get_weights()
        assert all(np.array_equal(b, a) for b, a in zip(before, after))

    def test_count_mismatch_is_reported(self, tmp_path):
        model = _model()
        model(np.zeros((1, 6)))
        saved = save_state(model, tmp_path / "m")

        shallower = nn.Sequential([nn.Dense(3)])
        shallower(np.zeros((1, 6)))
        with pytest.raises(ValueError, match="count mismatch"):
            load_state(shallower, saved)

    def test_multi_step_weights_do_not_load_into_a_one_step_build(self, tmp_path):
        """A 1-step Conv1D keeps one tap and a 1-step GRU no recurrent
        kernel, so a file saved from the full layout fails to load and the
        error names the first array that differs."""

        def conv_gru():
            return nn.Sequential(
                [nn.Conv1D(4, 10, name="conv"), nn.GRU(5, name="gru")]
            )

        full = conv_gru()
        full(np.zeros((1, 3, 2)))
        saved = save_state(full, tmp_path / "full")

        one_step = conv_gru()
        one_step(np.zeros((1, 1, 2)))
        with pytest.raises(
            ValueError,
            match=r"count mismatch.*first difference: weight 0 \('conv/kernel'\)"
            r".*expects shape \(1, 2, 4\), source has \(10, 2, 4\)",
        ):
            load_state(one_step, saved)

    def test_save_state_roundtrips_buffers_bitwise(self, tmp_path):
        model = nn.Sequential(
            [nn.BatchNormalization(), nn.Dense(3, activation="softmax", seed=0)], seed=0
        )
        model.compile(optimizer=nn.Adam(0.01), loss="categorical_crossentropy")
        rng = np.random.default_rng(3)
        X = rng.normal(2.0, 3.0, size=(64, 5))
        Y = np.eye(3)[rng.integers(0, 3, size=64)]
        model.fit(X, Y, epochs=2, batch_size=16, verbose=0)
        reference = model.predict(X, fast=True)

        saved = save_state(model, tmp_path / "full-state")
        clone = nn.Sequential(
            [nn.BatchNormalization(), nn.Dense(3, activation="softmax", seed=9)]
        )
        clone(np.zeros((1, 5)))
        load_state(clone, saved)
        assert np.array_equal(clone.get_buffers()[0], model.get_buffers()[0])
        assert np.array_equal(clone.predict(X, fast=True), reference)

    def test_bn_free_model_roundtrips_without_buffers(self, tmp_path):
        """A model without batch norm has no buffers: its archive holds
        weights only, and loads as such."""
        model = _model()
        model(np.zeros((1, 4)))
        assert model.get_buffers() == []
        saved = save_state(model, tmp_path / "w")
        with np.load(saved) as archive:
            assert all(key.startswith("weight_") for key in archive.files)
        clone = _model(seed=5)
        clone(np.zeros((1, 4)))
        load_state(clone, saved)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(clone.get_weights(), model.get_weights())
        )

    def test_restored_bn_keeps_momentum_semantics(self):
        """set_buffers marks the moving statistics as seeded: the next
        training batch blends into them instead of overwriting them."""
        bn = nn.BatchNormalization()
        bn(np.zeros((4, 5)))
        restored_mean = np.full(5, 7.0)
        restored_var = np.full(5, 2.0)
        bn.set_buffers([restored_mean, restored_var])

        rng = np.random.default_rng(0)
        batch = rng.normal(size=(32, 5))
        bn(batch, training=True)
        new_mean = bn.get_buffers()[0]
        expected = 0.9 * restored_mean + 0.1 * batch.mean(axis=0)
        assert np.allclose(new_mean, expected)

    def test_residual_block_weights_roundtrip(self, tmp_path):
        from repro.core import NetworkConfig, build_residual_network

        config = NetworkConfig(
            filters=10, kernel_size=3, recurrent_units=10, dropout_rate=0.2,
            epochs=1, learning_rate=0.01, batch_size=8,
        )
        network = build_residual_network(2, 4, config, seed=0)
        x = np.random.default_rng(1).normal(size=(5, 1, 10))
        reference = network(x, training=False).data
        saved = save_state(network, tmp_path / "pelican")

        clone = build_residual_network(2, 4, config, seed=9)
        clone(x)  # build with different random init
        load_state(clone, saved)
        assert np.allclose(clone(x, training=False).data, reference)
