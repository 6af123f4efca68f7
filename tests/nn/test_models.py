"""Tests for the Sequential model container: training loop, history, inference."""

import gc
import weakref

import numpy as np
import pytest

import repro.nn as nn


def _toy_classification(n=200, features=6, seed=0):
    """Linearly separable two-class problem."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, features))
    labels = (X[:, 0] + X[:, 1] > 0).astype(int)
    return X, np.eye(2)[labels], labels


def _dense_model(seed=0):
    model = nn.Sequential(
        [nn.Dense(16, activation="relu", seed=seed), nn.Dense(2, activation="softmax", seed=seed)],
        seed=seed,
    )
    model.compile(optimizer=nn.Adam(0.01), loss="categorical_crossentropy", metrics=["accuracy"])
    return model


class TestSequentialBasics:
    def test_add_rejects_non_layer(self):
        model = nn.Sequential()
        with pytest.raises(TypeError):
            model.add("not-a-layer")

    def test_layers_property(self):
        model = nn.Sequential([nn.Dense(3), nn.Dense(2)])
        assert len(model.layers) == 2

    def test_forward_shape(self):
        model = nn.Sequential([nn.Dense(4), nn.Dense(2, activation="softmax")])
        out = model(np.random.default_rng(0).normal(size=(5, 3)))
        assert out.shape == (5, 2)

    def test_train_requires_compile(self):
        model = nn.Sequential([nn.Dense(2)])
        with pytest.raises(RuntimeError):
            model.train_on_batch(np.ones((2, 3)), np.ones((2, 2)))

    def test_evaluate_requires_compile(self):
        model = nn.Sequential([nn.Dense(2)])
        with pytest.raises(RuntimeError):
            model.evaluate(np.ones((2, 3)), np.ones((2, 2)))

    def test_summary_lists_layers_and_parameters(self):
        model = _dense_model()
        model(np.ones((1, 6)))
        text = model.summary()
        assert "Total trainable parameters" in text
        assert str(model.count_params()) in text or f"{model.count_params():,d}" in text


class TestTrainingLoop:
    def test_loss_decreases(self):
        X, Y, _ = _toy_classification()
        model = _dense_model()
        history = model.fit(X, Y, epochs=10, batch_size=32, verbose=0)
        assert history.history["loss"][-1] < history.history["loss"][0]

    def test_reaches_high_accuracy_on_separable_data(self):
        X, Y, labels = _toy_classification(n=300)
        model = _dense_model()
        model.fit(X, Y, epochs=20, batch_size=32, verbose=0)
        assert model.evaluate(X, Y)["accuracy"] > 0.9

    def test_fit_validates_lengths(self):
        model = _dense_model()
        with pytest.raises(ValueError):
            model.fit(np.ones((10, 3)), np.ones((8, 2)), epochs=1)

    def test_fit_validates_epochs(self):
        X, Y, _ = _toy_classification(n=20)
        model = _dense_model()
        with pytest.raises(ValueError):
            model.fit(X, Y, epochs=0)

    def test_validation_data_recorded(self):
        X, Y, _ = _toy_classification(n=120)
        model = _dense_model()
        history = model.fit(
            X[:100], Y[:100], epochs=3, batch_size=25,
            validation_data=(X[100:], Y[100:]), verbose=0,
        )
        assert "val_loss" in history.history
        assert "val_accuracy" in history.history
        assert len(history.history["val_loss"]) == 3

    def test_history_epoch_count(self):
        X, Y, _ = _toy_classification(n=60)
        model = _dense_model()
        history = model.fit(X, Y, epochs=4, batch_size=30, verbose=0)
        assert len(history.history["loss"]) == 4
        assert history.epochs == [0, 1, 2, 3]
        assert model.history is history

    def test_train_on_batch_returns_logs(self):
        X, Y, _ = _toy_classification(n=32)
        model = _dense_model()
        logs = model.train_on_batch(X, Y)
        assert set(logs) == {"loss", "accuracy"}


def _paper_shaped_model(seed=0):
    """Conv1D(kernel 10) -> max pool -> GRU -> softmax on 1-step inputs, RMSprop."""
    model = nn.Sequential(
        [
            nn.Conv1D(8, 10, activation="relu", seed=seed),
            nn.MaxPooling1D(2),
            nn.GRU(6, seed=seed),
            nn.Dense(2, activation="softmax", seed=seed),
        ]
    )
    model.compile(optimizer=nn.RMSprop(0.01), loss="categorical_crossentropy")
    return model


class TestGradientRelease:
    def test_train_on_batch_leaves_no_gradients(self):
        X, Y, _ = _toy_classification(n=32)
        model = _paper_shaped_model()
        for _ in range(2):  # the first step also builds the model
            model.train_on_batch(X[:, None, :], Y)
            assert all(parameter.grad is None for parameter in model.parameters())

    def test_weights_match_a_loop_that_keeps_gradients(self):
        X, Y, _ = _toy_classification(n=96)
        X = X[:, None, :]
        released, kept = _paper_shaped_model(), _paper_shaped_model()
        released(X[:1])
        kept(X[:1])
        for start in range(0, 96, 32):
            batch_x, batch_y = X[start:start + 32], Y[start:start + 32]
            released.train_on_batch(batch_x, batch_y)
            parameters = kept.parameters()
            kept.optimizer.zero_grad(parameters)
            kept.loss(batch_y, kept(batch_x, training=True)).backward()
            kept.optimizer.step(parameters)
        assert all(parameter.grad is not None for parameter in kept.parameters())
        for after_release, after_keep in zip(released.get_weights(), kept.get_weights()):
            assert np.array_equal(after_release, after_keep)


def _blocky_model(seed):
    """Unseeded layers, one of them a composite that registers its own."""
    block = nn.Sequential([nn.Dense(5, activation="relu"), nn.Dropout(0.5)])
    return nn.Sequential([nn.Dense(4), block, nn.Dense(2, activation="softmax")], seed=seed)


def _initial_state(model, x):
    model(x)
    return model.get_weights()


class TestSeedDerivation:
    """A model's seed alone determines every draw of its layers."""

    def test_first_step_of_a_lazily_built_model_updates_its_weights(self):
        X, Y, _ = _toy_classification(n=32)
        trained, untouched = _dense_model(), _dense_model()
        trained.train_on_batch(X, Y)  # builds the model, then steps
        initial = _initial_state(untouched, X[:0])
        after = trained.get_weights()
        assert all(not np.array_equal(a, b) for a, b in zip(after, initial))

    def test_same_seed_same_draws_whatever_was_built_before(self):
        x = np.ones((3, 6))
        first = _initial_state(_blocky_model(7), x)
        _initial_state(_blocky_model(8), x)  # an unrelated network in between
        nn.Dense(9)(x)
        second = _initial_state(_blocky_model(7), x)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_dropout_masks_and_shuffles_follow_the_seed(self):
        X, Y, _ = _toy_classification(n=40)
        runs = []
        for _ in range(2):
            model = _blocky_model(3)
            model.compile(optimizer="sgd", loss="categorical_crossentropy")
            model.fit(X, Y, epochs=2, batch_size=16)
            runs.append(model.get_weights())
        assert all(np.array_equal(a, b) for a, b in zip(*runs))

    def test_different_seeds_differ(self):
        x = np.ones((3, 6))
        first = _initial_state(_blocky_model(1), x)
        second = _initial_state(_blocky_model(2), x)
        assert not np.array_equal(first[0], second[0])

    def test_unseeded_networks_differ(self):
        x = np.ones((3, 6))
        first = _initial_state(_blocky_model(None), x)
        second = _initial_state(_blocky_model(None), x)
        assert not any(np.array_equal(a, b) for a, b in zip(first, second) if a.ndim > 1)

    def test_an_explicitly_seeded_layer_keeps_its_draws(self):
        x = np.ones((3, 6))
        alone = nn.Dense(4, seed=11)
        alone(x)
        inside = nn.Dense(4, seed=11)
        _initial_state(nn.Sequential([nn.Dense(6), inside], seed=0), x)
        assert np.array_equal(inside.kernel.data, alone.kernel.data)
        # A seed is the generator's whole input, as for default_rng(seed).
        expected = nn.initializers.glorot_uniform((6, 4), np.random.default_rng(11))
        assert np.array_equal(alone.kernel.data, expected)

    def test_layers_draw_from_distinct_streams(self):
        x = np.ones((3, 4))
        model = nn.Sequential([nn.Dense(4), nn.Dense(4)], seed=0)
        first, _, second, _ = _initial_state(model, x)
        assert not np.array_equal(first, second)


class TestReferenceCycles:
    def test_fitted_model_is_freed_without_the_cyclic_collector(self):
        """History is a plain record with no model reference: no model <->
        history cycle."""
        X, Y, _ = _toy_classification(n=40)
        gc.disable()
        try:
            model = _dense_model()
            history = model.fit(X, Y, epochs=2, batch_size=20)
            alive = weakref.ref(model)
            del model
            assert alive() is None
            assert len(history.history["loss"]) == 2
        finally:
            gc.enable()


class TestInference:
    def test_predict_shape_and_batching(self):
        X, Y, _ = _toy_classification(n=70)
        model = _dense_model()
        model.fit(X, Y, epochs=1, batch_size=35, verbose=0)
        predictions = model.predict(X, batch_size=16)
        assert predictions.shape == (70, 2)
        assert np.allclose(predictions.sum(axis=1), 1.0)

    def test_predict_classes(self):
        X, Y, labels = _toy_classification(n=80)
        model = _dense_model()
        model.fit(X, Y, epochs=15, batch_size=40, verbose=0)
        classes = model.predict_classes(X)
        assert classes.shape == (80,)
        assert np.mean(classes == labels) > 0.85

    def test_predict_on_empty_input(self):
        model = _dense_model()
        model(np.ones((1, 6)))
        assert model.predict(np.empty((0, 6))).size == 0

    def test_evaluate_returns_loss_and_metrics(self):
        X, Y, _ = _toy_classification(n=50)
        model = _dense_model()
        model.fit(X, Y, epochs=2, batch_size=25, verbose=0)
        logs = model.evaluate(X, Y)
        assert set(logs) == {"loss", "accuracy"}
        assert logs["loss"] >= 0.0


class TestWeightsRoundtrip:
    def test_get_set_weights_preserves_predictions(self):
        X, Y, _ = _toy_classification(n=50)
        model = _dense_model(seed=1)
        model.fit(X, Y, epochs=2, batch_size=25, verbose=0)
        weights = model.get_weights()
        reference = model.predict(X)

        clone = _dense_model(seed=2)
        clone(np.ones((1, 6)))  # build
        clone.set_weights(weights)
        assert np.allclose(clone.predict(X), reference)

    def test_deep_model_with_conv_and_gru_trains(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(120, 1, 10))
        labels = (X[:, 0, 0] > 0).astype(int)
        Y = np.eye(2)[labels]
        model = nn.Sequential([
            nn.Conv1D(10, 3, activation="relu"),
            nn.BatchNormalization(),
            nn.GRU(10, return_sequences=True),
            nn.GlobalAveragePooling1D(),
            nn.Dense(2, activation="softmax"),
        ], seed=0)
        model.compile(optimizer=nn.RMSprop(0.01), loss="categorical_crossentropy",
                      metrics=["accuracy"])
        history = model.fit(X, Y, epochs=6, batch_size=30, verbose=0)
        assert history.history["loss"][-1] < history.history["loss"][0]
