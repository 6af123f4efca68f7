"""Unit tests for losses, optimizers, initializers and training metrics."""

import numpy as np
import pytest

from repro.nn import initializers, losses, metrics, optimizers
from repro.nn.tensor import Tensor


class TestLosses:
    def test_categorical_crossentropy_perfect_prediction(self):
        y_true = np.array([[1.0, 0.0], [0.0, 1.0]])
        y_pred = Tensor([[1.0, 0.0], [0.0, 1.0]])
        loss = losses.CategoricalCrossentropy()(y_true, y_pred)
        assert float(loss.data) < 1e-5

    def test_categorical_crossentropy_uniform_prediction(self):
        y_true = np.array([[1.0, 0.0, 0.0, 0.0]])
        y_pred = Tensor([[0.25, 0.25, 0.25, 0.25]])
        loss = losses.CategoricalCrossentropy()(y_true, y_pred)
        assert float(loss.data) == pytest.approx(np.log(4.0), rel=1e-6)

    def test_categorical_crossentropy_shape_mismatch(self):
        with pytest.raises(ValueError):
            losses.CategoricalCrossentropy()(np.ones((2, 3)), Tensor(np.ones((2, 4))))

    def test_categorical_crossentropy_gradient_direction(self):
        y_true = np.array([[1.0, 0.0]])
        y_pred = Tensor([[0.3, 0.7]], requires_grad=True)
        losses.CategoricalCrossentropy()(y_true, y_pred).backward()
        # Increasing the probability of the true class must reduce the loss.
        assert y_pred.grad[0, 0] < 0

    def test_get_loss_by_name(self):
        assert isinstance(
            losses.get_loss("categorical_crossentropy"), losses.CategoricalCrossentropy
        )

    def test_get_loss_unknown(self):
        with pytest.raises(ValueError):
            losses.get_loss("hinge-of-doom")


def _quadratic_parameter():
    """A parameter whose loss is (x - 3)^2, minimised at 3."""
    return Tensor(np.array([0.0]), requires_grad=True)


def _run_optimizer(optimizer, steps=200):
    parameter = _quadratic_parameter()
    for _ in range(steps):
        parameter.zero_grad()
        loss = ((parameter - 3.0) ** 2).sum()
        loss.backward()
        optimizer.step([parameter])
    return float(parameter.data[0])


class TestOptimizers:
    @pytest.mark.parametrize(
        "optimizer,steps",
        [
            (optimizers.SGD(learning_rate=0.1), 300),
            (optimizers.RMSprop(learning_rate=0.05), 300),
            (optimizers.Adam(learning_rate=0.1), 300),
        ],
        ids=["sgd", "rmsprop", "adam"],
    )
    def test_converges_on_quadratic(self, optimizer, steps):
        final = _run_optimizer(optimizer, steps=steps)
        assert final == pytest.approx(3.0, abs=0.15)

    def test_step_skips_parameters_without_gradient(self):
        parameter = Tensor(np.ones(3), requires_grad=True)
        optimizer = optimizers.SGD(learning_rate=0.1)
        optimizer.step([parameter])
        assert np.allclose(parameter.data, 1.0)

    def test_zero_grad(self):
        parameter = Tensor(np.ones(3), requires_grad=True)
        parameter.grad = np.ones(3)
        optimizers.SGD().zero_grad([parameter])
        assert parameter.grad is None

    def test_rmsprop_in_place_update_is_the_expression(self):
        # RMSprop updates its average and the parameter in place; the bits
        # must equal the textbook expression's.
        rng = np.random.default_rng(5)
        parameter = Tensor(rng.normal(size=(7, 5)), requires_grad=True)
        expected = parameter.data.copy()
        average = np.zeros_like(expected)
        optimizer = optimizers.RMSprop(learning_rate=0.01)
        for _ in range(4):
            grad = rng.normal(size=expected.shape)
            parameter.grad = grad
            optimizer.step([parameter])
            average = 0.9 * average + (1.0 - 0.9) * grad ** 2
            expected -= 0.01 * grad / (np.sqrt(average) + 1e-7)
            assert np.array_equal(parameter.data, expected)

    def test_iterations_counter(self):
        optimizer = optimizers.Adam()
        parameter = Tensor(np.ones(2), requires_grad=True)
        parameter.grad = np.ones(2)
        optimizer.step([parameter])
        assert optimizer.iterations == 1

    def test_invalid_learning_rate(self):
        with pytest.raises(ValueError):
            optimizers.SGD(learning_rate=0.0)

    def test_get_optimizer_by_name(self):
        optimizer = optimizers.get_optimizer("rmsprop", learning_rate=0.01)
        assert isinstance(optimizer, optimizers.RMSprop)
        assert optimizer.learning_rate == pytest.approx(0.01)

    def test_get_optimizer_passthrough(self):
        instance = optimizers.Adam()
        assert optimizers.get_optimizer(instance) is instance

    def test_get_optimizer_unknown(self):
        with pytest.raises(ValueError):
            optimizers.get_optimizer("lion")


class TestInitializers:
    def test_zeros_and_ones(self):
        rng = np.random.default_rng(0)
        assert np.allclose(initializers.zeros((3, 2), rng), 0.0)
        assert np.allclose(initializers.ones((3, 2), rng), 1.0)

    def test_glorot_uniform_bounds(self):
        rng = np.random.default_rng(0)
        values = initializers.glorot_uniform((100, 100), rng)
        limit = np.sqrt(6.0 / 200)
        assert np.abs(values).max() <= limit

    def test_orthogonal_is_orthogonal(self):
        rng = np.random.default_rng(0)
        matrix = initializers.orthogonal((16, 16), rng)
        assert np.allclose(matrix @ matrix.T, np.eye(16), atol=1e-8)

    def test_orthogonal_rectangular(self):
        rng = np.random.default_rng(0)
        matrix = initializers.orthogonal((4, 12), rng)
        assert matrix.shape == (4, 12)
        assert np.allclose(matrix @ matrix.T, np.eye(4), atol=1e-8)

    def test_orthogonal_rejects_vectors(self):
        with pytest.raises(ValueError):
            initializers.orthogonal((5,), np.random.default_rng(0))

    def test_conv_fan_computation(self):
        rng = np.random.default_rng(0)
        values = initializers.glorot_uniform((3, 4, 8), rng)
        assert values.shape == (3, 4, 8)

    def test_get_initializer_unknown(self):
        with pytest.raises(ValueError):
            initializers.get_initializer("mystery")


class TestTrainingMetrics:
    def test_categorical_accuracy(self):
        y_true = np.array([[1, 0], [0, 1], [1, 0]])
        y_pred = np.array([[0.9, 0.1], [0.2, 0.8], [0.3, 0.7]])
        assert metrics.categorical_accuracy(y_true, y_pred) == pytest.approx(2 / 3)

    def test_get_metric_unknown(self):
        with pytest.raises(ValueError):
            metrics.get_metric("auprc")
