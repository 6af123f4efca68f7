"""Unit tests for the autodiff engine: forward values and basic backward flow."""

import numpy as np
import pytest

from repro.nn import tensor as ops
from repro.nn.tensor import Tensor, no_grad


class TestTensorBasics:
    def test_construction_from_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.ndim == 2
        assert t.size == 4

    def test_construction_from_tensor_copies_reference(self):
        base = Tensor([1.0, 2.0])
        wrapped = Tensor(base)
        assert np.array_equal(wrapped.data, base.data)

    def test_backward_requires_scalar_without_gradient(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            t.backward()

    def test_repr_mentions_shape(self):
        assert "shape=(2,)" in repr(Tensor([1.0, 2.0]))

    def test_len(self):
        assert len(Tensor([1.0, 2.0, 3.0])) == 3

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2.0).sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None


class TestArithmetic:
    def test_add_values(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
        assert np.allclose((a + b).data, [4.0, 6.0])

    def test_add_gradients(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])
        assert np.allclose(b.grad, [1.0, 1.0])

    def test_add_broadcasting_gradient(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        assert np.allclose(b.grad, 3.0)

    def test_scalar_add(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a + 5.0).sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])

    def test_subtraction(self):
        a, b = Tensor([5.0]), Tensor([2.0])
        assert np.allclose((a - b).data, [3.0])
        assert np.allclose((2.0 - b).data, [0.0])

    def test_multiplication_gradient(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0], requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, [4.0, 5.0])
        assert np.allclose(b.grad, [2.0, 3.0])

    def test_division(self):
        a = Tensor([8.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).sum().backward()
        assert np.allclose(a.grad, [0.5])
        assert np.allclose(b.grad, [-2.0])

    def test_negation(self):
        a = Tensor([1.0, -2.0])
        assert np.allclose((-a).data, [-1.0, 2.0])

    def test_power_gradient(self):
        a = Tensor([3.0], requires_grad=True)
        (a ** 2).sum().backward()
        assert np.allclose(a.grad, [6.0])

    def test_gradient_accumulates_when_reused(self):
        a = Tensor([2.0], requires_grad=True)
        ((a * 3.0) + (a * 4.0)).sum().backward()
        assert np.allclose(a.grad, [7.0])

    def test_exp_log_roundtrip(self):
        a = Tensor([0.5, 1.5])
        assert np.allclose(ops.log(ops.exp(a)).data, a.data)

    def test_clip_gradient_masks_outside_range(self):
        a = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        ops.clip(a, 0.0, 1.0).sum().backward()
        assert np.allclose(a.grad, [0.0, 1.0, 0.0])


class TestActivations:
    def test_relu_values_and_gradient(self):
        a = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
        out = ops.relu(a)
        assert np.allclose(out.data, [0.0, 0.0, 2.0])
        out.sum().backward()
        assert np.allclose(a.grad, [0.0, 0.0, 1.0])

    def test_hard_sigmoid_matches_keras_definition(self):
        a = Tensor([-3.0, -2.5, 0.0, 2.5, 3.0])
        assert np.allclose(ops.hard_sigmoid(a).data, [0.0, 0.0, 0.5, 1.0, 1.0])

    def test_tanh_gradient(self):
        a = Tensor([0.0], requires_grad=True)
        ops.tanh(a).sum().backward()
        assert np.allclose(a.grad, [1.0])

    def test_softmax_rows_sum_to_one(self):
        a = Tensor(np.random.default_rng(0).normal(size=(4, 6)))
        out = ops.softmax(a).data
        assert np.allclose(out.sum(axis=-1), 1.0)
        assert (out > 0).all()

    def test_softmax_shift_invariance(self):
        a = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(
            ops.softmax(Tensor(a)).data, ops.softmax(Tensor(a + 100.0)).data
        )


class TestReductionsAndShapes:
    def test_sum_axis(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = a.sum(axis=0)
        assert np.allclose(out.data, [3.0, 5.0, 7.0])
        out.sum().backward()
        assert np.allclose(a.grad, np.ones((2, 3)))

    def test_mean_gradient_scaling(self):
        a = Tensor(np.ones((4, 5)), requires_grad=True)
        a.mean().backward()
        assert np.allclose(a.grad, 1.0 / 20.0)

    def test_reshape_roundtrip(self):
        a = Tensor(np.arange(12.0), requires_grad=True)
        out = a.reshape(3, 4)
        assert out.shape == (3, 4)
        out.sum().backward()
        assert a.grad.shape == (12,)

    def test_transpose(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        assert a.T.shape == (3, 2)
        assert ops.transpose(a, (1, 0)).shape == (3, 2)

    def test_getitem_gradient_scatters(self):
        a = Tensor(np.arange(10.0), requires_grad=True)
        a[2:5].sum().backward()
        expected = np.zeros(10)
        expected[2:5] = 1.0
        assert np.allclose(a.grad, expected)

    def test_concatenate_and_gradient_split(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        out = ops.concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        out.sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (2, 2)

    def test_stack(self):
        a, b = Tensor(np.ones(3), requires_grad=True), Tensor(np.zeros(3))
        out = ops.stack([a, b], axis=0)
        assert out.shape == (2, 3)
        out.sum().backward()
        assert np.allclose(a.grad, 1.0)


class TestMatmul:
    def test_matmul_values(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        assert np.allclose((a @ b).data, [[17.0], [39.0]])

    def test_matmul_gradients(self):
        a = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        b = Tensor(np.random.default_rng(1).normal(size=(4, 2)), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4, 2)


class TestNoGrad:
    def test_no_grad_disables_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = (a * 2.0).sum()
        assert out._parents == ()
        assert out._backward is None

    def test_no_grad_restores_state(self):
        with no_grad():
            pass
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0).sum().backward()
        assert a.grad is not None


class TestGradientOwnership:
    """``backward`` keeps a fresh gradient as is, and copies any other."""

    def test_add_parents_do_not_share_one_gradient(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        total = a + b
        total.backward(np.arange(3.0))
        assert a.grad is not b.grad
        assert a.grad is not total.grad
        a.grad += 1.0
        assert np.array_equal(b.grad, np.arange(3.0))
        assert np.array_equal(total.grad, np.arange(3.0))

    def test_the_callers_gradient_is_copied(self):
        a = Tensor(np.ones(3), requires_grad=True)
        seed = np.arange(3.0)
        a.backward(seed)
        assert a.grad is not seed
        a.grad += 1.0
        assert np.array_equal(seed, np.arange(3.0))

    def test_a_view_is_copied(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        a.reshape(6).backward(np.arange(6.0))
        assert a.grad.base is None
        assert np.array_equal(a.grad, np.arange(6.0).reshape(2, 3))

    def test_a_fresh_gradient_is_kept(self):
        a = Tensor(np.ones(3), requires_grad=True)
        product = a * 2.0
        product.backward(np.arange(3.0))
        assert a.grad.base is None
        assert np.array_equal(a.grad, 2.0 * np.arange(3.0))


class TestDropoutOp:
    def test_dropout_scales_surviving_units(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((100, 100)))
        out = ops.dropout(x, 0.5, rng=rng).data
        surviving = out[out > 0]
        assert np.allclose(surviving, 2.0)
        assert 0.4 < (out > 0).mean() < 0.6

    def test_dropout_rate_zero_is_identity(self):
        x = Tensor(np.ones((5, 5)))
        assert ops.dropout(x, 0.0) is x

    def test_dropout_rate_one_rejected(self):
        with pytest.raises(ValueError):
            ops.dropout(Tensor(np.ones(3)), 1.0)
