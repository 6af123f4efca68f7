"""The tape ``conv1d`` and ``max_pool1d`` against the oracles in ``conftest.py``.

The tape op runs one GEMM per live tap and never builds the padded input,
so its forward pass and every gradient are checked against the full
formulation, including the paper's shape: kernel 10 over one time step,
where nine of the ten taps see only padding.  Even kernels pad one step
more on the right than on the left.
"""

import numpy as np
import pytest

from repro.nn.tensor import Tensor, conv1d, max_pool1d

RNG = np.random.default_rng(7)
KERNEL_SIZE = 10


def _dead_taps(steps, kernel_size=KERNEL_SIZE):
    """Taps that read only padding for every output step (by brute force)."""
    pad_left = (kernel_size - 1) // 2
    return [
        tap
        for tap in range(kernel_size)
        if not any(0 <= t + tap - pad_left < steps for t in range(steps))
    ]


# 1 step (the paper's shape), 3 and 5 steps (kernel 10 is wider than the
# steps: dead taps on both sides, odd and even pads) and 12 steps (every tap
# live).  Kernel 1 has no padding; kernels 2 and 3 pad unevenly and evenly.
@pytest.mark.parametrize("kernel_size", [1, 2, 3, KERNEL_SIZE])
@pytest.mark.parametrize("steps", [1, 3, 5, 12])
def test_tape_conv1d_matches_oracle(steps, kernel_size, conv1d_oracle):
    x = Tensor(RNG.normal(size=(4, steps, 6)), requires_grad=True)
    kernel = Tensor(RNG.normal(size=(kernel_size, 6, 5)), requires_grad=True)
    bias = Tensor(RNG.normal(size=5), requires_grad=True)

    output = conv1d(x, kernel, bias)
    upstream = RNG.normal(size=output.shape)
    output.backward(upstream)
    expected, grad_x, grad_kernel, grad_bias = conv1d_oracle(
        x.data, kernel.data, bias.data, 1, "same", upstream
    )

    np.testing.assert_allclose(output.data, expected, atol=1e-10, rtol=0)
    np.testing.assert_allclose(x.grad, grad_x, atol=1e-10, rtol=0)
    np.testing.assert_allclose(kernel.grad, grad_kernel, atol=1e-10, rtol=0)
    np.testing.assert_allclose(bias.grad, grad_bias, atol=1e-10, rtol=0)
    dead = _dead_taps(steps, kernel_size)
    assert np.all(kernel.grad[dead] == 0.0)


# Pool 2 pads only on the right; pools 3 and 4 also pad on the left once the
# step count is not a multiple.  Odd step counts end in a right-padded window.
@pytest.mark.parametrize("pool_size", [2, 3, 4])
@pytest.mark.parametrize("steps", [1, 4, 5, 9])
def test_tape_max_pool1d_matches_oracle(steps, pool_size, max_pool1d_oracle):
    x = Tensor(RNG.normal(size=(3, steps, 4)), requires_grad=True)

    output = max_pool1d(x, pool_size)
    upstream = RNG.normal(size=output.shape)
    output.backward(upstream)
    expected, grad_x = max_pool1d_oracle(x.data, pool_size, upstream)

    assert output.shape == (3, -(-steps // pool_size), 4)
    np.testing.assert_array_equal(output.data, expected)
    np.testing.assert_allclose(x.grad, grad_x, atol=1e-12, rtol=0)


def test_paper_shape_has_one_live_tap():
    """Kernel 10 over one step: nine taps are dead and get exactly zero."""
    assert _dead_taps(1) == [0, 1, 2, 3, 5, 6, 7, 8, 9]
    x = Tensor(RNG.normal(size=(3, 1, 4)), requires_grad=True)
    kernel = Tensor(RNG.normal(size=(KERNEL_SIZE, 4, 4)), requires_grad=True)
    conv1d(x, kernel, np.zeros(4)).sum().backward()
    assert np.count_nonzero(np.abs(kernel.grad).sum(axis=(1, 2))) == 1
    assert np.all(kernel.grad[[0, 1, 2, 3, 5, 6, 7, 8, 9]] == 0.0)
