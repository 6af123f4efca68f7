"""The tape ``conv1d`` against the pad + im2col oracle (see ``conftest.py``).

The tape op runs one GEMM per live tap and never builds the padded input,
so its forward pass and every gradient are checked against the full
formulation, including the paper's shape: kernel 10 over one time step,
where nine of the ten taps see only padding.
"""

import numpy as np
import pytest

from repro.nn.tensor import Tensor, conv1d

RNG = np.random.default_rng(7)
KERNEL_SIZE = 10


def _dead_taps(steps, stride, padding):
    """Taps that read only padding for every output step (by brute force)."""
    if padding == "same":
        out_steps = -(-steps // stride)
        pad_left = max((out_steps - 1) * stride + KERNEL_SIZE - steps, 0) // 2
    else:
        out_steps = (steps - KERNEL_SIZE) // stride + 1
        pad_left = 0
    return [
        tap
        for tap in range(KERNEL_SIZE)
        if not any(0 <= t * stride + tap - pad_left < steps for t in range(out_steps))
    ]


@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("steps", [1, 3, 12])
def test_tape_conv1d_matches_oracle(padding, stride, steps, conv1d_oracle):
    if padding == "valid" and steps < KERNEL_SIZE:
        pytest.skip("valid padding needs steps >= kernel_size")
    x = Tensor(RNG.normal(size=(4, steps, 6)), requires_grad=True)
    kernel = Tensor(RNG.normal(size=(KERNEL_SIZE, 6, 5)), requires_grad=True)
    bias = Tensor(RNG.normal(size=5), requires_grad=True)

    output = conv1d(x, kernel, bias, stride=stride, padding=padding)
    upstream = RNG.normal(size=output.shape)
    output.backward(upstream)
    expected, grad_x, grad_kernel, grad_bias = conv1d_oracle(
        x.data, kernel.data, bias.data, stride, padding, upstream
    )

    np.testing.assert_allclose(output.data, expected, atol=1e-10, rtol=0)
    np.testing.assert_allclose(x.grad, grad_x, atol=1e-10, rtol=0)
    np.testing.assert_allclose(kernel.grad, grad_kernel, atol=1e-10, rtol=0)
    np.testing.assert_allclose(bias.grad, grad_bias, atol=1e-10, rtol=0)
    dead = _dead_taps(steps, stride, padding)
    assert np.all(kernel.grad[dead] == 0.0)


def test_paper_shape_has_one_live_tap():
    """Kernel 10 over one step: nine taps are dead and get exactly zero."""
    assert _dead_taps(1, 1, "same") == [0, 1, 2, 3, 5, 6, 7, 8, 9]
    x = Tensor(RNG.normal(size=(3, 1, 4)), requires_grad=True)
    kernel = Tensor(RNG.normal(size=(KERNEL_SIZE, 4, 4)), requires_grad=True)
    conv1d(x, kernel, padding="same").sum().backward()
    assert np.count_nonzero(np.abs(kernel.grad).sum(axis=(1, 2))) == 1
    assert np.all(kernel.grad[[0, 1, 2, 3, 5, 6, 7, 8, 9]] == 0.0)
