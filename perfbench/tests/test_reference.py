"""The independent reference, checked apart from the program."""

import numpy as np
import pytest

import reference


def _problem(field, rng, n=4, d=3, scale=0.7):
    shape = (n, d, d)
    stack = rng.standard_normal(shape)
    target = rng.standard_normal((d, d))
    if field == "complex":
        stack = stack + 1j * rng.standard_normal(shape)
        target = target + 1j * rng.standard_normal((d, d))
    return scale * stack, target


def _total(stack, target, a):
    return float(reference.l_ori(stack, target) + reference.l_reg(stack, a))


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("a", [0.0, 1.0, 10.0])
def test_gradient_matches_finite_differences(field, a):
    rng = np.random.default_rng(7)
    stack, target = _problem(field, rng)
    g = reference.grad(stack, target, a)
    h = 1e-6
    units = (1.0, 1j) if field == "complex" else (1.0,)
    worst = 0.0
    for idx in np.ndindex(stack.shape):
        for unit in units:
            plus, minus = stack.copy(), stack.copy()
            plus[idx] += unit * h
            minus[idx] -= unit * h
            fd = (_total(plus, target, a) - _total(minus, target, a)) / (2 * h)
            analytic = g[idx].real if unit == 1.0 else g[idx].imag
            worst = max(worst, abs(analytic - fd) / (1 + abs(analytic)))
    assert worst < 1e-6


def test_scalar_loss_closed_form():
    # N = 2, d = 1: L = (s - w2 w1)^2 / 2 + a/4 (w1^2 - w2^2)^2.
    w1, w2, s, a = 0.3, -1.2, 2.0, 0.5
    stack = np.array([[[w1]], [[w2]]])
    target = np.array([[s]])
    assert reference.l_ori(stack, target) == pytest.approx(0.5 * (s - w2 * w1) ** 2, rel=1e-15)
    assert reference.l_reg(stack, a) == pytest.approx(a / 4 * (w1**2 - w2**2) ** 2, rel=1e-15)
    g = reference.grad(stack, target, a)[:, 0, 0]
    r = s - w2 * w1
    delta = w1**2 - w2**2
    assert g[0] == pytest.approx(-w2 * r + a * delta * w1, rel=1e-14)
    assert g[1] == pytest.approx(-w1 * r - a * w2 * delta, rel=1e-14)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_rk4_is_fourth_order_and_gd_is_one_euler_step(field):
    rng = np.random.default_rng(3)
    stack, target = _problem(field, rng, scale=0.5)
    a = 1.0

    def flow(h, n):
        x = stack
        for _ in range(n):
            x = reference.rk4_step(x, target, a, h)
        return x

    fine = flow(0.0025, 16)
    err_h = np.abs(flow(0.02, 2) - fine).max()
    err_h2 = np.abs(flow(0.01, 4) - fine).max()
    assert 12 < err_h / err_h2 < 28  # 2^4 = 16 for a fourth-order method
    eta = 0.01
    np.testing.assert_allclose(
        reference.gd_step(stack, target, a, eta), stack - eta * reference.grad(stack, target, a)
    )


def test_batch_axis_is_independent_problems():
    rng = np.random.default_rng(5)
    probs = [_problem("complex", rng) for _ in range(3)]
    stacks = np.stack([p[0] for p in probs])
    targets = np.stack([p[1] for p in probs])
    batched = reference.grad(stacks, targets, 1.0)
    for k, (s, t) in enumerate(probs):
        np.testing.assert_allclose(batched[k], reference.grad(s, t, 1.0), rtol=1e-13, atol=1e-15)


def test_first_converged_step_counts_gd_steps():
    # Scalar N = 2 problem from a balanced start converges; the reported step
    # is the first index with l_ori below the threshold.
    stack = np.array([[[0.9]], [[0.9]]])
    target = np.array([[1.0]])
    first = int(reference.first_converged_step(stack, target, 0.0, 0.1, 1e-8, 10_000))
    path = reference.l_ori_path(stack, target, 0.0, first, 1, eta=0.1)
    assert path[-1] < 1e-8 <= path[-2]
