"""Independent reference for the factorlab loss, gradient, GD and RK4 steps.

Written from the loss formula in ``perfbench/README.md``, not from
``factorlab.dynamics``:

    L(W_1..W_N) = 1/2 ||S - W_N ... W_1||_F^2
                + a/4 sum_{j=1}^{N-1} ||W_j W_j^H - W_{j+1}^H W_{j+1}||_F^2

A stack is one array of shape ``(..., N, d, d)`` with ``[..., j, :, :]``
holding ``W_{j+1}``; any leading axes are independent problems, so the
same code checks one trajectory or several sweep seeds at once.  The
gradient convention is ``dL/dRe + i dL/dIm`` (for real stacks, the plain
gradient): with it, ``dL = Re <G, dW>`` and one update rule serves both
fields.
"""

from __future__ import annotations

import numpy as np


def _h(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return np.conj(np.swapaxes(x, -1, -2))


def _chain(stack: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``W_hi ... W_{lo+1}`` (0-based layers ``lo..hi-1``); identity when empty."""
    d = stack.shape[-1]
    out = np.broadcast_to(np.eye(d, dtype=stack.dtype), stack.shape[:-3] + (d, d)).copy()
    for k in range(lo, hi):
        out = stack[..., k, :, :] @ out
    return out


def product(stack: np.ndarray) -> np.ndarray:
    """``W_N ... W_1``."""
    return _chain(stack, 0, stack.shape[-3])


def _sq_fro(x: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(x) ** 2, axis=(-1, -2))


def l_ori(stack: np.ndarray, target: np.ndarray) -> np.ndarray:
    return 0.5 * _sq_fro(target - product(stack))


def _defects(stack: np.ndarray) -> list[np.ndarray]:
    """``D_j = W_j W_j^H - W_{j+1}^H W_{j+1}`` for j = 1..N-1."""
    n = stack.shape[-3]
    out = []
    for j in range(n - 1):
        wj, wn = stack[..., j, :, :], stack[..., j + 1, :, :]
        out.append(wj @ _h(wj) - _h(wn) @ wn)
    return out


def l_reg(stack: np.ndarray, a: float) -> np.ndarray:
    return 0.25 * a * sum(_sq_fro(dj) for dj in _defects(stack))


def grad(stack: np.ndarray, target: np.ndarray, a: float) -> np.ndarray:
    """Gradient of ``l_ori + l_reg`` with respect to every layer.

    Misfit: ``dL = -Re <R, A dW_j B>`` with ``R = S - W``,
    ``A = W_N..W_{j+1}``, ``B = W_{j-1}..W_1``, so ``G_j = -A^H R B^H``.
    Regularizer: ``D_j`` is Hermitian, so ``d(a/4 ||D_j||^2)`` contributes
    ``a D_j W_j`` to ``G_j`` and ``-a W_{j+1} D_j`` to ``G_{j+1}``.
    """
    n = stack.shape[-3]
    resid = target - product(stack)
    g = np.zeros_like(stack)
    for j in range(n):
        a_left = _chain(stack, j + 1, n)
        b_right = _chain(stack, 0, j)
        g[..., j, :, :] = -(_h(a_left) @ resid @ _h(b_right))
    if a > 0:
        for j, dj in enumerate(_defects(stack)):
            g[..., j, :, :] += a * (dj @ stack[..., j, :, :])
            g[..., j + 1, :, :] -= a * (stack[..., j + 1, :, :] @ dj)
    return g


def gd_step(stack: np.ndarray, target: np.ndarray, a: float, eta: float) -> np.ndarray:
    return stack - eta * grad(stack, target, a)


def rk4_step(stack: np.ndarray, target: np.ndarray, a: float, h: float) -> np.ndarray:
    """Classical RK4 on ``dW/dt = -G(W)``."""
    def f(x):
        return -grad(x, target, a)

    k1 = f(stack)
    k2 = f(stack + 0.5 * h * k1)
    k3 = f(stack + 0.5 * h * k2)
    k4 = f(stack + h * k3)
    return stack + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def l_ori_path(stack, target, a, n_steps, every, eta=None, h=None) -> np.ndarray:
    """``l_ori`` at steps ``0, every, 2*every, ..`` up to ``n_steps``.

    Steps GD with learning rate ``eta``, or RK4 with step ``h`` when
    ``eta`` is None.
    """
    out = [l_ori(stack, target)]
    for k in range(1, n_steps + 1):
        stack = gd_step(stack, target, a, eta) if eta is not None else rk4_step(stack, target, a, h)
        if k % every == 0:
            out.append(l_ori(stack, target))
    return np.array(out)


def first_converged_step(stack, target, a, eta, eps_conv, max_steps) -> np.ndarray:
    """First GD step at which ``l_ori < eps_conv``, per problem; -1 if none.

    Problems that converge stop changing the answer but keep being stepped
    with the rest, which is cheap next to the bookkeeping it would save.
    """
    first = np.full(stack.shape[:-3], -1)
    for k in range(max_steps + 1):
        hit = (l_ori(stack, target) < eps_conv) & (first < 0)
        first[hit] = k
        if np.all(first >= 0) or k == max_steps:
            break
        stack = gd_step(stack, target, a, eta)
    return first
