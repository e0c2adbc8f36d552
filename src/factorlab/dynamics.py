"""Optimization core: loss, exact gradients, GD and RK4 flow steppers.

The optimized object is a stack of N square matrices ``(W_1, ..., W_N)`` over
one field; the fitted quantity is the ordered product ``W = W_N ... W_1``.
The loss is the squared Frobenius misfit of the product plus a balance
regularizer on adjacent layers:

    l_ori = 1/2 ||Sigma - W||_F^2
    l_reg = a/4 * sum_j ||W_j W_j^H - W_{j+1}^H W_{j+1}||_F^2

Complex gradients follow the convention grad = d/dRe + i * d/dIm (twice the
conjugate Wirtinger derivative), so one update rule covers both fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .errors import DimMismatchError
from .linalg import FieldTag, adjoint, svd

__all__ = [
    "LayerStack",
    "TargetSpec",
    "DynConfig",
    "product",
    "balance_deltas",
    "loss",
    "gradient",
    "gd_step",
    "flow_step_rk4",
    "reduce_target",
]


@dataclass(frozen=True)
class LayerStack:
    """Ordered weights ``(W_1, ..., W_N)``, all d x d over the same field."""

    layers: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.layers) < 2:
            raise ValueError("a stack needs at least two layers")
        d = self.layers[0].shape[0]
        for w in self.layers:
            if w.shape != (d, d):
                raise DimMismatchError("all layers must be square with equal dimension")

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def dim(self) -> int:
        return self.layers[0].shape[0]

    @property
    def field(self) -> FieldTag:
        return FieldTag.of(self.layers[0])


@dataclass(frozen=True)
class TargetSpec:
    """Target matrix; ``reduced`` marks non-negative real diagonal form."""

    matrix: np.ndarray
    reduced: bool = False

    def __post_init__(self) -> None:
        if self.reduced:
            m = self.matrix
            off = m - np.diag(np.diagonal(m))
            diag = np.diagonal(m)
            if np.linalg.norm(off) >= 1e-14 * (1 + np.linalg.norm(m)) or np.any(
                diag.real < 0
            ) or (np.iscomplexobj(m) and np.any(np.abs(diag.imag) > 1e-14)):
                raise ValueError("reduced target must be diagonal with non-negative reals")

    @staticmethod
    def identity(d: int, sigma1: float = 1.0) -> "TargetSpec":
        return TargetSpec(sigma1 * np.eye(d), reduced=True)

    @staticmethod
    def diagonal(values) -> "TargetSpec":
        return TargetSpec(np.diag(np.asarray(values, dtype=float)), reduced=True)


@dataclass(frozen=True)
class DynConfig:
    """Dynamics parameters: regularizer weight, step sizes, integrator choice.

    ``integrator`` is ``"gd"`` (discrete gradient descent with learning rate
    ``eta``) or ``"flow_rk4"`` (classical RK4 on the gradient flow with fixed
    step ``step_h``).  ``omit_l_ori`` drops the misfit term so the dynamics
    are driven by the regularizer alone.
    """

    reg_a: float = 0.0
    eta: float = 0.1
    step_h: float = dc_field(default=1e-3)
    integrator: str = "gd"
    omit_l_ori: bool = False

    def __post_init__(self) -> None:
        if self.reg_a < 0:
            raise ValueError("reg_a must be non-negative")
        if self.eta <= 0 or self.step_h <= 0:
            raise ValueError("step sizes must be positive")
        if self.integrator not in ("gd", "flow_rk4"):
            raise ValueError(f"unknown integrator {self.integrator!r}")


def product(stack: LayerStack) -> np.ndarray:
    """Product matrix ``W_N @ ... @ W_1`` (descending layer index)."""
    w = stack.layers[-1]
    for layer in reversed(stack.layers[:-1]):
        w = w @ layer
    return w


# ---------------------------------------------------------------------------
# Kernel: the loss and its gradient on a layer array ``w`` of shape
# ``(..., N, d, d)``, where ``w[..., j, :, :]`` is ``W_{j+1}`` and any leading
# axes index independent problems.  Every operation acts on each problem's
# matrices alone, so a problem's values do not depend on the batch it is in.
# ---------------------------------------------------------------------------


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix in a ``(..., d, d)`` array.

    Each value equals ``np.linalg.norm`` of that matrix bit for bit: the same
    BLAS dot, called once per matrix.
    """
    flat = x.reshape(*x.shape[:-2], 1, -1)
    parts = (flat.real, flat.imag) if np.iscomplexobj(flat) else (flat,)
    return np.sqrt(sum(p @ p.swapaxes(-1, -2) for p in parts)[..., 0, 0])


def _defects(w: np.ndarray) -> np.ndarray:
    """Balance defects ``W_j W_j^H - W_{j+1}^H W_{j+1}``, stacked on the layer axis."""
    upper, lower = w[..., :-1, :, :], w[..., 1:, :, :]
    return upper @ adjoint(upper) - adjoint(lower) @ lower


class _Evaluation(NamedTuple):
    """Everything the gradient needs at ``w``, and the loss terms there."""

    w: np.ndarray
    suffix: list[np.ndarray]  # suffix[j] = W_{j+1} ... W_1, so suffix[-1] = W
    misfit: np.ndarray  # Sigma - W
    deltas: np.ndarray | None  # balance defects; only when the regularizer is on
    l_ori: np.ndarray
    l_reg: np.ndarray | float


def _evaluate(w: np.ndarray, sigma: np.ndarray, cfg: DynConfig) -> _Evaluation:
    """Products, misfit, defects and ``(l_ori, l_reg)`` of every problem in ``w``.

    The product is right-associated, ``W_N (... (W_2 W_1))``; each norm is
    squared as ``n * n``.
    """
    suffix = [w[..., 0, :, :]]
    for j in range(1, w.shape[-3]):
        suffix.append(w[..., j, :, :] @ suffix[-1])
    misfit = sigma - suffix[-1]
    n = _frobenius(misfit)
    l_ori = 0.5 * (n * n)
    deltas = None
    l_reg = 0.0
    if cfg.reg_a > 0:
        deltas = _defects(w)
        n = _frobenius(deltas)
        l_reg = 0.25 * cfg.reg_a * sum(n[..., j] * n[..., j] for j in range(n.shape[-1]))
    return _Evaluation(w, suffix, misfit, deltas, l_ori, l_reg)


def _descend(ev: _Evaluation, cfg: DynConfig) -> np.ndarray:
    """Gradient of the total loss at an evaluated ``w``, one layer per slot.

    Misfit part: ``-(W_N..W_{j+1})^H (Sigma - W) (W_{j-1}..W_1)^H``.
    Regularizer part: ``-a W_j Delta_{j-1,j} + a Delta_{j,j+1} W_j`` with the
    boundary defects defined as zero.
    """
    w = ev.w
    grad = np.zeros_like(w)
    if not cfg.omit_l_ori:
        # From the top layer down: ``left`` is (product of the layers above
        # the current one)^H (Sigma - W); that product is built from the left.
        left = ev.misfit
        prefix = None
        for j in range(w.shape[-3] - 1, 0, -1):
            grad[..., j, :, :] = -(left @ adjoint(ev.suffix[j - 1]))
            prefix = w[..., j, :, :] if prefix is None else prefix @ w[..., j, :, :]
            left = adjoint(prefix) @ ev.misfit
        grad[..., 0, :, :] = -left
    if cfg.reg_a > 0:
        a = cfg.reg_a
        grad[..., 1:, :, :] -= a * (w[..., 1:, :, :] @ ev.deltas)
        grad[..., :-1, :, :] += a * (ev.deltas @ w[..., :-1, :, :])
    return grad


def _advance(ev: _Evaluation, sigma: np.ndarray, cfg: DynConfig, integrator: str) -> np.ndarray:
    """Layers after one GD (``"gd"``) or RK4 (``"flow_rk4"``) step from ``ev``.

    The first RK4 stage is the gradient at ``ev`` itself.
    """
    w = ev.w
    if integrator == "gd":
        return w - cfg.eta * _descend(ev, cfg)
    h = cfg.step_h

    def rhs(y: np.ndarray) -> np.ndarray:
        return -_descend(_evaluate(y, sigma, cfg), cfg)

    k1 = -_descend(ev, cfg)
    k2 = rhs(w + 0.5 * h * k1)
    k3 = rhs(w + 0.5 * h * k2)
    k4 = rhs(w + h * k3)
    return w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _evaluate_stack(stack: LayerStack, target: TargetSpec, cfg: DynConfig) -> _Evaluation:
    if target.matrix.shape != (stack.dim, stack.dim):
        raise DimMismatchError("target dimension does not match the stack")
    return _evaluate(np.stack(stack.layers), target.matrix, cfg)


def balance_deltas(stack: LayerStack) -> list[np.ndarray]:
    """Adjacent balance defects ``W_j W_j^H - W_{j+1}^H W_{j+1}``, j = 1..N-1."""
    return list(_defects(np.stack(stack.layers)))


def loss(stack: LayerStack, target: TargetSpec, cfg: DynConfig) -> tuple[float, float, float]:
    """Returns ``(l_ori, l_reg, total)``; ``l_ori`` reported even when omitted."""
    ev = _evaluate_stack(stack, target, cfg)
    l_ori, l_reg = float(ev.l_ori), float(ev.l_reg)
    return l_ori, l_reg, (0.0 if cfg.omit_l_ori else l_ori) + l_reg


def gradient(stack: LayerStack, target: TargetSpec, cfg: DynConfig) -> list[np.ndarray]:
    """Exact gradient of the total loss with respect to every layer."""
    return list(_descend(_evaluate_stack(stack, target, cfg), cfg))


def gd_step(stack: LayerStack, target: TargetSpec, cfg: DynConfig) -> LayerStack:
    """One simultaneous gradient-descent update of every layer."""
    ev = _evaluate_stack(stack, target, cfg)
    return LayerStack(tuple(_advance(ev, target.matrix, cfg, "gd")))


def flow_step_rk4(stack: LayerStack, target: TargetSpec, cfg: DynConfig) -> LayerStack:
    """One classical 4th-order Runge-Kutta step of the coupled layer ODE."""
    ev = _evaluate_stack(stack, target, cfg)
    return LayerStack(tuple(_advance(ev, target.matrix, cfg, "flow_rk4")))


def reduce_target(
    sigma_general: np.ndarray, stack: LayerStack
) -> tuple[TargetSpec, LayerStack]:
    """Rotate the problem so the target becomes non-negative diagonal.

    With ``Sigma = U_S Sigma' V_S^H``, replaces ``W_1 <- W_1 V_S`` and
    ``W_N <- U_S^H W_N``; interior layers, the total loss and all balance
    defects are unchanged.
    """
    if sigma_general.shape != (stack.dim, stack.dim):
        raise DimMismatchError("target dimension does not match the stack")
    r = svd(sigma_general)
    layers = list(stack.layers)
    layers[0] = layers[0] @ r.v
    layers[-1] = adjoint(r.u) @ layers[-1]
    return TargetSpec(np.diag(r.s), reduced=True), LayerStack(tuple(layers))
