"""Optimization core: loss, exact gradients, GD and RK4 flow steppers.

The optimized object is a stack of N square matrices ``(W_1, ..., W_N)`` over
one field; the fitted quantity is the ordered product ``W = W_N ... W_1``.
The loss is the squared Frobenius misfit of the product plus a balance
regularizer on adjacent layers:

    l_ori = 1/2 ||Sigma - W||_F^2
    l_reg = a/4 * sum_j ||W_j W_j^H - W_{j+1}^H W_{j+1}||_F^2

Complex gradients follow the convention grad = d/dRe + i * d/dIm (twice the
conjugate Wirtinger derivative), so one update rule covers both fields.

A complex problem is stepped as its real embedding ``E(A + iB) = [[A, -B],
[B, A]]`` through the same real kernel: one real matmul per complex matmul,
which numpy dispatches faster than a small complex one.  ``E`` is an
algebra homomorphism with ``E(Z^H) = E(Z)^T``, so products, defects and the
descent direction keep the embedded form, and the embedding's ``l_ori`` and
``l_reg`` are twice the complex ones.  Rounding moves a stepped embedding
off that form in the last bits, so every step ends by restoring it from the
left blocks (``_reembed``).  Complex trajectories differ from complex
arithmetic's in the last bits; they stay deterministic and independent of
the batch.  :func:`gd_step`, :func:`flow_step_rk4` and :func:`loss` step and
evaluate as the run loop does; :func:`gradient` runs the kernel on the
complex arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .errors import DimMismatchError
from .linalg import adjoint, svd

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
    """Weights ``(W_1, ..., W_N)`` as one ``(N, d, d)`` array, the kernel's layout.

    Built from such an array or from any sequence of equal square layers.
    """

    layers: np.ndarray

    def __post_init__(self) -> None:
        try:
            layers = np.asarray(self.layers)
        except ValueError:  # layers of unequal shapes make no array
            layers = np.empty(0)
        if layers.ndim != 3 or layers.shape[1] != layers.shape[2]:
            raise DimMismatchError("all layers must be square with equal dimension")
        if len(layers) < 2:
            raise ValueError("a stack needs at least two layers")
        object.__setattr__(self, "layers", layers)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def dim(self) -> int:
        return self.layers.shape[-1]


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
        # Written so that NaN fails every test.
        if not 0 <= self.reg_a < float("inf"):
            raise ValueError(f"reg_a must be finite and non-negative, got {self.reg_a}")
        if not (0 < self.eta < float("inf") and 0 < self.step_h < float("inf")):
            raise ValueError("step sizes eta and step_h must be finite and positive")
        if self.integrator not in ("gd", "flow_rk4"):
            raise ValueError(f"unknown integrator {self.integrator!r}")


def product(stack: LayerStack) -> np.ndarray:
    """Product matrix ``W_N @ ... @ W_1`` (descending layer index)."""
    return _left_product(stack.layers)


def _left_product(layers) -> np.ndarray:
    """``((W_N W_{N-1}) ...) W_1`` of an ``(N, ..., d, d)`` layer array."""
    w = layers[-1]
    for layer in reversed(layers[:-1]):
        w = w @ layer
    return w


# ---------------------------------------------------------------------------
# Kernel: the loss and its descent direction on a layer array ``w`` of shape
# ``(..., N, d, d)``, where ``w[..., j, :, :]`` is ``W_{j+1}`` and any leading
# axes index independent problems.  Every operation acts on each problem's
# matrices alone, so a problem's values do not depend on the batch it is in.
# ---------------------------------------------------------------------------


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix in a ``(..., d, d)`` array.

    Each value equals ``np.linalg.norm`` of that matrix bit for bit: the same
    BLAS dot, called once per matrix, and for a complex matrix the dot of the
    real parts plus that of the imaginary parts.
    """
    flat = x.reshape(x.shape[:-2] + (1, x.shape[-2] * x.shape[-1]))
    if flat.dtype.kind != "c":
        return np.sqrt((flat @ flat.swapaxes(-1, -2))[..., 0, 0])
    re, im = flat.real, flat.imag
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])


def _defects(w: np.ndarray) -> np.ndarray:
    """Balance defects ``W_j W_j^H - W_{j+1}^H W_{j+1}``, stacked on the layer axis."""
    upper, lower = w[..., :-1, :, :], w[..., 1:, :, :]
    return upper @ adjoint(upper) - adjoint(lower) @ lower


def _products(w: np.ndarray, sigma: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Suffix products ``W_{j+1} ... W_1`` of every problem in ``w``, and the misfit ``Sigma - W``.

    The product is right-associated, ``W_N (... (W_2 W_1))``.
    """
    p = w[..., 0, :, :]
    suffix = [p]
    for j in range(1, w.shape[-3]):
        p = w[..., j, :, :] @ p
        suffix.append(p)
    return suffix, sigma - p


class _Evaluation(NamedTuple):
    """Everything the descent direction needs at ``w``, and the loss terms there."""

    w: np.ndarray
    suffix: list[np.ndarray]  # suffix[j] = W_{j+1} ... W_1, so suffix[-1] = W
    misfit: np.ndarray  # Sigma - W
    deltas: np.ndarray | None  # balance defects; only when the regularizer is on
    l_ori: np.ndarray
    l_reg: np.ndarray | float

    def take(self, rows) -> "_Evaluation":
        """The evaluation of the problems ``rows`` (an index or mask on the leading axis)."""
        return _Evaluation(
            self.w[rows],
            [s[rows] for s in self.suffix],
            self.misfit[rows],
            None if self.deltas is None else self.deltas[rows],
            self.l_ori[rows],
            self.l_reg[rows] if isinstance(self.l_reg, np.ndarray) else self.l_reg,
        )


def _evaluate(w: np.ndarray, sigma: np.ndarray, cfg: DynConfig) -> _Evaluation:
    """Products, misfit, defects and ``(l_ori, l_reg)`` of every problem in ``w``.

    Each norm is squared as ``n * n``, and ``l_reg`` sums the squares in
    layer order.
    """
    suffix, misfit = _products(w, sigma)
    n = _frobenius(misfit)
    l_ori = 0.5 * (n * n)
    deltas = None
    l_reg = 0.0
    if cfg.reg_a > 0:
        deltas = _defects(w)
        n = _frobenius(deltas)
        sq = n * n
        total = sq[..., 0]
        for j in range(1, sq.shape[-1]):
            total = total + sq[..., j]
        l_reg = 0.25 * cfg.reg_a * total
    return _Evaluation(w, suffix, misfit, deltas, l_ori, l_reg)


def _descend(
    w: np.ndarray,
    suffix: list[np.ndarray] | None,
    misfit: np.ndarray | None,
    deltas: np.ndarray | None,
    cfg: DynConfig,
) -> np.ndarray:
    """Descent direction, the negative gradient of the total loss, at ``w``, one layer per slot.

    Misfit part: ``(W_N..W_{j+1})^H (Sigma - W) (W_{j-1}..W_1)^H``, from the
    ``suffix`` products and the ``misfit`` (unread under ``omit_l_ori``).
    Regularizer part: ``a W_j Delta_{j-1,j} - a Delta_{j,j+1} W_j`` with the
    boundary defects defined as zero, from the ``deltas`` (unread when the
    regularizer is off).
    """
    if cfg.omit_l_ori:
        direction = np.zeros_like(w)
    else:
        # From the top layer down: ``left`` is (product of the layers above
        # the current one)^H (Sigma - W); that product is built from the left.
        # Each slot is written once, the bottom one by the last ``left``.
        direction = np.empty_like(w)
        left = misfit
        prefix = None
        for j in range(w.shape[-3] - 1, 0, -1):
            np.matmul(left, adjoint(suffix[j - 1]), out=direction[..., j, :, :])
            prefix = w[..., j, :, :] if prefix is None else prefix @ w[..., j, :, :]
            out = direction[..., 0, :, :] if j == 1 else None
            left = np.matmul(adjoint(prefix), misfit, out=out)
    if cfg.reg_a > 0:
        a = cfg.reg_a
        direction[..., 1:, :, :] += a * (w[..., 1:, :, :] @ deltas)
        direction[..., :-1, :, :] -= a * (deltas @ w[..., :-1, :, :])
    return direction


def _advance(ev: _Evaluation, sigma: np.ndarray, cfg: DynConfig, integrator: str) -> np.ndarray:
    """Layers after one GD (``"gd"``) or RK4 (``"flow_rk4"``) step from ``ev``.

    GD moves ``w + eta * direction``, bitwise ``w - eta * gradient``: negation
    is exact and rounding symmetric.  The first RK4 stage is the descent
    direction at ``ev`` itself; the other three build only what the direction
    reads, and no loss terms.
    """
    w = ev.w
    k1 = _descend(w, ev.suffix, ev.misfit, ev.deltas, cfg)
    if integrator == "gd":
        return w + cfg.eta * k1
    h = cfg.step_h

    def rhs(y: np.ndarray) -> np.ndarray:
        suffix, misfit = (None, None) if cfg.omit_l_ori else _products(y, sigma)
        return _descend(y, suffix, misfit, _defects(y) if cfg.reg_a > 0 else None, cfg)

    k2 = rhs(w + 0.5 * h * k1)
    k3 = rhs(w + 0.5 * h * k2)
    k4 = rhs(w + h * k3)
    return w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# ---------------------------------------------------------------------------
# Real embedding of complex problems: applied where a problem enters and
# leaves stepping, never inside the kernel.
# ---------------------------------------------------------------------------


def _embed(z: np.ndarray) -> np.ndarray:
    """Real ``(..., 2d, 2d)`` embedding ``[[A, -B], [B, A]]`` of every ``A + iB`` in ``z``."""
    a, b = z.real, z.imag
    return np.concatenate([np.concatenate([a, -b], -1), np.concatenate([b, a], -1)], -2)


def _unembed(x: np.ndarray) -> np.ndarray:
    """Complex ``(..., d, d)`` matrices whose embeddings ``x`` holds, read from the left blocks.

    ``_unembed(_embed(z))`` is ``z`` bit for bit.
    """
    d = x.shape[-1] // 2
    z = np.empty(x.shape[:-2] + (d, d), dtype=complex)
    z.real = x[..., :d, :d]
    z.imag = x[..., d:, :d]
    return z


def _reembed(x: np.ndarray) -> None:
    """Make ``x`` exactly embedded again, in place: ``_embed(_unembed(x))``, from its left blocks.

    A kernel step leaves the right blocks off the embedded form in the
    last bits.
    Off it the real dynamics have directions that the complex dynamics
    lack, which can be unstable where the complex run is not, so an
    embedded run restores the form after every step.
    """
    d = x.shape[-1] // 2
    np.negative(x[..., d:, :d], out=x[..., :d, d:])
    x[..., d:, d:] = x[..., :d, :d]


def _unembed_evaluations(evs: list[_Evaluation]) -> list[_Evaluation]:
    """The complex evaluations that evaluations of embedded problems stand for.

    Each array is unembedded once for the whole list, and the losses are
    halved, which is exact.
    """

    def unembed(arrays) -> np.ndarray:
        return _unembed(np.stack(list(arrays)))

    w = unembed(ev.w for ev in evs)
    suffix = [unembed(ev.suffix[j] for ev in evs) for j in range(len(evs[0].suffix))]
    misfit = unembed(ev.misfit for ev in evs)
    deltas = [None] * len(evs) if evs[0].deltas is None else unembed(ev.deltas for ev in evs)
    return [
        _Evaluation(
            w[k], [s[k] for s in suffix], misfit[k], deltas[k], 0.5 * ev.l_ori, 0.5 * ev.l_reg
        )
        for k, ev in enumerate(evs)
    ]


def _check_dims(stack: LayerStack, sigma: np.ndarray) -> None:
    if sigma.shape != (stack.dim, stack.dim):
        raise DimMismatchError("target dimension does not match the stack")


def _kernel_form(w: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Layers and target as the run loop steps them, and whether they are embedded.

    A problem with complex layers or target is embedded.
    """
    if np.iscomplexobj(w) or np.iscomplexobj(sigma):
        return _embed(w), _embed(sigma), True
    return w, sigma, False


def _evaluate_stack(stack: LayerStack, target: TargetSpec, cfg: DynConfig) -> _Evaluation:
    """The run loop's evaluation of one problem, in the problem's own field."""
    _check_dims(stack, target.matrix)
    w, sigma, embedded = _kernel_form(stack.layers, target.matrix)
    ev = _evaluate(w, sigma, cfg)
    return _unembed_evaluations([ev])[0] if embedded else ev


def _step(stack: LayerStack, target: TargetSpec, cfg: DynConfig, integrator: str) -> LayerStack:
    _check_dims(stack, target.matrix)
    w, sigma, embedded = _kernel_form(stack.layers, target.matrix)
    w = _advance(_evaluate(w, sigma, cfg), sigma, cfg, integrator)
    return LayerStack(_unembed(w) if embedded else w)


def balance_deltas(stack: LayerStack) -> np.ndarray:
    """Adjacent balance defects ``W_j W_j^H - W_{j+1}^H W_{j+1}``, j = 1..N-1, stacked."""
    return _defects(stack.layers)


def loss(stack: LayerStack, target: TargetSpec, cfg: DynConfig) -> tuple[float, float, float]:
    """Returns ``(l_ori, l_reg, total)``; ``l_ori`` reported even when omitted."""
    ev = _evaluate_stack(stack, target, cfg)
    l_ori, l_reg = float(ev.l_ori), float(ev.l_reg)
    return l_ori, l_reg, (0.0 if cfg.omit_l_ori else l_ori) + l_reg


def gradient(stack: LayerStack, target: TargetSpec, cfg: DynConfig) -> np.ndarray:
    """Exact gradient of the total loss with respect to every layer, as ``(N, d, d)``."""
    _check_dims(stack, target.matrix)
    ev = _evaluate(stack.layers, target.matrix, cfg)
    return -_descend(ev.w, ev.suffix, ev.misfit, ev.deltas, cfg)


def gd_step(stack: LayerStack, target: TargetSpec, cfg: DynConfig) -> LayerStack:
    """One simultaneous gradient-descent update of every layer."""
    return _step(stack, target, cfg, "gd")


def flow_step_rk4(stack: LayerStack, target: TargetSpec, cfg: DynConfig) -> LayerStack:
    """One classical 4th-order Runge-Kutta step of the coupled layer ODE."""
    return _step(stack, target, cfg, "flow_rk4")


def reduce_target(
    sigma_general: np.ndarray, stack: LayerStack
) -> tuple[TargetSpec, LayerStack]:
    """Rotate the problem so the target becomes non-negative diagonal.

    With ``Sigma = U_S Sigma' V_S^H``, replaces ``W_1 <- W_1 V_S`` and
    ``W_N <- U_S^H W_N``; interior layers, the total loss and all balance
    defects are unchanged.
    """
    _check_dims(stack, sigma_general)
    r = svd(sigma_general)
    layers = stack.layers.copy()
    layers[0] = layers[0] @ r.v
    layers[-1] = adjoint(r.u) @ layers[-1]
    return TargetSpec(np.diag(r.s), reduced=True), LayerStack(layers)
