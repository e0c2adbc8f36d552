"""Optimization core: loss, exact gradients, GD and RK4 flow steppers.

The optimized object is a stack of N square matrices ``(W_1, ..., W_N)`` over
one field; the fitted quantity is the ordered product ``W = W_N ... W_1``.
The loss is the squared Frobenius misfit of the product plus a balance
regularizer on adjacent layers:

    l_ori = 1/2 ||Sigma - W||_F^2
    l_reg = a/4 * sum_j ||W_j W_j^H - W_{j+1}^H W_{j+1}||_F^2

Complex gradients follow the convention grad = d/dRe + i * d/dIm (twice the
conjugate Wirtinger derivative), so one update rule covers both fields.

All of this math is one real batch kernel, :class:`_Kernel`.  It is built
once per batch of problems, copies their layers into buffers it owns, and
steps them in place with a fixed sequence of numpy calls on views it made
once.  Slots that would hold copies share memory instead: the layers sit in
one buffer between the suffix and the prefix products, whose first suffix
and top prefix are the bottom and top layers themselves, and the bottom
slot of the descent direction is the first left factor.  A second copy of
the layers lets numpy run the defect Gram products as gemm.

The loss is made in two parts.  :meth:`_Kernel.measure` builds the
products, the misfit and its squared Frobenius norm ``sq`` (one dot per
problem), and :meth:`_Kernel.finish` turns ``sq`` into ``l_ori`` (a square
root, ``n * n`` and a halving).  The run loop tests convergence on ``sq``
and finishes ``l_ori`` only on guard and record steps and where some
problem's ``sq`` is below :meth:`_Kernel.sq_bound`: 4 ``eps_conv`` where
``l_ori`` is about ``sq / 2``, 8 on an embedding, where it is about ``sq /
4``.  ``finish`` is monotone in ``sq``, so a step that fails this test has
no problem with ``l_ori < eps_conv``; where it passes, the exact test
decides.

The kernel does real arithmetic only.  A complex problem is stepped as its
real embedding ``E(A + iB) = [[A, -B], [B, A]]``: one real matmul per
complex matmul, which numpy dispatches faster than a small complex one.
``E`` is an algebra homomorphism with ``E(Z^H) = E(Z)^T``, so products,
defects and the descent direction keep the embedded form, and the
embedding's ``l_ori`` and ``l_reg`` are twice the complex ones, which the
kernel halves.  Rounding
moves a stepped embedding off that form in the last bits, so every step
ends by restoring it from the left blocks.  Complex trajectories differ
from complex arithmetic's in the last bits; they stay deterministic and
independent of the batch.  :func:`loss`, :func:`gradient`,
:func:`gd_step` and :func:`flow_step_rk4` evaluate and step as the run loop
does, a complex stack as its embedding; :func:`gradient` reads the complex
gradient from the left blocks of the embedded one.  Only the balance
defects of the monitors (:func:`_defects`) are computed in the problem's
own field.

Ownership: an array the kernel returns (its layers, ``l_ori``, a descent
direction) is a view of its buffers, valid until its next step; a caller
that keeps one, like a trajectory's records, copies it.  :func:`loss`,
:func:`gradient`, :func:`gd_step` and :func:`flow_step_rk4` build a
kernel of their own for each call, so they never write to their inputs,
and what they return is not shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

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


def _flat_rows(x: np.ndarray) -> np.ndarray:
    """Each matrix of a ``(..., d, d)`` array as one ``(1, d * d)`` row; a view where ``x`` is contiguous."""
    return x.reshape(x.shape[:-2] + (1, x.shape[-2] * x.shape[-1]))


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix in a ``(..., d, d)`` array.

    Each value equals ``np.linalg.norm`` of that matrix bit for bit: the same
    BLAS dot, called once per matrix, and for a complex matrix the dot of the
    real parts plus that of the imaginary parts.
    """
    flat = _flat_rows(x)
    parts = (flat.real, flat.imag) if flat.dtype.kind == "c" else (flat,)
    sq = sum(p @ p.swapaxes(-1, -2) for p in parts)
    return np.sqrt(sq, out=sq)[..., 0, 0]


def _defects(w: np.ndarray) -> np.ndarray:
    """Balance defects ``W_j W_j^H - W_{j+1}^H W_{j+1}`` of ``(..., N, d, d)`` layers, as ``(..., N-1, d, d)``.

    In the layers' own field.  The Gram products read the layers and their
    conjugate, two buffers, so numpy runs them as gemm, as the kernel's do
    (see :class:`_Kernel`).
    """
    c = np.conjugate(w)
    upper, lower = w[..., :-1, :, :], w[..., 1:, :, :]
    upper_h, lower_h = c[..., :-1, :, :].swapaxes(-1, -2), c[..., 1:, :, :].swapaxes(-1, -2)
    return upper @ upper_h - lower_h @ lower


class _Kernel:
    """The loss, its descent direction and GD or RK4 steps of a batch of real problems.

    Built from real ``(B, N, m, m)`` layers ``w`` and ``(B, m, m)`` targets
    ``sigma``; a complex batch enters as its embedding (:func:`_kernel`).
    It copies the layers into ``layers``, its own ``(B, N, m, m)`` array,
    which every step updates in place; ``sigma`` is only read.  Each buffer
    is layer-major (one contiguous ``(B, m, m)`` block per layer), and every
    per-layer and transposed view is made here, once.  A step is a fixed
    sequence of numpy calls that write into the buffers.

    The chain buffer holds the suffix products, the layers and the prefix
    products in that order, the suffix and prefix products reversed, so the
    layers keep positive strides: an in-place update with a reversed
    operand makes numpy buffer it.  The two chains are independent, so
    each matmul over two-block views of the buffer advances both.  The
    defect Gram products read the layers and a second copy of them, which
    each evaluation refreshes.  Over one buffer read through a transposed
    view numpy would take its slower ``syrk`` path (the same bits on the
    tested OpenBLAS build, which ``TestGramPath`` pins).

    ``embedded`` marks real embeddings of complex problems: ``l_ori`` and
    ``l_reg`` are halved, and every step ends by restoring the exact
    embedded form from the left blocks.  Off it the real dynamics have
    directions that the complex dynamics lack, which can be unstable where
    the complex run is not.

    :meth:`measure` (or :meth:`evaluate`, which is :meth:`measure` then
    :meth:`finish`) must precede each :meth:`step`, :meth:`l_reg` and
    :meth:`descent`; what they return is a view valid until the next step.
    Every operation acts on each problem's matrices alone, and each matrix
    product keeps the operands and association of a per-problem loop, so a
    problem's values do not depend on the batch it is in.
    """

    def __init__(self, w: np.ndarray, sigma: np.ndarray, cfg: DynConfig, embedded: bool = False) -> None:
        b, n, m, _ = w.shape
        self.cfg, self.sigma, self.embedded = cfg, sigma, embedded

        def buf(k: int) -> np.ndarray:
            return np.empty((k, b, m, m))

        # chain = [suffix[n-1], ..., suffix[1], x[0], ..., x[n-1], prefix[n-3], ..., prefix[0]].
        chain = buf(3 * n - 3)
        x, suffix = chain[n - 1 : 2 * n - 1], chain[n - 1 :: -1]
        # lefts = [factors[n-1], ..., factors[1], direction[0], ..., direction[n-1]].
        lefts = buf(2 * n - 1)
        factors, direction = lefts[n - 1 :: -1], lefts[n - 1 :]
        deltas, scratch = buf(n - 1), buf(n - 1)
        x[...] = w.swapaxes(0, 1)
        self.layers = x.swapaxes(0, 1)
        self._x, self._suffix, self._direction = x, suffix, direction
        self._deltas, self._scratch = deltas, scratch
        # suffix[j] = W_{j+1} ... W_1, right-associated, so suffix[-1] = W.
        # prefix[j] = W_N ... W_{j+2}, the product of the layers above layer
        # j + 1, built from the left: prefix[-1] = W_N, prefix[j-1] = prefix[j] W_{j+1}.
        # Step t makes suffix[t] and, but on the last step, prefix[n-2-t].

        def pair(i: int, j: int) -> np.ndarray:
            return chain[i : j + 1 : j - i]  # chain[i] and chain[j], i < j

        self._chain_ops = [
            (pair(n - 1 + t, 2 * n - 3 + t), pair(n - t, 2 * n - 2 - t), pair(n - 1 - t, 2 * n - 2 + t))
            for t in range(1, n - 1)
        ] + [(x[n - 1], suffix[n - 2], suffix[n - 1])]
        # factors[j] = prefix[j]^H M below the top slot, which is the misfit M.
        self._misfit = factors[-1]
        self._misfit_b = factors[-1][None]
        self._factors_low, self._factors_high = factors[:-1], factors[1:]
        self._direction_low, self._direction_high = direction[:-1], direction[1:]
        self._lower, self._upper = x[1:], x[:-1]
        # The second copy of the layers, which the defect Gram products read.
        self._x2 = x2 = buf(n)
        self._upper_h, self._lower_h = x2[:-1].swapaxes(-1, -2), x2[1:].swapaxes(-1, -2)
        self._suffix_h = chain[n - 1 : 0 : -1].swapaxes(-1, -2)
        self._prefix_h = chain[3 * n - 4 : 2 * n - 3 : -1].swapaxes(-1, -2)

        self._sq = np.empty((b, 1, 1))
        self._misfit_row = _flat_rows(self._misfit)
        self._misfit_col = self._misfit_row.swapaxes(-1, -2)
        self._sq_flat = self._sq[:, 0, 0]
        self._l_ori_scale = 0.25 if embedded else 0.5
        if cfg.integrator == "flow_rk4":
            self._start, self._acc = buf(n), buf(n)
        if embedded:
            h = m // 2
            # Each layer's blocks on the axes (row block, i, column block, j);
            # then [lower left, upper left] and [upper right, lower right],
            # block first, and a buffer of the two blocks of every layer.
            blocks = chain[n - 1 : 2 * n - 1].reshape(n, b, 2, h, 2, h)
            two = np.empty((2, n, b, h, h))
            self._reembed_views = (
                np.moveaxis(blocks[:, :, ::-1, :, 0], 2, 0), np.moveaxis(blocks[..., 1, :], 2, 0), two, two[0]
            )

    def take(self, rows) -> "_Kernel":
        """A kernel of the problems ``rows`` (an index or mask on the batch axis), evaluated."""
        kernel = _Kernel(self.layers[rows], self.sigma[rows], self.cfg, self.embedded)
        kernel.evaluate()
        return kernel

    def _products(self) -> None:
        """Suffix and prefix products and the misfit ``Sigma - W`` of the current layers."""
        for a, b, out in self._chain_ops:
            np.matmul(a, b, out=out)
        np.subtract(self.sigma, self._suffix[-1], out=self._misfit)

    def _defects(self) -> None:
        """Balance defects of the current layers, stacked on the layer axis."""
        np.copyto(self._x2, self._x)
        np.matmul(self._upper, self._upper_h, out=self._deltas)
        np.matmul(self._lower_h, self._lower, out=self._scratch)
        np.subtract(self._deltas, self._scratch, out=self._deltas)

    def _descend(self) -> None:
        """Descent direction, the negative gradient of the total loss, from the products and defects.

        Misfit part: ``(W_N..W_{j+1})^H (Sigma - W) (W_{j-1}..W_1)^H``, one
        left factor ``prefix^H M`` per layer below the top (one matmul over
        the layer axis) times the adjoint suffix below it (one more); the
        bottom slot is its left factor alone.  Regularizer part: ``a W_j
        Delta_{j-1,j} - a Delta_{j,j+1} W_j`` with the boundary defects
        defined as zero.
        """
        cfg, direction = self.cfg, self._direction
        if cfg.omit_l_ori:
            direction.fill(0.0)
        else:
            np.matmul(self._prefix_h, self._misfit_b, out=self._factors_low)
            np.matmul(self._factors_high, self._suffix_h, out=self._direction_high)
        if cfg.reg_a > 0:
            a, s = cfg.reg_a, self._scratch
            np.matmul(self._lower, self._deltas, out=s)
            np.multiply(s, a, out=s)
            np.add(self._direction_high, s, out=self._direction_high)
            np.matmul(self._deltas, self._upper, out=s)
            np.multiply(s, a, out=s)
            np.subtract(self._direction_low, s, out=self._direction_low)

    def measure(self) -> np.ndarray:
        """Products, misfit and (regularizer on) defects of the layers; returns ``sq`` per problem.

        ``sq`` is the squared Frobenius norm of the misfit, one dot per
        problem, before the rounding steps that make it ``l_ori`` (see
        :meth:`finish`, which turns this same array into ``l_ori``).
        """
        self._products()
        np.matmul(self._misfit_row, self._misfit_col, out=self._sq)
        if self.cfg.reg_a > 0:
            self._defects()
        return self._sq_flat

    def finish(self) -> np.ndarray:
        """``l_ori`` per problem from the last :meth:`measure`, in place of its ``sq``.

        The norm ``sqrt(sq)`` is squared as ``n * n`` and halved, or on an
        embedding quartered, which gives the bits of two halvings: scaling
        by a power of two rounds only below the normal range, and there
        one quartering and two halvings round alike.
        """
        sq = np.sqrt(self._sq, out=self._sq)
        np.multiply(sq, sq, out=sq)
        np.multiply(sq, self._l_ori_scale, out=sq)
        return self._sq_flat

    def evaluate(self) -> np.ndarray:
        """:meth:`measure` then :meth:`finish`: returns ``l_ori`` per problem."""
        self.measure()
        return self.finish()

    def sq_bound(self, eps: float) -> float:
        """A bound that :meth:`measure`'s ``sq`` lies below wherever ``l_ori < eps``.

        :meth:`finish` maps ``sq`` to ``l_ori`` by correctly rounded, and
        so non-decreasing, steps, which take ``sq`` = 4 eps (8 eps on an
        embedding) to about 2 eps, subnormal ``eps`` included.  So a
        problem with ``sq`` at or above the bound has ``l_ori >= eps``.
        """
        return (8.0 if self.embedded else 4.0) * eps

    def l_reg(self) -> np.ndarray:
        """``l_reg`` per problem at the last evaluation: the squared defect norms summed in layer order.

        Zeros when the regularizer is off.  Computed only here, where it is read.
        """
        if not self.cfg.reg_a > 0:
            return np.zeros(len(self._sq_flat))
        n = _frobenius(self._deltas)
        sq = n * n
        total = sq[0]
        for s in sq[1:]:
            total = total + s
        l_reg = 0.25 * self.cfg.reg_a * total
        return 0.5 * l_reg if self.embedded else l_reg

    def descent(self) -> np.ndarray:
        """The ``(B, N, m, m)`` descent direction at the last evaluation."""
        self._descend()
        return self._direction.swapaxes(0, 1)

    def _stage(self) -> None:
        """An RK4 stage's direction at the layers: only what it reads, and no loss terms."""
        if not self.cfg.omit_l_ori:
            self._products()
        if self.cfg.reg_a > 0:
            self._defects()
        self._descend()

    def step(self) -> None:
        """One GD or RK4 step (``cfg.integrator``) of the layers, in place, from the last measure.

        GD moves ``w + eta * direction``, bitwise ``w - eta * gradient``:
        negation is exact and rounding symmetric.  The first RK4 stage is
        the direction at the measured layers, and the stages are summed as
        ``((k1 + 2 k2) + 2 k3) + k4``.
        """
        x, d, cfg = self._x, self._direction, self.cfg
        self._descend()
        if cfg.integrator == "gd":
            np.multiply(d, cfg.eta, out=d)
            np.add(x, d, out=x)
        else:
            h, start, acc = cfg.step_h, self._start, self._acc
            np.copyto(start, x)
            np.copyto(acc, d)
            # Stages 2 to 4 at start + c * (the stage before).  A stage is
            # doubled into acc once the next stage's layers are made from
            # it, and k4 is added after the loop.
            for c, weighted in ((0.5 * h, False), (0.5 * h, True), (h, True)):
                np.multiply(d, c, out=x)
                np.add(start, x, out=x)
                if weighted:
                    np.multiply(d, 2.0, out=d)
                    np.add(acc, d, out=acc)
                self._stage()
            np.add(acc, d, out=acc)
            np.multiply(acc, h / 6.0, out=acc)
            np.add(start, acc, out=x)
        if self.embedded:
            self._reembed()

    def _reembed(self) -> None:
        """Restore ``[[A, -B], [B, A]]`` from the left blocks of the embedded layers.

        Through a contiguous buffer: numpy copies an operand that overlaps
        its output, and buffers a strided operand of a ufunc.  Only copies
        and one negation, so no bit of ``A`` or ``B`` changes.
        """
        left, right, two, lower_left = self._reembed_views
        np.copyto(two, left)
        np.negative(lower_left, out=lower_left)
        np.copyto(right, two)


# ---------------------------------------------------------------------------
# Real embedding of complex problems: applied where a problem enters and
# leaves the kernel.
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


def _kernel(w: np.ndarray, sigma: np.ndarray, cfg: DynConfig) -> _Kernel:
    """The run loop's kernel of ``(B, N, d, d)`` layers and ``(B, d, d)`` targets.

    A batch with complex layers or targets is stepped as its real embedding.
    """
    if np.iscomplexobj(w) or np.iscomplexobj(sigma):
        return _Kernel(_embed(w), _embed(sigma), cfg, embedded=True)
    return _Kernel(w, sigma, cfg)


# ---------------------------------------------------------------------------
# Calls onto the kernel: each builds a kernel of its own.
# ---------------------------------------------------------------------------


def _check_dims(stack: LayerStack, sigma: np.ndarray) -> None:
    if sigma.shape != (stack.dim, stack.dim):
        raise DimMismatchError("target dimension does not match the stack")


def _measured(stack: LayerStack, target: TargetSpec, cfg: DynConfig) -> _Kernel:
    """The run loop's kernel of one problem, measured: a complex problem as its embedding."""
    _check_dims(stack, target.matrix)
    kernel = _kernel(stack.layers[None], target.matrix[None], cfg)
    kernel.measure()
    return kernel


def _step(stack: LayerStack, target: TargetSpec, cfg: DynConfig, integrator: str) -> LayerStack:
    kernel = _measured(stack, target, replace(cfg, integrator=integrator))
    kernel.step()
    layers = kernel.layers[0]
    return LayerStack(_unembed(layers) if kernel.embedded else layers)


def balance_deltas(stack: LayerStack) -> np.ndarray:
    """Adjacent balance defects ``W_j W_j^H - W_{j+1}^H W_{j+1}``, j = 1..N-1, stacked."""
    return _defects(stack.layers)


def loss(stack: LayerStack, target: TargetSpec, cfg: DynConfig) -> tuple[float, float, float]:
    """Returns ``(l_ori, l_reg, total)``; ``l_ori`` reported even when omitted."""
    kernel = _measured(stack, target, cfg)
    l_ori, l_reg = float(kernel.finish()[0]), float(kernel.l_reg()[0])
    return l_ori, l_reg, (0.0 if cfg.omit_l_ori else l_ori) + l_reg


def gradient(stack: LayerStack, target: TargetSpec, cfg: DynConfig) -> np.ndarray:
    """Exact gradient of the total loss with respect to every layer, as ``(N, d, d)``.

    A complex stack's gradient is read from the left blocks of its embedding's.
    """
    kernel = _measured(stack, target, cfg)
    grad = -kernel.descent()[0]
    return _unembed(grad) if kernel.embedded else grad


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
