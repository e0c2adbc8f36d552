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
once.  That sequence is made once too, as call plans: lists of ``(function,
args)`` entries whose outputs are positional arguments, so running a plan
costs the numpy calls and little else, with no method call or keyword
between them.  Slots that would hold copies share memory instead: the
layers sit in one buffer with the suffix and the prefix products, whose
first suffix and top prefix are the bottom and top layers themselves.  No
call writes an output whose memory span encloses another view it reads:
numpy cannot cheaply prove such views apart, so it would copy the inputs
on every call.  The buffer holds the layers, and the products made from
them, transposed, and the descent direction is made transposed too, so
that every product reads its operands stored or both transposed; the
regularizer reads the layers untransposed too, copied in once per
evaluation.

Every step is a round of :meth:`_Kernel.advance`, a block of up to
``block`` rounds that tests nothing per round and takes no loss in them
either: each round leaves its misfit in a slot of its own, and after the
block one call takes every round's squared Frobenius norm (one dot per
problem and round) and three elementwise calls make it ``l_ori``.  So
:meth:`_Kernel.advance` returns the ``l_ori`` history of its rounds, and
:meth:`_Kernel.measure`, the one evaluation without a step, for
:func:`loss` and :func:`gradient`, returns that of one.  The layers of
the rounds the caller keeps (the run loop's guard, record and last steps)
are copied aside before they step, one call each, and everything else is
read from those copies: their layers, norms and ``l_reg``, whose defects
are :func:`_defects` of them.  :meth:`_Kernel.replay` steps one problem
alone again from the first kept round to a round that was not kept, and
keeps only that round.

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
independent of the batch, and :func:`gd_step` and :func:`flow_step_rk4`
step a complex stack bitwise as the run loop does.  Only the balance
defects of the monitors are computed in complex arithmetic, by
:func:`_defects`, which makes ``l_reg``'s from the embedded layers too.

The embedding stays inside the kernel: ``_Kernel.layers`` is the one
thing it holds that may be embedded.  Everything else it hands out is in
the problems' own field: the losses, which are halved; the layers of one
problem, copied and read from the left blocks
(:meth:`_Kernel.own_layers`); the layer norms of the divergence guard
(:meth:`_Kernel.kept_norms`), taken over an embedded layer's top rows
``[A, -B]``, which hold exactly the complex norm's terms, so the guard's
bound means the same in both fields; and the descent direction
(:meth:`_Kernel.descent`), whose left blocks are the complex one.

Ownership: ``layers`` and a real problem's descent direction are views
of the kernel's buffers, valid until its next block or evaluation;
:meth:`_Kernel.own_layers` copies, so a trajectory's records keep what it
gives.  :func:`loss`, :func:`gradient`, :func:`gd_step` and
:func:`flow_step_rk4` build a kernel of their own for each call, so they
never write to their inputs, and what they return is not shared:
:func:`gd_step` and :func:`flow_step_rk4` are one :meth:`_Kernel.advance`
round, and :func:`loss` and :func:`gradient` one :meth:`_Kernel.measure`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DimMismatchError
from .linalg import adjoint, svd

__all__ = [
    "LayerStack",
    "TargetSpec",
    "DynConfig",
    "product",
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
            m, diag = self.matrix, np.diagonal(self.matrix)
            # Finite entries first, so no Inf reaches the subtraction; and
            # written so that NaN fails every test.
            if not (
                np.isfinite(m).all()
                and np.linalg.norm(m - np.diag(diag)) < 1e-14 * (1 + np.linalg.norm(m))
                and (diag.real >= 0).all()
                and (np.abs(diag.imag) <= 1e-14).all()
            ):
                raise ValueError("reduced target must be finite and diagonal with non-negative reals")

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
    step_h: float = 1e-3
    integrator: str = "gd"
    omit_l_ori: bool = False

    def __post_init__(self) -> None:
        # Written so that NaN fails every test.
        if not 0 <= self.reg_a < float("inf"):
            raise ConfigError(f"reg_a must be finite and non-negative, got {self.reg_a}")
        if not (0 < self.eta < float("inf") and 0 < self.step_h < float("inf")):
            raise ConfigError("step sizes eta and step_h must be finite and positive")
        if self.integrator not in ("gd", "flow_rk4"):
            raise ConfigError(f"unknown integrator {self.integrator!r}")




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
    sq = parts[0] @ parts[0].swapaxes(-1, -2)
    for p in parts[1:]:
        sq += p @ p.swapaxes(-1, -2)
    return np.sqrt(sq, out=sq)[..., 0, 0]


def _defects(w: np.ndarray) -> np.ndarray:
    """Balance defects ``W_j W_j^H - W_{j+1}^H W_{j+1}`` of ``(..., N, d, d)`` layers, as ``(..., N-1, d, d)``.

    In the layers' own field: complex for the monitors, the kernel's real
    field for :meth:`_Kernel.kept_l_reg`.  The Gram products read the layers
    and their conjugate, two buffers, so numpy runs them as gemm, as the
    kernel's do (see :class:`_Kernel`).
    """
    c = np.conjugate(w)
    upper, lower = w[..., :-1, :, :], w[..., 1:, :, :]
    upper_h, lower_h = c[..., :-1, :, :].swapaxes(-1, -2), c[..., 1:, :, :].swapaxes(-1, -2)
    return upper @ upper_h - lower_h @ lower


def _pair(rows: np.ndarray, i: int, j: int) -> np.ndarray:
    """``rows[i]`` and ``rows[j]`` as one two-row view."""
    return rows[i : j + 1 : j - i] if i < j else rows[j : i + 1 : i - j][::-1]


def _runs(buf: np.ndarray, count: int) -> np.ndarray:
    """Every ``count`` consecutive slots of ``buf``, on its first axis, as one read-only view: row ``i`` is ``buf[i : i + count]``."""
    return np.moveaxis(sliding_window_view(buf, count, axis=0), -1, 1)


def _run(plan: list) -> None:
    """Run a call plan: each entry is a numpy function and its positional arguments, outputs included."""
    for fn, args in plan:
        fn(*args)


class _Window(NamedTuple):
    """The views of one window of a kernel's lefts buffer (see :class:`_Kernel`)."""

    misfit: np.ndarray
    factors: np.ndarray
    direction: np.ndarray


class _Kernel:
    """The loss, its descent direction and GD or RK4 steps of a batch of real problems.

    Built from real ``(B, N, m, m)`` layers ``w`` and ``(B, m, m)`` targets
    ``sigma``; a complex batch enters as its embedding (:func:`_kernel`).
    It copies the layers into ``layers``, its own ``(B, N, m, m)`` array,
    which every step updates in place; ``sigma`` is only read.  Each buffer
    is layer-major (one contiguous ``(B, m, m)`` block per layer), and every
    per-layer and transposed view is made here, once.

    Every operation is a call plan made here too: a list of ``(function,
    args)`` entries, each a numpy call whose output is among its positional
    arguments, over those views.  Each round of :meth:`advance` only runs
    a plan; :meth:`measure` and :meth:`descent`, which only :func:`loss`,
    :func:`gradient` and ``gradcheck`` call, build theirs when called.
    :meth:`_descend`, :meth:`_measure`, :meth:`_stepping` and
    :meth:`_reembed` build the pieces the plans are made of.

    The chain buffer holds the layers and the suffix and prefix products,
    transposed, in ``N^2 + N + 1`` slots: an identity in slot 0,
    ``x[j]^T`` in slot ``N + j``, which the steps update, ``suffix[t]^T``
    in slot ``(t + 1) N``, ``prefix[j]^T`` in slot ``2 N - 1 + (N - 2 - j)
    N``, the product ``W`` in slot ``N^2``, untransposed, and ``x[j]`` in
    slot ``N^2 + 1 + j``, which only the regularizer reads.  The layers
    keep positive strides, since an in-place update with a reversed operand
    makes numpy buffer it, and the suffix products, read by the descent
    direction, form one strided view, as do the prefix products.  The two
    chains are independent, so each matmul over two-block views of the
    buffer advances both: chain step ``t`` makes ``suffix[t]^T =
    suffix[t-1]^T x[t]^T`` and ``prefix[N-2-t]^T = x[N-1-t]^T
    prefix[N-1-t]^T`` in slots ``(t + 1) N`` and ``(t + 2) N - 1``, above
    every slot it reads, so no output pair's span encloses an operand and
    numpy copies none (``TestChainLayout``).  The last product ``W =
    (x[N-1]^T)^T (suffix[N-2]^T)^T`` reads both operands transposed (TT),
    so the misfit subtracts contiguous operands.  The left factors
    ``prefix[j]^T M`` read stored operands, and one TT matmul makes every
    layer's transposed direction ``suffix[j-1] factors[j]^T``, the
    identity standing below the bottom layer, so a step adds contiguous
    operands.  So no matmul reads a transposed right operand beside a
    stored left one (NT): numpy's batched gemm of 5x5 matrices over 3
    layer slots takes 13.2 against 4.8 us at B = 25 with the right operand
    transposed against stored (2.0 against 1.5 us at B = 1; 2 vCPUs, one
    OpenBLAS 0.3.31 thread).  Each product has the bits of the
    untransposed form on the tested OpenBLAS build
    (``TestTransposedProduct``); the identity's product is ``factors[0]^T``
    on finite operands but for the sign of a zero, and NaN where
    ``factors[0]`` holds an Inf.

    The regularizer adds its own work only.  Every evaluation first copies
    the layers in untransposed.  The defects ``Delta`` sit in slots 1 to
    ``N - 1``, which the chain leaves free.  It pairs its products as the
    chains do, over two-block views of runs of ``N - 1`` slots
    (:func:`_runs`): one matmul ``[x[:-1], x^T[1:]] @ [x^T[:-1], x[1:]]``
    makes both defect Grams ``W_j W_j^T`` and ``W_{j+1}^T W_{j+1}`` and one
    subtraction the defects, then one matmul ``[Delta, x^T[:-1]] @
    [x^T[1:], Delta]`` makes the transposed direction's terms ``Delta_j
    x[j+1]^T`` and ``x[j]^T Delta_j``, the transposes of ``W_{j+1}
    Delta_j`` and ``Delta_j W_j`` (``Delta`` is symmetric), into a buffer
    of their own.  Both are scaled by ``a`` in one call, planned only when
    ``a != 1``, since ``x * 1.0`` is ``x`` for every float.  Each matrix is
    the gemm of a per-matrix product on the same stored operands, so
    pairing changes no bit.  The Gram products read each layer and its
    stored transpose, two copies, so numpy runs them as gemm: over one
    copy read through a transposed view it would take its ``syrk`` path
    (the same bits on the tested OpenBLAS build, which ``TestGramPath``
    pins).

    The lefts buffer holds the misfit ``M``, the left factors ``prefix^H
    M`` and the transposed descent direction, in ``block`` slots more than
    a window.  An evaluation uses a window of ``2N`` of them, which
    :meth:`_window` slices: window ``r`` holds the misfit in slot ``r``,
    ``factors[j]`` in slot ``r + N - 1 - j`` (so ``factors[N-1]`` is the
    misfit and ``factors[j] = prefix[j]^H M`` below it), and
    ``direction[j]^T`` in slot ``r + N + j``.  Round ``r`` of
    :meth:`advance` evaluates in window ``r``, so its misfit stays in slot
    ``r`` while the later rounds write above it, and after the block
    :meth:`_history` takes every round's ``l_ori`` from those slots.  RK4
    stages 2 to 4 of round ``r`` evaluate in window ``r + 1``, which round
    ``r + 1`` overwrites before it reads it.  :meth:`measure` evaluates in
    window 0 and takes its ``l_ori`` by the same calls, over slot 0.
    ``block`` is the longest :meth:`advance`; the buffer is made here,
    whatever the block, so no step allocates.

    The kept buffer holds ``kept`` copies of the layers, layer-major like
    them and untransposed: :meth:`advance` copies the layers of each round
    it is asked to keep into the next one before that round runs, and
    :meth:`measure` copies them into the first.  :meth:`kept_norms`,
    :meth:`kept_l_reg` and :meth:`own_layers` read them, and
    :meth:`replay` starts from the first.

    ``embedded`` marks real embeddings of complex problems: ``l_ori`` and
    ``l_reg`` are halved, and every step ends by restoring the exact
    embedded form from the left blocks.  Off it the real dynamics have
    directions that the complex dynamics lack, which can be unstable where
    the complex run is not.  ``layers`` is the only embedded thing the
    kernel hands out; :meth:`own_layers`, :meth:`kept_norms` and
    :meth:`descent` give the problems' own field.

    :meth:`advance` runs rounds of evaluating and stepping, keeping some,
    and is the only code that steps; it and :meth:`measure` return the
    ``l_ori`` history.  :meth:`replay` steps one problem alone from the
    first kept round of the last :meth:`advance`.  :meth:`measure` must
    precede :meth:`descent`, whose return is a view valid until the next
    block or evaluation.
    Every operation acts on each problem's matrices alone, and each matrix
    product keeps the operands and association of a per-problem loop, so a
    problem's values do not depend on the batch it is in.
    """

    def __init__(
        self, w: np.ndarray, sigma: np.ndarray, cfg: DynConfig, embedded: bool = False, block: int = 1, kept: int = 1
    ) -> None:
        b, n, m, _ = w.shape
        self.cfg, self.sigma, self.embedded = cfg, sigma, embedded

        def buf(k: int) -> np.ndarray:
            return np.empty((k, b, m, m))

        # suffix[j] = W_{j+1} ... W_1, right-associated, so suffix[-1] = W.
        # prefix[j] = W_N ... W_{j+2}, the product of the layers above layer
        # j + 1, built from the left: prefix[-1] = W_N, prefix[j-1] = prefix[j] W_{j+1}.
        # Step t makes suffix[t] and, but on the last step, prefix[n-2-t].
        # An identity in slot 0, x[j]^T in slot n + j, suffix[t]^T in slot
        # (t + 1) n, prefix[j]^T in slot 2 n - 1 + (n - 2 - j) n, W in slot
        # n^2 and x[j] in slot n^2 + 1 + j, as the class docstring lays out.
        at = n * n + 1
        chain = buf(at + n)
        chain[0] = np.eye(m)
        stored, lower_t = chain[n : 2 * n], chain[:at:n]
        # Step t: [suffix[t-1]^T, x[n-1-t]^T] @ [x[t]^T, prefix[n-1-t]^T], into slots (t + 1) n, (t + 2) n - 1.
        chain_ops = [
            (_pair(chain, t * n, 2 * n - 1 - t), _pair(chain, n + t, (t + 1) * n - 1), _pair(chain, (t + 1) * n, (t + 2) * n - 1))
            for t in range(1, n - 1)
        ] + [(stored[n - 1].swapaxes(-1, -2), lower_t[n - 1].swapaxes(-1, -2), lower_t[n])]
        self._chain = [(np.matmul, op) for op in chain_ops]
        x, self._product = stored.swapaxes(-1, -2), lower_t[n]
        # The product of the layers below each layer: the identity below
        # the bottom one, then suffix[j - 1] below layer j + 1.
        self._suffix = lower_t[:n].swapaxes(-1, -2)
        self._prefix_h = chain[2 * n - 1 : at : n][::-1]
        if cfg.reg_a > 0:
            self._copy_x = (np.copyto, (chain[at:], x))
            # The defects in the n - 1 slots the chain leaves free, and the
            # Gram and regularizer products, two blocks of n - 1, in their own buffer.
            self._deltas, self._products = chain[1:n], np.empty((2, n - 1, b, m, m))
            runs = _runs(chain, n - 1)
            # Both Gram products, [x[:-1], x^T[1:]] @ [x^T[:-1], x[1:]], into
            # the two blocks of products, then their difference.
            self._defects = [
                (np.matmul, (_pair(runs, at, n + 1), _pair(runs, n, at + 1), self._products)),
                (np.subtract, (self._products[0], self._products[1], self._deltas)),
            ]
            # [(W_{j+1} Delta_j)^T, (Delta_j W_j)^T] = [Delta, x^T[:-1]] @ [x^T[1:], Delta].
            self._balance = (np.matmul, (_pair(runs, 1, n), _pair(runs, n + 1, 1), self._products))
        self._lefts = buf(block + 2 * n)
        x[...] = w.swapaxes(0, 1)
        self.layers = x.swapaxes(0, 1)
        # The layers, layer-major, and their stored transposes, which the steps update.
        self._x, self._stored = x, stored
        # The layers of the kept rounds of the last advance, layer-major like
        # x, one (N, B, m, m) slot each; replay starts from the first.
        self._kept = np.empty((n, kept, b, m, m))
        self._kept_slots = [self._kept[:, j] for j in range(kept)]
        # An embedded layer's top rows [A, -B]: its own-field norm's terms.
        self._kept_rows = self._kept[..., : m // 2 if embedded else m, :]
        # Each lefts slot as one (B, 1, m * m) row, and as a column.
        self._misfit_rows = _flat_rows(self._lefts)
        self._misfit_cols = self._misfit_rows.swapaxes(-1, -2)
        self._l_ori_scale = 0.25 if embedded else 0.5
        # The plans' scalar operands, as 0-d arrays, which numpy takes faster
        # than floats, to the same bits: eta, a, and RK4's h / 2, h, 2 and h / 6.
        self._eta, self._a = np.array(cfg.eta), np.array(cfg.reg_a)
        if cfg.integrator == "flow_rk4":
            self._start, self._acc = buf(n), buf(n)
            step_h = cfg.step_h
            self._rk4_scalars = [np.array(v) for v in (0.5 * step_h, step_h, 2.0, step_h / 6.0)]
        if embedded:
            h = m // 2
            # Each layer's blocks on the axes (row block, i, column block, j):
            # the stored transposes' block axes swapped, and each block read
            # as stored, transposed, which its copies and negation do not
            # mind.  Then [lower left, upper left] and [upper right, lower
            # right], block first, and a buffer of the two blocks of every layer.
            blocks = stored.reshape(n, b, 2, h, 2, h).swapaxes(2, 4)
            two = np.empty((2, n, b, h, h))
            self._reembed_views = (
                np.moveaxis(blocks[:, :, ::-1, :, 0], 2, 0), np.moveaxis(blocks[..., 1, :], 2, 0), two, two[0]
            )
        self._windows = windows = [self._window(r) for r in range(block + 1)]
        self._rounds = [self._measure(windows[r]) + self._stepping(windows[r], windows[r + 1]) for r in range(block)]

    def take(self, rows) -> "_Kernel":
        """A kernel of the problems ``rows`` (an index or mask on the batch axis), not yet evaluated."""
        return _Kernel(
            self.layers[rows], self.sigma[rows], self.cfg, self.embedded, len(self._rounds), len(self._kept_slots)
        )

    def _window(self, r: int) -> _Window:
        """Window ``r`` of the lefts buffer: its misfit, factors and direction (see :class:`_Kernel`)."""
        lefts, n = self._lefts, len(self._x)
        return _Window(lefts[r], lefts[r : r + n][::-1], lefts[r + n : r + 2 * n])

    def _descend(self, win: _Window) -> list:
        """Descent direction, the negative gradient of the total loss, from the products (:meth:`_measure`), in window ``win``.

        Made transposed, as the layers are stored.  Misfit part:
        ``(W_N..W_{j+1})^H (Sigma - W) (W_{j-1}..W_1)^H``, one left factor
        ``prefix^H M`` per layer below the top (one matmul over the layer
        axis), then ``suffix[j-1] factors[j]^T`` for every layer, the
        identity standing below the bottom one (one more).  Regularizer
        part: the defects, made first, then ``a W_j Delta_{j-1,j} - a
        Delta_{j,j+1} W_j`` with the boundary defects defined as zero: both
        products' transposes in one matmul, scaled by ``a`` in one call
        unless ``a`` is 1, added to the direction above the bottom layer and
        subtracted below the top one.
        """
        cfg, direction = self.cfg, win.direction
        plan = list(self._defects) if cfg.reg_a > 0 else []
        if cfg.omit_l_ori:
            plan += [(direction.fill, (0.0,))]
        else:
            # The misfit broadcasts over the layer axis.
            plan += [
                (np.matmul, (self._prefix_h, win.misfit, win.factors[:-1])),
                (np.matmul, (self._suffix, win.factors.swapaxes(-1, -2), direction)),
            ]
        if cfg.reg_a > 0:
            products, high, low = self._products, direction[1:], direction[:-1]
            plan += [self._balance]
            if cfg.reg_a != 1.0:  # x * 1.0 is x for every float
                plan += [(np.multiply, (products, self._a, products))]
            plan += [(np.add, (high, products[0], high)), (np.subtract, (low, products[1], low))]
        return plan

    def _measure(self, win: _Window, stage: bool = False) -> list:
        """Products and misfit of the layers, the misfit into window ``win``.

        An RK4 ``stage`` makes only what :meth:`_descend` reads: under
        ``omit_l_ori`` no products either.
        """
        # The layers untransposed, which the defects read.
        plan = [self._copy_x] if self.cfg.reg_a > 0 else []
        if not (stage and self.cfg.omit_l_ori):
            # The suffix and prefix products, then the misfit ``Sigma - W``.
            plan += self._chain + [(np.subtract, (self.sigma, self._product, win.misfit))]
        return plan

    def _stepping(self, win: _Window, following: _Window) -> list:
        """One GD or RK4 step (``cfg.integrator``) of the layers, in place, from an evaluation in window ``win``.

        GD moves ``w + eta * direction``, bitwise ``w - eta * gradient``:
        negation is exact and rounding symmetric.  The first RK4 stage is
        the direction at the measured layers, and the stages are summed as
        ``((k1 + 2 k2) + 2 k3) + k4``; stages 2 to 4 evaluate in window
        ``following``.
        """
        x, d = self._stored, win.direction
        plan = self._descend(win)
        if self.cfg.integrator == "gd":
            plan += [(np.multiply, (d, self._eta, d)), (np.add, (x, d, x))]
        else:
            start, acc = self._start, self._acc
            half, h, two, sixth = self._rk4_scalars
            stage = self._measure(following, stage=True) + self._descend(following)
            plan += [(np.copyto, (start, x)), (np.copyto, (acc, d))]
            # Stages 2 to 4 at start + c * (the stage before).  A stage is
            # doubled into acc once the next stage's layers are made from
            # it, and k4 is added after them.
            for c, weighted in ((half, False), (half, True), (h, True)):
                plan += [(np.multiply, (d, c, x)), (np.add, (start, x, x))]
                if weighted:
                    plan += [(np.multiply, (d, two, d)), (np.add, (acc, d, acc))]
                plan += stage
                d = following.direction
            plan += [(np.add, (acc, d, acc)), (np.multiply, (acc, sixth, acc)), (np.add, (start, acc, x))]
        return plan + self._reembed() if self.embedded else plan

    def _reembed(self) -> list:
        """Restore ``[[A, -B], [B, A]]`` from the left blocks of the embedded layers.

        Through a contiguous buffer: numpy copies an operand that overlaps
        its output, and buffers a strided operand of a ufunc.  Only copies
        and one negation, so no bit of ``A`` or ``B`` changes.
        """
        left, right, two, lower_left = self._reembed_views
        return [(np.copyto, (two, left)), (np.negative, (lower_left, lower_left)), (np.copyto, (right, two))]

    def measure(self) -> np.ndarray:
        """One evaluation of the layers, without a step; returns its ``(1, B)`` ``l_ori`` history.

        The layers are kept as :meth:`advance` keeps a round's, in the first
        kept slot, and evaluated in window 0 by a plan made here, so the
        kept-slot readers and :meth:`descent` read this evaluation, and the
        history has the bits of an :meth:`advance` round from these layers.
        """
        np.copyto(self._kept_slots[0], self._x)
        _run(self._measure(self._windows[0]))
        return self._history(1)

    def _history(self, rounds: int) -> np.ndarray:
        """The ``(rounds, B)`` ``l_ori`` of the misfits in windows ``0 .. rounds - 1``.

        One matmul takes every squared misfit norm ``sq``, one dot per
        problem and round: the same dot over the same contiguous values as
        a per-round one, so the same bits.  Then, elementwise and in place,
        the norm ``sqrt(sq)`` is squared as ``n * n`` and halved, or on an
        embedding quartered, which gives the bits of two halvings: scaling
        by a power of two rounds only below the normal range, and there one
        quartering and two halvings round alike.
        """
        sq = np.matmul(self._misfit_rows[:rounds], self._misfit_cols[:rounds])[..., 0, 0]
        np.sqrt(sq, out=sq)
        np.multiply(sq, sq, out=sq)
        np.multiply(sq, self._l_ori_scale, out=sq)
        return sq

    def advance(self, rounds: int, keep: Sequence[int] = (0,)) -> np.ndarray:
        """``rounds`` steps, each from a fresh evaluation; returns their ``(rounds, B)`` ``l_ori`` history.

        Row ``t`` holds the ``l_ori`` of the layers ``t`` steps past the
        start.  The layers of each round in ``keep``, increasing rounds from
        0, are copied into the next kept slot before that round runs: one
        call per kept round, which :meth:`kept_norms`, :meth:`kept_l_reg`,
        :meth:`own_layers` and :meth:`replay` read.  Nothing is reduced per
        round, and the history is taken after the last round, so the
        caller reads it at once.  The layers end ``rounds`` steps
        on, not yet evaluated.
        ``rounds`` is at most the ``block``, and ``keep`` holds at most the
        ``kept`` rounds, the kernel was built for.
        """
        if rounds > len(self._rounds):
            raise ValueError(f"a kernel built for blocks of {len(self._rounds)} rounds cannot advance {rounds}")
        x, slots, slot = self._x, self._kept_slots, 0
        for r, plan in enumerate(self._rounds[:rounds]):
            if slot < len(keep) and keep[slot] == r:
                np.copyto(slots[slot], x)
                slot += 1
            _run(plan)
        return self._history(rounds)

    def replay(self, row: int, r: int) -> tuple["_Kernel", np.ndarray]:
        """A kernel of problem ``row`` alone, advanced ``r + 1`` rounds from the start of the last :meth:`advance` keeping only round ``r``, and its history.

        Every operation acts on each problem alone, so its layers, ``l_ori``
        and defects have the bits the batch had there.
        """
        layers = self._kept[:, 0, row : row + 1].swapaxes(0, 1)
        kernel = _Kernel(layers, self.sigma[row : row + 1], self.cfg, self.embedded, r + 1, 1)
        return kernel, kernel.advance(r + 1, [r])

    def kept_l_reg(self, count: int) -> np.ndarray:
        """``(count, B)`` ``l_reg`` of the first ``count`` kept rounds of the last :meth:`advance` or :meth:`measure`.

        The defects are :func:`_defects` of the kept layers, in the kernel's
        own field, which have the bits of an evaluation's own
        (``TestGramPath``).  Their squared norms are summed in layer order and
        scaled; zeros when the regularizer is off.  Computed only here,
        where it is read.
        """
        kept = self._kept[:, :count]
        if not self.cfg.reg_a > 0:
            return np.zeros(kept.shape[1:3])
        norms = _frobenius(_defects(np.moveaxis(kept, 0, -3)))
        sq = norms * norms
        total = sq[..., 0]
        for j in range(1, sq.shape[-1]):
            total = total + sq[..., j]
        l_reg = 0.25 * self.cfg.reg_a * total
        return 0.5 * l_reg if self.embedded else l_reg

    def descent(self) -> np.ndarray:
        """The ``(B, N, d, d)`` descent direction at the last :meth:`measure`, in the problems' own field."""
        win = self._windows[0]
        _run(self._descend(win))
        direction = win.direction.swapaxes(0, 1).swapaxes(-1, -2)
        return _unembed(direction) if self.embedded else direction

    def own_layers(self, row: int, out: np.ndarray | None = None, kept: int | None = None) -> np.ndarray:
        """Problem ``row``'s ``(N, d, d)`` layers in its own field, copied into ``out`` or a new array.

        The current layers, or those of the ``kept``-th kept round of the
        last :meth:`advance` or :meth:`measure`.  No later step writes what
        this returns.
        """
        layers = self.layers[row] if kept is None else self._kept[:, kept, row]
        if self.embedded:
            return _unembed(layers, out)
        if out is None:
            return layers.copy()
        np.copyto(out, layers)
        return out

    def kept_norms(self, count: int) -> np.ndarray:
        """``(count, B, N)`` Frobenius norms of the own-field layers of the first ``count`` kept rounds of the last :meth:`advance` or :meth:`measure`.

        An embedded layer's top rows ``[A, -B]`` hold exactly the terms of
        the complex layer's norm, so it is their norm: no layer is
        unembedded, and only the summation order differs from the complex
        dot's.  A NaN or Inf entry makes its layer's norm NaN or Inf.
        """
        return _frobenius(self._kept_rows[:, :count]).transpose(1, 2, 0)


# ---------------------------------------------------------------------------
# Real embedding of complex problems: applied where a problem enters and
# leaves the kernel.
# ---------------------------------------------------------------------------


def _embed(z: np.ndarray) -> np.ndarray:
    """Real ``(..., 2d, 2d)`` embedding ``[[A, -B], [B, A]]`` of every ``A + iB`` in ``z``."""
    a, b = z.real, z.imag
    return np.concatenate([np.concatenate([a, -b], -1), np.concatenate([b, a], -1)], -2)


def _unembed(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Complex ``(..., d, d)`` matrices whose embeddings ``x`` holds, read from the left blocks into ``out`` or a new array.

    ``_unembed(_embed(z))`` is ``z`` bit for bit.
    """
    d = x.shape[-1] // 2
    z = np.empty(x.shape[:-2] + (d, d), dtype=complex) if out is None else out
    z.real = x[..., :d, :d]
    z.imag = x[..., d:, :d]
    return z


def _kernel(w: np.ndarray, sigma: np.ndarray, cfg: DynConfig, block: int = 1, kept: int = 1) -> _Kernel:
    """The run loop's kernel of ``(B, N, d, d)`` layers and ``(B, d, d)`` targets, for advances of up to ``block`` rounds that keep up to ``kept``.

    A batch with complex layers or targets is stepped as its real embedding.
    """
    if np.iscomplexobj(w) or np.iscomplexobj(sigma):
        return _Kernel(_embed(w), _embed(sigma), cfg, embedded=True, block=block, kept=kept)
    return _Kernel(w, sigma, cfg, block=block, kept=kept)


# ---------------------------------------------------------------------------
# Calls onto the kernel: each builds a kernel of its own.
# ---------------------------------------------------------------------------


def _check_dims(stack: LayerStack, sigma: np.ndarray) -> None:
    if sigma.shape != (stack.dim, stack.dim):
        raise DimMismatchError("target dimension does not match the stack")


def _single(stack: LayerStack, target: TargetSpec, cfg: DynConfig) -> _Kernel:
    """The run loop's kernel of one problem: a complex problem as its embedding."""
    _check_dims(stack, target.matrix)
    return _kernel(stack.layers[None], target.matrix[None], cfg)


def _step(stack: LayerStack, target: TargetSpec, cfg: DynConfig, integrator: str) -> LayerStack:
    kernel = _single(stack, target, replace(cfg, integrator=integrator))
    kernel.advance(1)
    return LayerStack(kernel.own_layers(0))


def loss(stack: LayerStack, target: TargetSpec, cfg: DynConfig) -> tuple[float, float, float]:
    """Returns ``(l_ori, l_reg, total)``; ``l_ori`` reported even when omitted."""
    kernel = _single(stack, target, cfg)
    l_ori, l_reg = float(kernel.measure()[0, 0]), float(kernel.kept_l_reg(1)[0, 0])
    return l_ori, l_reg, (0.0 if cfg.omit_l_ori else l_ori) + l_reg


def gradient(stack: LayerStack, target: TargetSpec, cfg: DynConfig) -> np.ndarray:
    """Exact gradient of the total loss with respect to every layer, as ``(N, d, d)``.

    A complex stack's gradient is read from the left blocks of its embedding's.
    """
    kernel = _single(stack, target, cfg)
    kernel.measure()
    return -kernel.descent()[0]


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
    defects are unchanged.  A complex target rotates a real stack into a
    complex one.
    """
    _check_dims(stack, sigma_general)
    r = svd(sigma_general)
    layers = stack.layers.astype(np.result_type(stack.layers, r.v))
    layers[0] = layers[0] @ r.v
    layers[-1] = adjoint(r.u) @ layers[-1]
    return TargetSpec(np.diag(r.s), reduced=True), LayerStack(layers)
