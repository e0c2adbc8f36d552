"""Tests for the optimization core: loss, gradients, steppers, target reduction."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from factorlab import dynamics, lab
from factorlab.dynamics import (
    DynConfig,
    LayerStack,
    TargetSpec,
    _defects,
    _embed,
    _frobenius,
    _kernel,
    _Kernel,
    _unembed,
    flow_step_rk4,
    gd_step,
    gradient,
    loss,
    product,
    reduce_target,
)
from factorlab.ensembles import InitScheme, balanced_init, gaussian_matrix, haar_unitary, make_rng
from factorlab.errors import DimMismatchError
from factorlab.linalg import FieldTag, adjoint
from factorlab.monitors import balance_errors

FIELDS = (FieldTag.REAL, FieldTag.COMPLEX)


def rand_stack(d, n, field, rng, scale=0.6):
    return LayerStack(tuple(scale * gaussian_matrix(d, field, rng) for _ in range(n)))


def scalar_stack(*values):
    return LayerStack(tuple(np.array([[float(v)]]) for v in values))


class TestProduct:
    def test_identity_layers(self):
        st = LayerStack(tuple(np.eye(3) for _ in range(4)))
        np.testing.assert_allclose(product(st), np.eye(3))

    def test_scalar_product(self):
        assert product(scalar_stack(2, 3, 4, 5))[0, 0] == 120.0

    def test_fold_order_oracle(self):
        st = rand_stack(4, 4, FieldTag.COMPLEX, make_rng(1))
        w_left = st.layers[3] @ (st.layers[2] @ (st.layers[1] @ st.layers[0]))
        w_right = ((st.layers[3] @ st.layers[2]) @ st.layers[1]) @ st.layers[0]
        w = product(st)
        assert np.linalg.norm(w - w_left) < 1e-12 * (1 + np.linalg.norm(w))
        assert np.linalg.norm(w - w_right) < 1e-12 * (1 + np.linalg.norm(w))

    def test_order_is_descending_index(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0, 0.0], [1.0, 0.0]])
        st = LayerStack((a, b))
        np.testing.assert_allclose(product(st), b @ a)


class TestLoss:
    def test_zero_stack_identity_target(self):
        st = LayerStack(tuple(np.zeros((5, 5)) for _ in range(4)))
        l_ori, l_reg, total = loss(st, TargetSpec.identity(5), DynConfig(reg_a=0.0))
        assert abs(l_ori - 2.5) < 1e-14 and l_reg == 0.0 and abs(total - 2.5) < 1e-14

    def test_global_minimum(self):
        st = balanced_init(5, 4, InitScheme(kind="balanced", epsilon=0.3), FieldTag.REAL, make_rng(2))
        target = TargetSpec(product(st), reduced=False)
        l_ori, l_reg, total = loss(st, target, DynConfig(reg_a=3.0))
        assert l_ori < 1e-24 and l_reg < 1e-24 and total < 1e-24

    def test_appendix_diag_target_oracle(self):
        # independent oracle: direct Frobenius summation of the diagonal
        values = (2.00, 1.55, 1.10, 0.65, 0.20)
        st = LayerStack(tuple(np.zeros((5, 5)) for _ in range(4)))
        expected = 0.5 * sum(v**2 for v in values)
        l_ori, _, _ = loss(st, TargetSpec.diagonal(values), DynConfig())
        assert abs(l_ori - expected) < 1e-14
        assert abs(l_ori - 4.0375) < 1e-14

    def test_omit_l_ori(self):
        st = rand_stack(3, 4, FieldTag.REAL, make_rng(3))
        cfg = DynConfig(reg_a=2.0, omit_l_ori=True)
        l_ori, l_reg, total = loss(st, TargetSpec.identity(3), cfg)
        assert l_ori > 0 and total == l_reg

    def test_dim_mismatch(self):
        st = rand_stack(3, 2, FieldTag.REAL, make_rng(4))
        with pytest.raises(DimMismatchError):
            loss(st, TargetSpec.identity(4), DynConfig())

    def test_extreme_layer_scales_give_a_finite_loss_and_no_warning(self):
        # The product and misfit are of order 1e104 and 1e208, but the
        # descent direction would overflow: the loss evaluates without a
        # step, so it makes no direction and raises no RuntimeWarning.
        scales = np.array([1e104, 1e-104, 1e104, 1.0])[:, None, None]
        for seed in range(20):
            st = LayerStack(scales * np.random.default_rng(seed).standard_normal((4, 3, 3)))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = loss(st, TargetSpec.identity(3), DynConfig(reg_a=0.0))
            assert np.isfinite(got).all()


class TestGradient:
    def test_zero_stack(self):
        st = LayerStack(tuple(np.zeros((4, 4)) for _ in range(4)))
        for g in gradient(st, TargetSpec.identity(4), DynConfig(reg_a=1.0)):
            np.testing.assert_allclose(g, 0.0)

    def test_scalar_oracle(self):
        # d=1, a=0: grad w_j = -(prod_{k != j} w_k)(sigma - prod w)
        st = scalar_stack(1, 1, 1, 1)
        target = TargetSpec(np.array([[2.0]]), reduced=True)
        grads = gradient(st, target, DynConfig(reg_a=0.0))
        for g in grads:
            assert abs(g[0, 0] - (-1.0)) < 1e-14

    def test_finite_difference_oracle(self):
        # trimmed version of the acceptance gradcheck: d=4, N=4, a=0.7
        h = 1e-6
        for field in FIELDS:
            rng = make_rng(5)
            st = rand_stack(4, 4, field, rng)
            target = TargetSpec(gaussian_matrix(4, field, rng), reduced=False)
            cfg = DynConfig(reg_a=0.7)
            grads = gradient(st, target, cfg)
            parts = (1.0, 1j) if field is FieldTag.COMPLEX else (1.0,)
            rng_idx = np.random.default_rng(0)
            for _ in range(24):
                j = int(rng_idx.integers(0, 4))
                k = int(rng_idx.integers(0, 4))
                l = int(rng_idx.integers(0, 4))
                for unit in parts:
                    layers = [w.copy() for w in st.layers]
                    layers[j][k, l] += unit * h
                    fp = loss(LayerStack(tuple(layers)), target, cfg)[2]
                    layers[j][k, l] -= 2 * unit * h
                    fm = loss(LayerStack(tuple(layers)), target, cfg)[2]
                    fd = (fp - fm) / (2 * h)
                    g = grads[j][k, l]
                    ana = g.real if unit == 1.0 else g.imag
                    assert abs(ana - fd) / (1 + abs(ana)) < 1e-6

    def test_product_derivative_free_of_regularizer(self):
        # chain-rule dW/dt equals the regularizer-free expression exactly,
        # because the boundary balance defects vanish identically
        for field in FIELDS:
            rng = make_rng(6)
            st = rand_stack(4, 4, field, rng, scale=0.8)
            target = TargetSpec(gaussian_matrix(4, field, rng), reduced=False)
            cfg = DynConfig(reg_a=0.7)
            grads = gradient(st, target, cfg)
            n = st.depth
            eye = np.eye(4, dtype=st.layers[0].dtype)
            suffix = [eye]
            for w in st.layers:
                suffix.append(w @ suffix[-1])
            prefix = [eye]
            for w in reversed(st.layers):
                prefix.append(prefix[-1] @ w)
            prefix = prefix[::-1]
            dw_chain = sum(
                prefix[j] @ (-grads[j - 1]) @ suffix[j - 1] for j in range(1, n + 1)
            )
            misfit = target.matrix - suffix[-1]
            dw_free = sum(
                prefix[j] @ adjoint(prefix[j]) @ misfit @ adjoint(suffix[j - 1]) @ suffix[j - 1]
                for j in range(1, n + 1)
            )
            scale = 1 + np.linalg.norm(dw_free)
            assert np.linalg.norm(dw_chain - dw_free) < 1e-10 * scale


class TestGdStep:
    def test_fixed_point(self):
        st = LayerStack(tuple(np.zeros((3, 3)) for _ in range(4)))
        new = gd_step(st, TargetSpec.identity(3), DynConfig(reg_a=1.0, eta=0.1))
        for w in new.layers:
            np.testing.assert_allclose(w, 0.0)

    def test_scalar_step(self):
        st = scalar_stack(1, 1, 1, 1)
        target = TargetSpec(np.array([[2.0]]), reduced=True)
        new = gd_step(st, target, DynConfig(reg_a=0.0, eta=0.1))
        for w in new.layers:
            assert abs(w[0, 0] - 1.1) < 1e-14

    def test_descent_direction(self):
        st = balanced_init(5, 4, InitScheme(kind="balanced", epsilon=0.05), FieldTag.REAL, make_rng(7))
        target = TargetSpec.identity(5)
        cfg = DynConfig(reg_a=0.0, eta=1e-4)
        before = loss(st, target, cfg)[2]
        after = loss(gd_step(st, target, cfg), target, cfg)[2]
        assert after < before


class TestBalanceDrift:
    """GD's exact balance drift without the regularizer.

    With ``D_j = W_{j+1}^H W_{j+1} - W_j W_j^H`` and gradients ``G_j``, one
    step ``W - eta G`` changes ``D_j`` by ``eta^2 (G_{j+1}^H G_{j+1} - G_j
    G_j^H)``: the first-order terms cancel, since ``W_{j+1}^H G_{j+1} = G_j
    W_j^H``.  A wrong sign or layer in the direction breaks this at first
    order, in the first step.
    """

    @staticmethod
    def _defects(w):
        return adjoint(w[:, 1:]) @ w[:, 1:] - w[:, :-1] @ adjoint(w[:, :-1])

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
    def test_step_changes_the_defects_by_the_second_order_term(self, field, n, batch):
        # Layers of order 1 (at most 1.6 in magnitude) over 300 steps of
        # the run loop's kernel: residuals measured at most 1.7e-15, drift
        # terms at least 8.2e-3 at their largest in a run.
        eta = 0.05
        w, sigma = _problem(field, n, batch, seed=n + batch)
        kernel = _kernel(w, sigma, DynConfig(reg_a=0.0, eta=eta))
        drift = 0.0
        for _ in range(300):
            kernel.measure()
            g = -kernel.descent()
            before = np.stack([kernel.own_layers(row) for row in range(batch)])
            kernel.advance(1)
            after = np.stack([kernel.own_layers(row) for row in range(batch)])
            term = eta * eta * (adjoint(g[:, 1:]) @ g[:, 1:] - g[:, :-1] @ adjoint(g[:, :-1]))
            assert np.abs(self._defects(after) - self._defects(before) - term).max() <= 1e-14
            drift = max(drift, np.abs(term).max())
        assert drift > 1e-3


class TestFlowRk4:
    def test_equilibrium(self):
        st = LayerStack(tuple(np.zeros((3, 3)) for _ in range(4)))
        new = flow_step_rk4(st, TargetSpec.identity(3), DynConfig(reg_a=1.0, step_h=1e-2, integrator="flow_rk4"))
        for w in new.layers:
            np.testing.assert_allclose(w, 0.0)

    def test_richardson_order(self):
        # d=1, N=2, Sigma=0, symmetric start w1=w2=c: dw/dt = -w^3, so
        # w(t) = c / sqrt(1 + 2 c^2 t); global convergence order must be ~4
        c, t_final = 1.0, 0.5
        target = TargetSpec(np.array([[0.0]]), reduced=True)
        exact = c / np.sqrt(1 + 2 * c * c * t_final)

        def integrate(h):
            st = scalar_stack(c, c)
            cfg = DynConfig(reg_a=0.0, step_h=h, integrator="flow_rk4")
            for _ in range(round(t_final / h)):
                st = flow_step_rk4(st, target, cfg)
            return st.layers[0][0, 0]

        err_h = abs(integrate(0.02) - exact)
        err_h2 = abs(integrate(0.01) - exact)
        order = np.log2(err_h / err_h2)
        assert 3.5 < order < 4.5

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
    def test_balance_drift_is_fourth_order(self, field, n, batch):
        # The flow keeps every balance defect, so from a balanced start the
        # final e_delta of the run loop's kernel is RK4's error: it falls by
        # 2^4 = 16 per halving of step_h.  Balanced layers with G's singular
        # values pinned and the product's scale held along n (eps =
        # 0.5^(4/n)), to t = 4: measured ratios 12.9 to 19.7, the finer
        # halving 14.4 to 17.3, and final e_delta at least 2.1e-10 from at
        # most 1e-15 at the start.  Third order would give 8, fifth 32.
        rng = make_rng(10 * n + batch)
        scheme = InitScheme(kind="balanced", epsilon=0.5 ** (4 / n), g_singular_values=(1.0, 0.8, 0.6, 0.5, 0.9))
        w = np.stack([balanced_init(5, n, scheme, field, rng).layers for _ in range(batch)])
        sigma = np.stack([np.diag(rng.uniform(0.2, 2.0, 5)).astype(w.dtype) for _ in range(batch)])

        def e_delta(layers):
            return np.array([balance_errors(LayerStack(stack))[1] for stack in layers])

        finals = []
        for h in (0.1, 0.05, 0.025):
            steps = round(4 / h)
            kernel = _kernel(w, sigma, DynConfig(reg_a=0.0, step_h=h, integrator="flow_rk4"), block=steps)
            kernel.advance(steps)
            finals.append(e_delta([kernel.own_layers(row) for row in range(batch)]))
        coarse, fine = finals[0] / finals[1], finals[1] / finals[2]
        assert np.all((12 < coarse) & (coarse < 21)) and np.all((13.5 < fine) & (fine < 18.5))
        assert np.all(finals[2] > 1e4 * e_delta(w))

    def test_balance_preserved_along_flow(self):
        st = balanced_init(5, 4, InitScheme(kind="balanced", epsilon=0.05), FieldTag.COMPLEX, make_rng(8))
        target = TargetSpec.identity(5)
        cfg = DynConfig(reg_a=0.0, step_h=1e-3, integrator="flow_rk4")
        for _ in range(500):
            st = flow_step_rk4(st, target, cfg)
        _, e = balance_errors(st)
        assert e < 1e-8

    def test_regularizer_dissipation_closed_form(self):
        # per-step decrease of a * sum ||Delta||^2 matches the closed form
        # -4 sum_j ||a Delta_{j,j+1} W_j - a W_j Delta_{j-1,j}||^2 * h, with
        # first-order (in h) relative accuracy
        a = 1.0
        rng = make_rng(9)
        st = rand_stack(4, 4, FieldTag.REAL, rng, scale=0.8)
        target = TargetSpec.identity(4)

        def dissipation_rate(stack):
            deltas = [None, *_defects(stack.layers), None]
            total = 0.0
            for j in range(1, stack.depth + 1):
                term = np.zeros_like(stack.layers[0])
                if deltas[j] is not None:
                    term = term + a * deltas[j] @ stack.layers[j - 1]
                if deltas[j - 1] is not None:
                    term = term - a * stack.layers[j - 1] @ deltas[j - 1]
                total += np.linalg.norm(term) ** 2
            return -4.0 * total

        def reg_sum(stack):
            return a * sum(np.linalg.norm(dl) ** 2 for dl in _defects(stack.layers))

        errs = []
        for h in (1e-4, 5e-5):
            cfg = DynConfig(reg_a=a, step_h=h, integrator="flow_rk4", omit_l_ori=True)
            new = flow_step_rk4(st, target, cfg)
            measured = reg_sum(new) - reg_sum(st)
            predicted = dissipation_rate(st) * h
            errs.append(abs(measured - predicted) / abs(predicted))
        assert errs[0] < 5e-3
        assert errs[1] < 0.65 * errs[0]  # shrinks at least linearly with h


class TestReduceTarget:
    def test_identity_noop(self):
        st = rand_stack(3, 4, FieldTag.REAL, make_rng(10))
        target, new = reduce_target(np.eye(3), st)
        assert target.reduced
        np.testing.assert_allclose(target.matrix, np.eye(3))
        l0 = loss(st, TargetSpec.identity(3), DynConfig())[2]
        l1 = loss(new, target, DynConfig())[2]
        assert abs(l0 - l1) < 1e-12 * (1 + l0)

    def test_unsorted_diagonal_reordered(self):
        st = rand_stack(2, 4, FieldTag.REAL, make_rng(11))
        sigma = np.diag([0.2, 2.0])
        target, new = reduce_target(sigma, st)
        np.testing.assert_allclose(np.diagonal(target.matrix), [2.0, 0.2])
        cfg = DynConfig(reg_a=0.5)
        before = loss(st, TargetSpec(sigma, reduced=False), cfg)
        after = loss(new, target, cfg)
        assert abs(before[2] - after[2]) < 1e-10 * (1 + before[2])

    def test_loss_and_balance_invariance_random(self):
        for field in FIELDS:
            rng = make_rng(12)
            st = rand_stack(5, 4, field, rng)
            sigma = gaussian_matrix(5, field, rng)
            cfg = DynConfig(reg_a=1.3)
            before = loss(st, TargetSpec(sigma, reduced=False), cfg)
            _, e_before = balance_errors(st)
            target, new = reduce_target(sigma, st)
            after = loss(new, target, cfg)
            _, e_after = balance_errors(new)
            assert abs(before[2] - after[2]) < 1e-10 * (1 + before[2])
            assert abs(e_before - e_after) < 1e-12 * (1 + e_before)
            # interior layers untouched
            for j in (1, 2):
                assert np.array_equal(st.layers[j], new.layers[j])

    def test_complex_target_with_real_stack_keeps_the_loss(self):
        # The reduction rotates a real stack into a complex one; a real copy
        # would drop the imaginary parts, and numpy only warns.  Over these
        # 50 problems at d = 5 the losses agreed within 1.3e-15 relatively.
        cfg = DynConfig(reg_a=1.0)
        for seed in range(50):
            rng = make_rng(seed)
            st = rand_stack(5, 4, FieldTag.REAL, rng)
            sigma = gaussian_matrix(5, FieldTag.COMPLEX, rng)
            before = loss(st, TargetSpec(sigma, reduced=False), cfg)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                target, new = reduce_target(sigma, st)
                after = loss(new, target, cfg)
            assert np.iscomplexobj(new.layers)
            for b, a in zip(before, after):
                assert abs(a - b) <= 1e-14 * b

    def test_idempotent_up_to_permutation(self):
        st = rand_stack(3, 4, FieldTag.REAL, make_rng(13))
        sigma = np.diag([3.0, 2.0, 1.0])
        target, new = reduce_target(sigma, st)
        np.testing.assert_allclose(target.matrix, sigma, atol=1e-12)
        target2, new2 = reduce_target(target.matrix, new)
        np.testing.assert_allclose(target2.matrix, sigma, atol=1e-12)
        l1 = loss(new, target, DynConfig())[2]
        l2 = loss(new2, target2, DynConfig())[2]
        assert abs(l1 - l2) < 1e-10 * (1 + l1)


class TestConfigs:
    def test_dynconfig_validation(self):
        with pytest.raises(ValueError):
            DynConfig(reg_a=-1.0)
        with pytest.raises(ValueError):
            DynConfig(eta=0.0)
        with pytest.raises(ValueError):
            DynConfig(integrator="euler")

    def test_targetspec_reduced_validation(self):
        with pytest.raises(ValueError):
            TargetSpec(np.array([[1.0, 0.5], [0.0, 1.0]]), reduced=True)
        with pytest.raises(ValueError):
            TargetSpec(np.diag([1.0, -2.0]), reduced=True)
        # Non-finite entries on and off the diagonal, refused without a
        # warning: an Inf must not reach the arithmetic of the shape tests.
        nan, inf = float("nan"), float("inf")
        off_nan, off_inf = np.eye(2), np.eye(2)
        off_nan[0, 1], off_inf[0, 1] = nan, inf
        diagonals = [np.diag(v) for v in ([1.0, nan], [inf, 1.0], [1.0, -inf], [complex(1.0, nan), 1.0])]
        for m in diagonals + [off_nan, off_inf]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError):
                    TargetSpec(m, reduced=True)
        with pytest.raises(ValueError):
            TargetSpec.diagonal([1.0, nan])

    def test_layerstack_validation(self):
        with pytest.raises(ValueError):
            LayerStack((np.eye(2),))
        with pytest.raises(DimMismatchError):
            LayerStack((np.eye(2), np.eye(3)))


# ---------------------------------------------------------------------------
# The kernel as first written: a list of suffix products, a zeroed gradient
# filled with one negated product per layer, and ``w - eta * grad``.  On
# real arrays, an embedding's included, the leaner kernel must reproduce its
# every bit; on complex arrays it is the complex-arithmetic oracle that the
# embedded dynamics track.
# ---------------------------------------------------------------------------


def _ref_frobenius(x):
    flat = x.reshape(*x.shape[:-2], 1, x.shape[-2] * x.shape[-1])
    parts = (flat.real, flat.imag) if np.iscomplexobj(flat) else (flat,)
    return np.sqrt(sum(p @ p.swapaxes(-1, -2) for p in parts)[..., 0, 0])


def _ref_defects(w):
    upper, lower = w[..., :-1, :, :], w[..., 1:, :, :]
    return upper @ adjoint(upper) - adjoint(lower) @ lower


def _ref_evaluate(w, sigma, cfg):
    suffix = [w[..., 0, :, :]]
    for j in range(1, w.shape[-3]):
        suffix.append(w[..., j, :, :] @ suffix[-1])
    misfit = sigma - suffix[-1]
    n = _ref_frobenius(misfit)
    l_ori = 0.5 * (n * n)
    deltas = None
    l_reg = 0.0
    if cfg.reg_a > 0:
        deltas = _ref_defects(w)
        n = _ref_frobenius(deltas)
        l_reg = 0.25 * cfg.reg_a * sum(n[..., j] * n[..., j] for j in range(n.shape[-1]))
    return w, suffix, misfit, deltas, l_ori, l_reg


def _ref_gradient(ev, cfg):
    w, suffix, misfit, deltas, _, _ = ev
    grad = np.zeros_like(w)
    if not cfg.omit_l_ori:
        left = misfit
        prefix = None
        for j in range(w.shape[-3] - 1, 0, -1):
            grad[..., j, :, :] = -(left @ adjoint(suffix[j - 1]))
            prefix = w[..., j, :, :] if prefix is None else prefix @ w[..., j, :, :]
            left = adjoint(prefix) @ misfit
        grad[..., 0, :, :] = -left
    if cfg.reg_a > 0:
        a = cfg.reg_a
        grad[..., 1:, :, :] -= a * (w[..., 1:, :, :] @ deltas)
        grad[..., :-1, :, :] += a * (deltas @ w[..., :-1, :, :])
    return grad


def _ref_advance(ev, sigma, cfg):
    w = ev[0]
    if cfg.integrator == "gd":
        return w - cfg.eta * _ref_gradient(ev, cfg)
    h = cfg.step_h

    def rhs(y):
        return -_ref_gradient(_ref_evaluate(y, sigma, cfg), cfg)

    k1 = -_ref_gradient(ev, cfg)
    k2 = rhs(w + 0.5 * h * k1)
    k3 = rhs(w + 0.5 * h * k2)
    k4 = rhs(w + h * k3)
    return w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


REGIMES = {
    "plain": dict(reg_a=0.0),
    "regularized": dict(reg_a=1.0),
    "omit_l_ori": dict(reg_a=1.0, omit_l_ori=True),
    # Neither 1, whose scaling the kernel skips, nor a power of two.
    "weighted": dict(reg_a=0.7),
}


def _problem(field, n, batch, seed):
    rng = make_rng(seed)
    d = 5
    w = np.stack([rand_stack(d, n, field, rng, scale=0.45).layers for _ in range(batch or 1)])
    sigma = np.stack([np.diag(rng.uniform(0.2, 2.0, d)).astype(w.dtype) for _ in range(len(w))])
    return (w, sigma) if batch else (w[0], sigma[0])


class TestKernelBits:
    @pytest.mark.parametrize("batch", [None, 3], ids=["single", "batched"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("regime", list(REGIMES))
    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
    @pytest.mark.parametrize(
        "integrator, steps",
        [pytest.param("gd", 40, id="gd"), pytest.param("flow_rk4", 10, id="rk4")],
    )
    def test_steps_match_reference(self, integrator, steps, field, regime, n, batch):
        # The run loop's held kernel, stepped in place; a complex problem is
        # its embedding, restored to the embedded form after each step, and
        # its losses are the halves of the embedding's.
        cfg = DynConfig(eta=0.05, step_h=0.05, integrator=integrator, **REGIMES[regime])
        w, sigma = _problem(field, n, batch, seed=10 * n + len(regime))
        lead = w.shape[:-3]
        kernel = _kernel(w.reshape((-1,) + w.shape[-3:]), sigma.reshape((-1,) + sigma.shape[-2:]), cfg)
        embedded = field is FieldTag.COMPLEX
        assert kernel.embedded == embedded
        ref, ref_sigma = (_embed(w), _embed(sigma)) if embedded else (w, sigma)
        half = 0.5 if embedded else 1.0
        start = kernel.layers.copy()
        for _ in range(steps):
            history = kernel.advance(1)
            l_ori = history.reshape(lead)
            l_reg = kernel.kept_l_reg(1).reshape(lead)
            ref_ev = _ref_evaluate(ref, ref_sigma, cfg)
            assert np.array_equal(l_ori, half * ref_ev[4])
            assert np.array_equal(l_reg, np.broadcast_to(half * ref_ev[5], lead))
            ref = _ref_advance(ref_ev, ref_sigma, cfg)
            if embedded:
                ref = _embed(_unembed(ref))
            assert np.array_equal(kernel.layers.reshape(ref.shape), ref)
        assert np.all(np.isfinite(kernel.layers)) and not np.array_equal(kernel.layers, start)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("regime", list(REGIMES))
    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
    def test_gradient_matches_reference(self, field, regime, n):
        cfg = DynConfig(**REGIMES[regime])
        w, sigma = _problem(field, n, None, seed=n)
        got = gradient(LayerStack(w), TargetSpec(sigma), cfg)
        direct = _ref_gradient(_ref_evaluate(w, sigma, cfg), cfg)
        if field is FieldTag.COMPLEX:
            # Bitwise the reference on the embedding, and within rounding of
            # complex arithmetic.
            want = _unembed(_ref_gradient(_ref_evaluate(_embed(w), _embed(sigma), cfg), cfg))
            assert np.abs(got - direct).max() <= 1e-15 * np.abs(direct).max()
        else:
            want = direct
        assert np.array_equal(got, want)


class TestEmbedding:
    """Complex problems step as real embeddings ``[[A, -B], [B, A]]`` through the same kernel."""

    @staticmethod
    def _complex(shape, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def test_unembed_inverts_embed_bitwise(self):
        z = self._complex((6, 4, 5, 5), 1)
        z[0, 0, 0, :3] = [complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0)]
        back = _unembed(_embed(z))
        assert back.dtype == z.dtype and back.shape == z.shape
        assert back.tobytes() == z.tobytes()

    def test_transpose_is_the_adjoint(self):
        z = self._complex((3, 5, 5), 2)
        assert _embed(z).swapaxes(-1, -2).tobytes() == _embed(adjoint(z)).tobytes()

    def test_products_keep_the_embedded_form(self):
        a, b = self._complex((4, 5, 5), 3), self._complex((4, 5, 5), 4)
        np.testing.assert_allclose(_embed(a) @ _embed(b), _embed(a @ b), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("regime", ["plain", "regularized"])
    def test_halved_losses_are_the_complex_ones(self, regime):
        cfg = DynConfig(**REGIMES[regime])
        w, sigma = _problem(FieldTag.COMPLEX, 4, 8, seed=5)
        kernel = _kernel(w, sigma, cfg)
        got = kernel.measure()[0], kernel.kept_l_reg(1)[0]
        for x, y in zip(got, _ref_evaluate(w, sigma, cfg)[4:]):
            assert np.all(np.abs(x - y) <= 1e-15 * np.asarray(y))

    @pytest.mark.parametrize("regime", ["plain", "regularized"])
    @pytest.mark.parametrize(
        "integrator, steps",
        [pytest.param("gd", 6000, id="gd"), pytest.param("flow_rk4", 500, id="rk4")],
    )
    def test_trajectory_tracks_complex_arithmetic(self, integrator, steps, regime):
        # The run loop's held kernel against the reference stepped in
        # complex arithmetic: rounding differs between the two, and does
        # not grow.  Layers of order 1 that move by 0.5 to 1.
        cfg = DynConfig(eta=0.05, step_h=0.05, integrator=integrator, **REGIMES[regime])
        w, sigma = _problem(FieldTag.COMPLEX, 4, 3, seed=5)
        kernel = _kernel(w, sigma, cfg)
        start = w
        for _ in range(steps):
            kernel.advance(1)
            w = _ref_advance(_ref_evaluate(w, sigma, cfg), sigma, cfg)
        assert np.abs(w - start).max() > 0.5
        assert np.abs(_unembed(kernel.layers) - w).max() < 1e-12

    @pytest.mark.parametrize("complex_w, complex_sigma", [
        pytest.param(False, False, id="real"),
        pytest.param(True, False, id="complex-layers"),
        pytest.param(False, True, id="complex-target"),
        pytest.param(True, True, id="complex"),
    ])
    def test_kernel_embeds_any_complex_operand(self, complex_w, complex_sigma):
        # The kernel holds real arrays only: a complex operand on either
        # side makes the whole batch its embedding.
        w, sigma = _problem(FieldTag.REAL, 3, 2, seed=4)
        if complex_w:
            w = w + 0.5j * w[:, ::-1]
        if complex_sigma:
            sigma = sigma * np.exp(0.3j)
        kernel = _kernel(w, sigma, DynConfig(reg_a=1.0))
        embedded = complex_w or complex_sigma
        assert kernel.embedded == embedded and kernel.layers.dtype == np.float64
        assert kernel.layers.tobytes() == (_embed(w) if embedded else w).tobytes()
        assert kernel.sigma.tobytes() == (_embed(sigma) if embedded else sigma).tobytes()

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
    @pytest.mark.parametrize("integrator", ["gd", "flow_rk4"])
    def test_wrapper_steps_are_the_kernel_steps(self, integrator, field):
        # gd_step and flow_step_rk4 return the held kernel's step bit for
        # bit, in the stack's own field.
        cfg = DynConfig(reg_a=1.0, eta=0.05, step_h=0.05, integrator=integrator)
        w, sigma = _problem(field, 3, None, seed=6)
        step = gd_step if integrator == "gd" else flow_step_rk4
        got = step(LayerStack(w), TargetSpec(sigma), cfg).layers
        kernel = _kernel(w[None], sigma[None], cfg)
        kernel.advance(1)
        want = kernel.own_layers(0)
        assert got.dtype == w.dtype and got.tobytes() == want.tobytes()


    @pytest.mark.parametrize("batch", [1, 7])
    def test_reembed_matches_five_call_restore(self, batch):
        # The restore as first written: one block at a time through a
        # one-block buffer, in four copies and one negation.
        cfg = DynConfig()
        w, sigma = _problem(FieldTag.COMPLEX, 4, batch, seed=9)
        kernel = _kernel(w, sigma, cfg)
        x = kernel._x
        x[...] = np.random.default_rng(batch).standard_normal(x.shape)  # off the embedded form
        x[0, 0, 0, :3] = [-0.0, 5e-324, np.inf]
        h = x.shape[-1] // 2
        want = x.copy()
        block = np.empty(want.shape[:2] + (h, h))
        np.copyto(block, want[..., h:, :h])
        np.negative(block, out=block)
        np.copyto(want[..., :h, h:], block)
        np.copyto(block, want[..., :h, :h])
        np.copyto(want[..., h:, h:], block)
        dynamics._run(kernel._reembed())
        assert x.tobytes() == want.tobytes()
        assert np.array_equal(_embed(_unembed(kernel.layers)), kernel.layers)


class TestFrobenius:
    """``_frobenius`` is ``np.linalg.norm`` of each matrix, bit for bit."""

    @staticmethod
    def _stack(shape, field, rng):
        # Entries spread over 1e-8 .. 1e3 in magnitude, with random signs.
        def part():
            return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 3, shape)

        return part() + 1j * part() if field is FieldTag.COMPLEX else part()

    @pytest.mark.parametrize("shape", [(40, 5, 5), (12, 3, 5, 5)], ids=["K", "K-layers"])
    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
    def test_equals_linalg_norm(self, field, shape):
        x = self._stack(shape, field, np.random.default_rng(sum(shape)))
        got = _frobenius(x)
        assert got.shape == shape[:-2]
        for idx in np.ndindex(*shape[:-2]):
            assert got[idx] == np.linalg.norm(x[idx])

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
    def test_non_contiguous_slice(self, field):
        x = self._stack((20, 7, 7), field, np.random.default_rng(7))[::3, 1:6, 2:]
        assert not x.flags.c_contiguous
        got = _frobenius(x)
        assert [float(v) for v in got] == [float(np.linalg.norm(m)) for m in x]


class TestLRegOrder:
    """``l_reg`` sums the squared defect norms in layer order.

    numpy's ``add.reduce`` sums eight or more contiguous terms in unrolled
    pairs, which changes the last bits; at N = 10 there are nine terms.
    """

    def test_sum_is_left_to_right(self):
        cfg = DynConfig(reg_a=1.0)
        for seed in range(20):
            w, sigma = _problem(FieldTag.REAL, 10, 1, seed=seed)
            kernel = _kernel(w, sigma, cfg)
            kernel.advance(1)
            norms = [float(np.linalg.norm(delta[0])) for delta in kernel._deltas]
            sq = [n * n for n in norms]
            total = sq[0]
            for s in sq[1:]:
                total += s
            assert len(sq) == 9 and kernel.kept_l_reg(1)[0, 0] == 0.25 * cfg.reg_a * total


class TestDeferredNorms:
    """A block takes its rounds' ``l_ori`` after it, with the bits of a measure per round."""

    @pytest.mark.parametrize("rounds", [1, 24, 25])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("reg_a", [0.0, 1.0], ids=["plain", "regularized"])
    @pytest.mark.parametrize("field", FIELDS, ids=["real", "embedded"])
    @pytest.mark.parametrize("integrator", ["gd", "flow_rk4"])
    def test_advance_is_rounds_of_measure_and_step(self, integrator, field, reg_a, n, batch, rounds):
        # Two blocks on one kernel, each keeping every third round, against
        # a kernel stepped one round at a time; then each problem replayed
        # from the second block's start to a few of its steps, keeping only
        # that step.
        cfg = DynConfig(reg_a=reg_a, eta=0.05, step_h=0.05, integrator=integrator)
        w, sigma = _problem(field, n, batch, seed=n + batch)
        keep = list(range(0, rounds, 3))
        kernel = _kernel(w, sigma, cfg, block=lab.GUARD_EVERY, kept=len(keep))
        alone = _kernel(w, sigma, cfg)
        l_ori, layers, l_reg, own_l_reg = [], [], [], []
        for _ in range(2 * rounds):
            layers.append(alone.layers.copy())
            if reg_a:
                # The evaluation's own defects of this round's layers, which
                # the round remakes before it reads them.
                alone.measure()
                alone.descent()
                own_l_reg.append(self._l_reg(alone._deltas, reg_a, field is FieldTag.COMPLEX))
            l_ori.append(alone.advance(1)[0])
            l_reg.append(alone.kept_l_reg(1)[0])
        got = []
        for block in range(2):
            got.append(kernel.advance(rounds, keep))
            kept = [layers[block * rounds + r] for r in keep]
            assert kernel._kept.swapaxes(0, 2).tobytes() == np.stack(kept, axis=1).tobytes()
            assert kernel.kept_l_reg(len(keep)).tobytes() == np.stack([l_reg[block * rounds + r] for r in keep]).tobytes()
            if reg_a:
                want = np.array([own_l_reg[block * rounds + r] for r in keep])
                assert kernel.kept_l_reg(len(keep)).tobytes() == want.tobytes()
        assert all(h.shape == (rounds, batch) for h in got)
        assert np.concatenate(got).tobytes() == np.stack(l_ori).tobytes()
        assert kernel.layers.tobytes() == alone.layers.tobytes()
        for t in sorted({0, rounds // 2, rounds - 1}):
            for row in range(batch):
                replayed, history = kernel.replay(row, t)
                assert history.tobytes() == got[1][: t + 1, row : row + 1].tobytes()
                # The replayed kernel keeps round t alone.
                want = layers[rounds + t][row : row + 1][:, None]
                assert replayed._kept.swapaxes(0, 2).tobytes() == want.tobytes()

    @staticmethod
    def _l_reg(deltas, a, embedded):
        """``0.25 a sum_j ||Delta_j||^2`` of each problem, summed in layer order, from ``(N - 1, B, m, m)`` defects; halved on an embedding."""
        l_reg = []
        for row in range(deltas.shape[1]):
            norms = [float(np.linalg.norm(delta[row])) for delta in deltas]
            total = norms[0] * norms[0]
            for norm in norms[1:]:
                total += norm * norm
            l_reg.append(0.25 * a * total * 0.5 if embedded else 0.25 * a * total)
        return l_reg

    def test_a_block_longer_than_the_kernel_was_built_for_is_refused(self):
        w, sigma = _problem(FieldTag.REAL, 4, 2, seed=1)
        kernel = _kernel(w, sigma, DynConfig(), block=3)
        kernel.advance(3)
        with pytest.raises(ValueError, match="blocks of 3 rounds"):
            kernel.advance(4)


class TestSymmetries:
    """Symmetries of the dynamics that the kernel keeps bit for bit, over 300 steps of the run loop's kernel."""

    @staticmethod
    def _run(w, sigma, cfg):
        # As the run loop steps: in blocks from one guard step to the next.
        kernel = _kernel(w, sigma, cfg, block=lab.GUARD_EVERY)
        for _ in range(300 // lab.GUARD_EVERY):
            kernel.advance(lab.GUARD_EVERY)
        return np.stack([kernel.own_layers(row) for row in range(len(w))])

    @staticmethod
    def _problem(field, n, batch, seed):
        rng = make_rng(seed)
        w = np.stack([[0.6 * gaussian_matrix(3, field, rng) for _ in range(n)] for _ in range(batch)])
        return w, np.stack([gaussian_matrix(3, field, rng) for _ in range(batch)])

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("reg_a", [0.0, 1.0], ids=["plain", "regularized"])
    @pytest.mark.parametrize("integrator", ["gd", "flow_rk4"])
    def test_conjugate_problems_step_to_conjugates(self, integrator, reg_a, n, batch):
        cfg = DynConfig(reg_a=reg_a, eta=0.05, step_h=0.05, integrator=integrator)
        z, sigma = self._problem(FieldTag.COMPLEX, n, batch, seed=100 * n + batch)
        got = self._run(z, sigma, cfg)
        assert np.isfinite(got).all() and not np.array_equal(got, z)
        assert self._run(z.conj(), sigma.conj(), cfg).tobytes() == got.conj().tobytes()

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("reg_a", [0.0, 1.0], ids=["plain", "regularized"])
    @pytest.mark.parametrize("integrator", ["gd", "flow_rk4"])
    def test_a_real_problem_stepped_as_complex_stays_the_real_run(self, integrator, reg_a, n, batch):
        cfg = DynConfig(reg_a=reg_a, eta=0.05, step_h=0.05, integrator=integrator)
        w, sigma = self._problem(FieldTag.REAL, n, batch, seed=100 * n + batch)
        real = self._run(w, sigma, cfg)
        assert np.isfinite(real).all() and not np.array_equal(real, w)
        got = self._run(w.astype(complex), sigma.astype(complex), cfg)
        assert not got.imag.any()
        assert got.real.tobytes() == real.tobytes()


class TestInteriorGauge:
    """The dynamics are equivariant under the interior gauge ``W_{j+1} <- W_{j+1} Q_j``, ``W_j <- Q_j^H W_j``.

    A Haar ``Q_j`` at each of the N - 1 interfaces leaves the product and
    every defect's norm unchanged, so in exact arithmetic every step's
    ``l_ori`` too.  The kernel keeps it to rounding, which the dynamics
    amplify where a run leaves a plateau.  The fig-h1 family at N = 4, 3
    seeds of each variant, GD over 2,000 steps of the run loop's kernel.
    Its balanced start stays on the first plateau (``l_ori`` near 2.5),
    where each step agreed within 3.6e-16 relatively; from the preset's
    scale of random layers it reaches the 0.5 to 1 plateaus, through
    transitions, and agreed within 1.01e-12.
    """

    BOUNDS = {"balanced": 2e-15, "random": 1e-11}

    @staticmethod
    def _l_ori(w, sigma, cfg):
        kernel = _kernel(w, sigma, cfg, block=lab.GUARD_EVERY)
        return np.concatenate([kernel.advance(lab.GUARD_EVERY) for _ in range(2000 // lab.GUARD_EVERY)])

    @pytest.mark.parametrize("init", ["balanced", "random"])
    @pytest.mark.parametrize("reg_a", [0.0, 1.0], ids=["plain", "regularized"])
    @pytest.mark.parametrize("field", FIELDS, ids=["real", "complex"])
    def test_each_step_l_ori_is_the_untransformed_runs(self, field, reg_a, init):
        layers, gauged, targets = [], [], []
        variants = [c for c in lab.preset("fig-h1") if c.field is field]
        for cfg in variants:
            for seed in (2024, 2025, 2026):
                cfg = replace(cfg, seed=seed, init=replace(cfg.init, kind=init))
                target, stack, _ = lab.prepare_problem(cfg)
                w, rng = stack.layers, make_rng(seed)
                g = w.copy()
                for j in range(len(w) - 1):
                    q = haar_unitary(cfg.d, field, rng)
                    g[j + 1], g[j] = g[j + 1] @ q, adjoint(q) @ g[j]
                layers.append(w)
                gauged.append(g)
                targets.append(target.matrix)
        layers, gauged, targets = np.stack(layers), np.stack(gauged), np.stack(targets)
        assert (gauged != layers).any(axis=(-2, -1)).all()
        dyn = replace(variants[0].dyn, reg_a=reg_a)
        want, got = self._l_ori(layers, targets, dyn), self._l_ori(gauged, targets, dyn)
        assert (np.abs(got - want) / want).max() <= self.BOUNDS[init]


class TestTargetPermutation:
    """The dynamics are equivariant under a permutation ``P`` of the target's basis.

    ``Sigma <- P Sigma P^T``, ``W_N <- P W_N``, ``W_1 <- W_1 P^T`` maps the
    product to ``P W P^T`` and keeps the misfit's norm and every defect, so
    in exact arithmetic every step's ``l_ori`` too, and the permuted target
    is still reduced.  The fig-h2 family (fig-h1's identity target is
    unchanged by ``P``), 3 seeds of each variant, GD over 2,000 steps of the
    run loop's kernel.  Each step agreed within 6.1e-14 relatively from the
    balanced start and within 9.8e-13 from random layers.
    """

    BOUNDS = {"balanced": 5e-13, "random": 1e-11}
    PERMUTATION = (4, 2, 0, 3, 1)

    @pytest.mark.parametrize("init", ["balanced", "random"])
    @pytest.mark.parametrize("reg_a", [0.0, 1.0], ids=["plain", "regularized"])
    @pytest.mark.parametrize("field", FIELDS, ids=["real", "complex"])
    def test_each_step_l_ori_is_the_unpermuted_runs(self, field, reg_a, init):
        layers, permuted, targets, permuted_targets = [], [], [], []
        variants = [c for c in lab.preset("fig-h2") if c.field is field]
        p = np.eye(variants[0].d)[list(self.PERMUTATION)]
        for cfg in variants:
            for seed in (2024, 2025, 2026):
                cfg = replace(cfg, seed=seed, init=replace(cfg.init, kind=init))
                target, stack, _ = lab.prepare_problem(cfg)
                w = stack.layers
                moved = w.copy()
                moved[-1], moved[0] = p @ w[-1], w[0] @ p.T
                sigma = TargetSpec(p @ target.matrix @ p.T, reduced=True).matrix
                assert not np.array_equal(sigma, target.matrix)
                layers.append(w)
                permuted.append(moved)
                targets.append(target.matrix)
                permuted_targets.append(sigma)
        dyn = replace(variants[0].dyn, reg_a=reg_a)
        want = TestInteriorGauge._l_ori(np.stack(layers), np.stack(targets), dyn)
        got = TestInteriorGauge._l_ori(np.stack(permuted), np.stack(permuted_targets), dyn)
        assert (np.abs(got - want) / want).max() <= self.BOUNDS[init]


class TestStabilityBound:
    """GD can settle only where ``eta * lambda_max <= 2``; a minimum's ``lambda_max`` is at least ``N sigma_1^(2 - 2/N)``."""

    def test_balanced_minimum_sharpness(self):
        # Balanced layers diag(sigma^(1/N)) are a global minimum of a diagonal
        # target, where the bound is attained.  Power iteration on central
        # differences of the gradient gives the Hessian's top eigenvalue.
        n, eta, sigma = 4, 0.1, np.array([3.8, 1.0, 0.4])
        target, cfg = TargetSpec.diagonal(sigma), DynConfig(reg_a=0.0, eta=eta)
        layers = np.stack([np.diag(sigma ** (1 / n))] * n)
        v = make_rng(0).standard_normal(layers.shape)
        v /= np.linalg.norm(v)
        h = 1e-5
        for _ in range(60):
            plus = gradient(LayerStack(layers + h * v), target, cfg)
            hv = (plus - gradient(LayerStack(layers - h * v), target, cfg)) / (2 * h)
            lam = float(np.vdot(v, hv))
            v = hv / np.linalg.norm(hv)
        assert lam == pytest.approx(n * sigma[0] ** (2 - 2 / n), rel=1e-8)
        # Above the bound sigma_1 > (2 / (N eta))^(N / (2N - 2)), 2.92 here,
        # this minimum is linearly unstable under GD.
        assert sigma[0] > (2 / (n * eta)) ** (n / (2 * n - 2))
        assert eta * lam > 2


class TestPlateauCurvature:
    """At depth N >= 3 the exactly balanced det<0 plateau is a saddle of order N - 2.

    The Hessian's smallest eigenvalue there is ``-s_d sigma_min(W_j)^(N-2)``,
    with ``s_d`` the stuck target singular value, so its negative curvature
    vanishes as the stuck mode's layers shrink.
    """

    @staticmethod
    def _plateau(n_layers, epsilon, steps):
        """The fig-h1 real det<0 variant stepped ``steps`` GD steps: its last ``l_ori``, and its layers' Hessian eigenvalues and ``sigma_min``.

        The full Hessian of every coordinate, by central differences of the
        gradient.
        """
        (cfg,) = [c for c in lab.preset("fig-h1") if c.name == "fig-h1-real-detminus"]
        cfg = replace(cfg, n_layers=n_layers, init=replace(cfg.init, epsilon=epsilon))
        target, stack, det_w0 = lab.prepare_problem(cfg)
        assert det_w0 < 0
        kernel = _kernel(stack.layers[None], target.matrix[None], cfg.dyn, block=lab.GUARD_EVERY)
        for _ in range(steps // lab.GUARD_EVERY):
            history = kernel.advance(lab.GUARD_EVERY)
        layers, h = kernel.own_layers(0), 1e-5
        columns = []
        for k in range(layers.size):
            e = np.zeros(layers.size)
            e[k] = h
            e = e.reshape(layers.shape)
            plus = gradient(LayerStack(layers + e), target, cfg.dyn)
            columns.append(((plus - gradient(LayerStack(layers - e), target, cfg.dyn)) / (2 * h)).ravel())
        hessian = np.array(columns)
        lam = np.linalg.eigvalsh(0.5 * (hessian + hessian.T))
        sigma_min = np.array([np.linalg.svd(w, compute_uv=False)[-1] for w in layers])
        return history[-1, 0], lam, sigma_min

    def test_the_smallest_eigenvalue_at_depth_three_is_minus_the_stuck_singular_value(self):
        # The fig-h1 real det<0 variant (s_d = 1) at N = 3, with the
        # product's initial scale held at 0.05^4, after 5,000 GD steps, on
        # the l_ori = 0.5 plateau (within 5e-9).  Its 75 coordinates.
        # Measured: lambda_min = -1.70829e-3, and each layer's sigma_min
        # within 1.194e-3 of -lambda_min, relatively.
        l_ori, lam, sigma_min = self._plateau(3, 0.05 ** (4 / 3), 5000)
        assert l_ori == pytest.approx(0.5, abs=1e-7)
        assert 1e-3 < sigma_min.min() and sigma_min.max() < 3e-3
        assert lam[0] == pytest.approx(-sigma_min, rel=1.5e-3)

    def test_the_smallest_eigenvalue_at_depth_four_is_minus_the_stuck_singular_value_squared(self):
        # The same variant at N = 4 (epsilon = 0.05) after 20,000 GD steps,
        # on the plateau (within 3.9e-8).  Its 100 coordinates.  Measured:
        # lambda_min = -1.97017e-4, and each layer's sigma_min^2 (sigma_min
        # 0.014036) within 5.66e-5 of -lambda_min, relatively.
        l_ori, lam, sigma_min = self._plateau(4, 0.05, 20_000)
        assert l_ori == pytest.approx(0.5, abs=1e-7)
        assert 0.01 < sigma_min.min() and sigma_min.max() < 0.02
        assert lam[0] == pytest.approx(-sigma_min**2, rel=1e-4)


class TestKernelOwnership:
    """The kernel steps buffers it owns; nothing outside it sees them change."""

    @pytest.mark.parametrize("reg_a", [0.0, 1.0])
    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
    def test_wrappers_leave_their_inputs_alone(self, field, reg_a):
        rng = make_rng(7)
        stack = rand_stack(5, 4, field, rng)
        target = TargetSpec(np.diag(rng.uniform(0.2, 2.0, 5)).astype(stack.layers.dtype), reduced=True)
        layers, matrix = stack.layers.tobytes(), target.matrix.tobytes()
        for integrator in ("gd", "flow_rk4"):
            cfg = DynConfig(reg_a=reg_a, eta=0.05, step_h=0.05, integrator=integrator)
            for fn in (gd_step, flow_step_rk4, loss, gradient):
                out = fn(stack, target, cfg)
                assert stack.layers.tobytes() == layers and target.matrix.tobytes() == matrix
                if isinstance(out, LayerStack):
                    assert not np.shares_memory(out.layers, stack.layers)

    @pytest.mark.parametrize("integrator", ["gd", "flow_rk4"])
    @pytest.mark.parametrize("reg_a", [0.0, 1.0])
    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
    def test_results_outlive_later_calls(self, field, reg_a, integrator):
        cfg = DynConfig(reg_a=reg_a, eta=0.05, step_h=0.05, integrator=integrator)
        w, sigma = _problem(field, 4, None, seed=9)
        stack, target = LayerStack(w), TargetSpec(sigma)
        step = gd_step if integrator == "gd" else flow_step_rk4
        out = [step(stack, target, cfg).layers, gradient(stack, target, cfg)]
        kept = [x.tobytes() for x in out]
        later = step(LayerStack(out[0]), target, cfg)
        gradient(later, target, cfg)
        assert [x.tobytes() for x in out] == kept and not np.array_equal(later.layers, out[0])

    @pytest.mark.parametrize("reg_a", [0.0, 1.0])
    @pytest.mark.parametrize("form", ["real", "complex"])
    @pytest.mark.parametrize(
        "integrator, steps", [pytest.param("gd", 50, id="gd"), pytest.param("flow_rk4", 10, id="rk4")]
    )
    def test_a_step_allocates_no_layer(self, integrator, steps, form, reg_a):
        # The run loop's kernel at B = 16, a complex batch as its real
        # embedding.  The run loop's stepping (blocks of rounds that keep
        # their first and last, whose l_ori history is compared with eps once)
        # writes into the kernel's buffers only, but for the history, so the
        # traced peak grows by less than one layer of the batch.
        cfg = DynConfig(reg_a=reg_a, eta=0.01, step_h=0.01, integrator=integrator)
        w, sigma = _problem(FieldTag.REAL if form == "real" else FieldTag.COMPLEX, 4, 16, seed=12)
        kernel = _kernel(w, sigma, cfg, block=5, kept=2)
        kernel.advance(5, [0, 4]) < 1e-8
        layer_bytes = kernel.layers[:, 0].nbytes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(steps // 5):
                kernel.advance(5, [0, 4]) < 1e-8
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < layer_bytes
        assert np.all(np.isfinite(kernel.layers))


class TestOwnField:
    """Everything the kernel hands out but ``layers`` is in the problems' own field."""

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_own_layers_are_copies_no_step_writes(self, n, field):
        cfg = DynConfig(reg_a=1.0, eta=0.05)
        w, sigma = _problem(field, n, 3, seed=n)
        kernel = _kernel(w, sigma, cfg)
        kernel.advance(1)
        kept = []
        for row in range(3):
            held = kernel.layers[row]
            want = _unembed(held) if field is FieldTag.COMPLEX else held
            out = np.empty_like(w[row])
            assert kernel.own_layers(row, out=out) is out
            for got in (kernel.own_layers(row), out):
                assert got.dtype == w.dtype and got.shape == (n, 5, 5)
                assert got.tobytes() == want.tobytes() and not np.shares_memory(got, kernel.layers)
                kept.append((got, got.copy()))
        kernel.advance(1)
        assert all(np.array_equal(got, copy) for got, copy in kept)
        assert not np.array_equal(kernel.own_layers(0), kept[0][1])

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_layer_norms_are_the_own_layers_norms(self, n, field):
        # A real layer's norm is np.linalg.norm's bit for bit.  An embedded
        # layer's is that of its top rows [A, -B], which hold the complex
        # norm's terms: summed in their order, not real part then imaginary.
        # np.linalg.norm sums a view in memory order, and the plain kernel
        # stores its layers transposed, so it is given the rows in row order.
        w, sigma = _problem(field, n, 3, seed=n)
        kernel = _kernel(w, sigma, DynConfig())
        kernel.measure()
        got = kernel.kept_norms(1)[0]
        assert got.shape == (3, n)
        for row in range(3):
            own = kernel.own_layers(row)
            for j in range(n):
                if field is FieldTag.COMPLEX:
                    assert got[row, j] == np.linalg.norm(kernel.layers[row, j, :5].copy())
                    assert got[row, j] == pytest.approx(np.linalg.norm(own[j]), rel=1e-15, abs=0)
                else:
                    assert got[row, j] == np.linalg.norm(own[j])

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
    def test_a_nan_or_inf_layer_fails_the_guard(self, field):
        w, sigma = _problem(field, 4, 4, seed=3)
        unit = 1j if field is FieldTag.COMPLEX else 1.0
        w[1, 2, 3, 4] = np.nan * unit  # the imaginary part of a complex entry
        w[2, 0, 0, 1] = np.inf
        w[3, 3] *= 1e13
        kernel = _kernel(w, sigma, DynConfig())
        with np.errstate(over="ignore", invalid="ignore"):  # as the run loop evaluates
            kernel.measure()
        ok = (kernel.kept_norms(1)[0] <= lab.DIVERGENCE_GUARD).all(-1)
        assert ok.tolist() == [True, False, False, False]


class _Calls:
    """numpy as the kernel sees it, noting the name of every function called through it."""

    def __init__(self):
        self.names = []

    def __getattr__(self, name):
        fn = getattr(np, name)
        if not callable(fn):
            return fn

        def call(*args, **kwargs):
            self.names.append(name)
            return fn(*args, **kwargs)

        return call


class TestQuietStepCalls:
    """The numpy calls of one step at B = 2, counted on the presets' problems.

    Each numpy call costs about a microsecond of dispatch at these sizes,
    most of a step, so a change to a count is a change to the step's cost.
    Every step of a run is one round of :meth:`_Kernel.advance`, whose
    calls are the entries of that round's plan: ``calls`` numpy functions
    and, under ``omit_l_ori``, ``fills`` of the direction by its own
    ``fill`` method.  What ``advance`` calls besides, one copy per kept
    round and the history's norm call and three elementwise calls, is
    counted apart.
    """

    @pytest.mark.parametrize(
        "name, integrator, field, calls, fills, reg_a",
        [
            pytest.param("fig-h1", "gd", FieldTag.REAL, 8, 0, None, id="real-gd"),
            pytest.param("fig-h1", "gd", FieldTag.COMPLEX, 11, 0, None, id="embedded-gd"),
            pytest.param("fig-h1", "flow_rk4", FieldTag.REAL, 39, 0, None, id="real-rk4"),
            pytest.param("sweep", "gd", FieldTag.REAL, 14, 0, None, id="regularized-gd"),
            # A weight other than 1 adds the one scaling of the regularizer products.
            pytest.param("sweep", "gd", FieldTag.REAL, 15, 0, 0.7, id="weighted-gd"),
            pytest.param("fig-h3", "flow_rk4", FieldTag.REAL, 43, 4, None, id="regularized-rk4-omit-l-ori"),
        ],
    )
    def test_counts(self, monkeypatch, name, integrator, field, calls, fills, reg_a):
        base = lab.preset(name)[0]
        dyn = replace(base.dyn, integrator=integrator)
        if reg_a is not None:
            dyn = replace(dyn, reg_a=reg_a)
        cfgs = [replace(base, field=field, det_sign=None, seed=seed, dyn=dyn) for seed in (1, 2)]
        problems = [lab.prepare_problem(c) for c in cfgs]
        w = np.stack([stack.layers for _, stack, _ in problems])
        sigma = np.stack([target.matrix for target, _, _ in problems])
        block = lab.GUARD_EVERY
        kernel = _kernel(w, sigma, cfgs[0].dyn, block=block, kept=block)
        assert kernel.embedded == (field is FieldTag.COMPLEX)
        names = [[fn.__name__ for fn, _ in plan] for plan in kernel._rounds]
        assert len(names) == block and len(names[0]) == calls + fills
        assert names[0].count("fill") == fills
        assert all(round_names == names[0] for round_names in names)
        # The plans' functions are bound when the kernel is built, so the
        # spy sees only what advance itself calls: a copy per kept round, and
        # per block one norm call and the three that make l_ori of it.
        spy = _Calls()
        monkeypatch.setattr(dynamics, "np", spy)
        for rounds, keep in ((1, [0]), (block, [0]), (block, [0, 7, 14, 21, 24]), (block, range(block))):
            spy.names.clear()
            kernel.advance(rounds, keep)
            assert spy.names == ["copyto"] * len(keep) + ["matmul", "sqrt", "multiply", "multiply"]


def _entries(plan):
    """``(name, output, inputs)`` of each call of a kernel plan."""
    entries = []
    for fn, args in plan:
        if isinstance(fn, np.ufunc):  # matmul among them; the output follows the inputs
            entries.append((fn.__name__, args[fn.nin], args[: fn.nin]))
        elif fn is np.copyto:
            entries.append(("copyto", args[0], args[1:]))
        else:  # a buffer's own fill method
            entries.append((fn.__name__, fn.__self__, ()))
    return entries


def _same_view(a, b):
    return (a.__array_interface__["data"][0], a.shape, a.strides) == (
        b.__array_interface__["data"][0], b.shape, b.strides
    )


def _plans(kernel):
    """Every plan of a kernel: measure, descent and each round of advance."""
    return [kernel._measure(kernel._windows[0]), kernel._descend(kernel._windows[0]), *kernel._rounds]


class TestChainLayout:
    """No kernel call writes an output whose memory span encloses a view it reads.

    numpy cannot cheaply prove such an output apart from the input, so it
    copies the input first.  An input that is the output itself (the same
    data, shape and strides) is an in-place update.  Every call the kernel
    makes per step is an entry of one of its plans, so the plans are read.
    """

    @pytest.mark.parametrize("reg_a", [0.0, 1.0], ids=["plain", "regularized"])
    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("integrator", ["gd", "flow_rk4"])
    @pytest.mark.parametrize("field", FIELDS, ids=["real", "embedded"])
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_no_output_overlaps_another_input(self, n, field, integrator, batch, reg_a):
        # Each layout: with the regularizer on, the defect and regularizer
        # calls are planned too; several rounds, so several windows.
        cfg = DynConfig(reg_a=reg_a, eta=0.05, step_h=0.05, integrator=integrator)
        w, sigma = _problem(field, n, batch, seed=n)
        kernel = _kernel(w, sigma, cfg, block=3)
        entries = [e for plan in _plans(kernel) for e in _entries(plan)]
        overlaps = [
            (name, a.shape, out.shape)
            for name, out, inputs in entries
            for a in inputs
            if isinstance(a, np.ndarray) and not _same_view(a, out) and np.may_share_memory(a, out)
        ]
        assert overlaps == []
        # Every chain matmul is planned in each evaluation of a step, and both RK4 stages' updates.
        names = [name for name, _, _ in _entries(kernel._rounds[0])]
        want = len(kernel._chain) * (4 if integrator == "flow_rk4" else 1)
        assert names.count("matmul") >= want + 2 and "add" in names

    @pytest.mark.parametrize("reg_a", [0.0, 1.0], ids=["plain", "regularized"])
    @pytest.mark.parametrize("integrator", ["gd", "flow_rk4"])
    @pytest.mark.parametrize("field", FIELDS, ids=["real", "embedded"])
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_no_product_reads_a_transposed_right_operand_beside_a_stored_left_one(self, n, field, integrator, reg_a):
        # numpy's small batched gemm costs 2-3x as much with a transposed
        # right operand beside a stored left one (NT) as with both stored,
        # and the kernel makes no such product.  The products that read a
        # transposed right operand read both operands transposed (TT): the
        # chain's last product W = (W_N^T)^T (suffix[n-2]^T)^T and the
        # transposed direction, in the window of the evaluation (RK4's
        # later stages evaluate in the next window).
        cfg = DynConfig(reg_a=reg_a, eta=0.05, step_h=0.05, integrator=integrator)
        w, sigma = _problem(field, n, 2, seed=n)
        kernel = _kernel(w, sigma, cfg, block=3)
        stages = 4 if integrator == "flow_rk4" else 1

        def transposed(x):
            return x.shape[-1] > 1 and x.strides[-1] != x.itemsize

        for r, plan in enumerate(kernel._rounds):
            matmuls = [(out, *inputs) for name, out, inputs in _entries(plan) if name == "matmul"]
            nt = [out for out, left, right in matmuls if transposed(right) and not transposed(left)]
            tt = [out for out, left, right in matmuls if transposed(right) and transposed(left)]
            windows = [kernel._windows[r]] + [kernel._windows[r + 1]] * (stages - 1)
            want = [view for win in windows for view in (kernel._product, win.direction)]
            assert nt == [] and len(tt) == len(want)
            assert all(_same_view(out, view) for out, view in zip(tt, want))

    @pytest.mark.parametrize("field", FIELDS, ids=["real", "embedded"])
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_the_regularizer_plans_on_the_plain_layout(self, n, field):
        # One chain layout: with the regularizer on or off, an evaluation's
        # chain, misfit, left-factor and direction calls read and write
        # views at the same offsets and strides of the kernel's buffers.
        # The regularizer only adds calls of its own, each of which reads
        # or writes its products buffer, or copies the layers.
        w, sigma = _problem(field, n, 2, seed=n)

        def shared(kernel):
            bases = {"chain": kernel._product.base, "lefts": kernel._lefts, "sigma": kernel.sigma}

            def where(a):
                for name, base in bases.items():
                    start = a.__array_interface__["data"][0] - base.__array_interface__["data"][0]
                    if 0 <= start < base.nbytes:
                        return name, start, a.shape, a.strides
                return None

            win = kernel._windows[0]
            views = [
                (name, [where(a) for a in (out, *inputs) if isinstance(a, np.ndarray)])
                for name, out, inputs in _entries(kernel._measure(win) + kernel._descend(win))
                if name != "copyto"
            ]
            return [(name, args) for name, args in views if None not in args]

        plain, regularized = (_kernel(w, sigma, DynConfig(reg_a=reg_a)) for reg_a in (0.0, 1.0))
        assert plain._product.base.shape == regularized._product.base.shape
        want = shared(plain)
        assert [name for name, _ in want] == ["matmul"] * (n - 1) + ["subtract", "matmul", "matmul"]
        assert shared(regularized) == want


class TestTransposedProduct:
    """Each product the kernel reads in another orientation gives the bits of its untransposed form.

    The kernel stores the layers, the suffix and the prefix products
    transposed, and each of its products, the regularizer's included, is the
    transpose, or a transposed read, of a product on untransposed operands.
    Each pair gives the same bits on this BLAS; where one does not, this
    fails rather than the trajectories moving in the last bits.
    """

    @staticmethod
    def _layers(form, batch):
        rng = make_rng(batch)
        field = FieldTag.REAL if form == "real" else FieldTag.COMPLEX
        w = np.stack([rand_stack(5, 4, field, rng).layers for _ in range(batch)])
        return _embed(w) if form == "embedded" else w

    @staticmethod
    def _t(x):
        """The stored transpose of ``x``."""
        return np.ascontiguousarray(x.swapaxes(-1, -2))

    @pytest.mark.parametrize("batch", [1, 60, 256])
    @pytest.mark.parametrize("form", ["real", "embedded"])
    def test_tt_product_matches_the_nt_form(self, form, batch):
        w = self._layers(form, batch)
        top = np.ascontiguousarray(w[:, -1])
        suffix_t = self._t(w[:, 2] @ (w[:, 1] @ w[:, 0]))
        nt = top @ suffix_t.swapaxes(-1, -2)
        tt = self._t(top).swapaxes(-1, -2) @ suffix_t.swapaxes(-1, -2)
        assert tt.tobytes() == nt.tobytes()
        kernel = _Kernel(w, np.zeros((batch,) + w.shape[-2:]), DynConfig(reg_a=1.0))
        kernel.measure()
        assert kernel._product.tobytes() == (np.ascontiguousarray(kernel._x[-1]) @ kernel._suffix[-1]).tobytes()

    @pytest.mark.parametrize("batch", [1, 60, 256])
    @pytest.mark.parametrize("form", ["real", "embedded"])
    def test_plain_layout_products_match_the_untransposed_forms(self, form, batch):
        t = self._t
        w = self._layers(form, batch)
        layer, below = np.ascontiguousarray(w[:, 2]), w[:, 1] @ w[:, 0]
        # Chain: suffix[t]^T = suffix[t-1]^T x[t]^T, both stored, is the
        # transpose of x[t] suffix[t-1].
        assert (t(below) @ t(layer)).tobytes() == t(layer @ below).tobytes()
        # The last product reads both stored transposes transposed (TT).
        product = layer @ below
        assert (t(layer).swapaxes(-1, -2) @ t(below).swapaxes(-1, -2)).tobytes() == product.tobytes()
        # Left factors: the stored prefix^T times the misfit (NN) is the
        # prefix read transposed times it (TN).
        prefix, misfit = w[:, 3] @ w[:, 2], np.eye(w.shape[-1]) - product
        factor = t(prefix) @ misfit
        assert factor.tobytes() == (prefix.swapaxes(-1, -2) @ misfit).tobytes()
        # Direction: suffix[j-1] factors[j]^T, read from the stored suffix^T
        # (TT), is the transpose of factors[j] suffix[j-1]^T (NT).
        assert (t(below).swapaxes(-1, -2) @ factor.swapaxes(-1, -2)).tobytes() == t(factor @ below.swapaxes(-1, -2)).tobytes()
        # The bottom layer's direction: the identity slot times factors[0]^T
        # is factors[0]^T, on finite operands with no zero entry.
        eye = np.ascontiguousarray(np.broadcast_to(np.eye(w.shape[-1]), factor.shape))
        assert (eye.swapaxes(-1, -2) @ factor.swapaxes(-1, -2)).tobytes() == t(factor).tobytes()
        # The plain kernel's product is the untransposed chain's.
        kernel = _Kernel(w, np.zeros((batch,) + w.shape[-2:]), DynConfig())
        kernel.measure()
        x = np.ascontiguousarray(kernel._x)
        assert kernel._product.tobytes() == (x[3] @ (x[2] @ (x[1] @ x[0]))).tobytes()

    @pytest.mark.parametrize("batch", [1, 60, 256])
    @pytest.mark.parametrize("form", ["real", "embedded"])
    def test_regularizer_products_match_the_untransposed_forms(self, form, batch):
        t = self._t
        w = self._layers(form, batch)
        kernel = _Kernel(w, np.zeros((batch,) + w.shape[-2:]), DynConfig(reg_a=1.0))
        kernel.measure()
        kernel.descent()
        x, deltas = np.ascontiguousarray(kernel._x), kernel._deltas
        # The defects, made from the stored layers and their stored
        # transposes, are symmetric bit for bit.
        assert deltas.tobytes() == t(deltas).tobytes()
        # Delta_j x[j+1]^T and x[j]^T Delta_j, on stored operands, are the
        # transposes of x[j+1] Delta_j and Delta_j x[j].
        assert (deltas @ t(x[1:])).tobytes() == t(x[1:] @ deltas).tobytes()
        assert (t(x[:-1]) @ deltas).tobytes() == t(deltas @ x[:-1]).tobytes()
        # The kernel's pairing makes both, at a = 1 unscaled.
        products = kernel._products
        assert products[0].tobytes() == t(x[1:] @ deltas).tobytes()
        assert products[1].tobytes() == t(deltas @ x[:-1]).tobytes()
        # The regularized kernel's product is the untransposed chain's.
        assert kernel._product.tobytes() == (x[3] @ (x[2] @ (x[1] @ x[0]))).tobytes()


class TestGramPath:
    """The defects' Gram products ``X X^H`` read two buffers, so numpy runs them as gemm.

    Over one buffer read through a transposed view numpy takes its ``syrk``
    path instead.  The two give the same bits on this BLAS; where they do
    not, this fails rather than the trajectories moving in the last bits.
    The monitors' ``_defects`` and the kernel's own agree bit for bit.
    """

    @pytest.mark.parametrize("batch", [1, 60, 256])
    @pytest.mark.parametrize("form", ["real", "embedded", "complex"])
    def test_defects_match_the_kernel_and_the_one_buffer_form(self, form, batch):
        rng = make_rng(batch)
        field = FieldTag.REAL if form == "real" else FieldTag.COMPLEX
        w = np.stack([rand_stack(5, 4, field, rng).layers for _ in range(batch)])
        if form == "embedded":
            w = _embed(w)
        upper, lower = w[:, :-1], w[:, 1:]
        # adjoint() of a real array is a transposed view of that same array.
        one_buffer = upper @ adjoint(upper) - adjoint(lower) @ lower
        got = _defects(w)
        assert got.tobytes() == one_buffer.tobytes()
        if form != "complex":
            kernel = _Kernel(w, np.zeros((batch,) + w.shape[-2:]), DynConfig(reg_a=1.0))
            kernel.advance(1)
            assert got.tobytes() == kernel._deltas.swapaxes(0, 1).tobytes()


class TestAlignedModes:
    """On diagonal layers and a diagonal target every mode evolves alone.

    Mode ``k``'s layer entries ``u_j`` follow ``u_j <- u_j + eta (s - p)
    prod_{i != j} u_i`` with ``p = prod_i u_i`` (Saxe et al. 2014), and a
    gemm of diagonal matrices adds only exact zeros to one rounded product,
    so the kernel's GD and RK4 steps are this scalar recursion bit for bit
    when the recursion multiplies in the kernel's association.  Stacks with
    non-real phases are not pinned here.
    """

    @staticmethod
    def _ref_dir(u, s):
        """The descent direction at the ``(N, ...)`` diagonal entries ``u`` toward ``s``, associated as the kernel does."""
        n = len(u)
        suf = [u[0]]
        for t in range(1, n - 1):
            suf.append(suf[t - 1] * u[t])
        pre = [None] * (n - 2) + [u[n - 1]]
        for j in range(n - 3, -1, -1):
            pre[j] = u[j + 1] * pre[j + 1]
        m = s - u[n - 1] * suf[n - 2]
        f = [pre[j] * m for j in range(n - 1)] + [m]
        return np.stack([f[0]] + [suf[j - 1] * f[j] for j in range(1, n)])

    @classmethod
    def _ref_gd(cls, u, s, eta):
        """One GD step of the diagonal entries ``u``."""
        return u + cls._ref_dir(u, s) * eta

    @classmethod
    def _ref_rk4(cls, u, s, h):
        """One RK4 step of the diagonal entries ``u``, its stages summed as the kernel sums them."""
        k1 = cls._ref_dir(u, s)
        k2 = cls._ref_dir(u + k1 * (0.5 * h), s)
        k3 = cls._ref_dir(u + k2 * (0.5 * h), s)
        k4 = cls._ref_dir(u + k3 * h, s)
        return u + (((k1 + k2 * 2.0) + k3 * 2.0) + k4) * (h / 6.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
    def test_gd_is_the_scalar_recursion(self, field, n):
        self._check_recursion(field, n, DynConfig(reg_a=0.0, eta=0.01, integrator="gd"), self._ref_gd, 0.01)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
    def test_rk4_is_the_scalar_recursion(self, field, n):
        cfg = DynConfig(reg_a=0.0, step_h=0.01, integrator="flow_rk4")
        self._check_recursion(field, n, cfg, self._ref_rk4, 0.01)

    def test_n2_crossing_step(self):
        # A det<0 mode of N = 2: W_1's entry a, W_2's -(a + delta).  While
        # p = u_1 u_2 is negligible against s, GD multiplies u_1 + u_2 by
        # 1 + eta s and u_1 - u_2 by 1 - eta s each step, so u_1, the
        # smaller, crosses 0 at ln(2a / delta) / ln((1 + eta s) / (1 - eta s))
        # steps, at eta s = 0.1 (175.6, 141.1, 106.7, 72.3, 37.9 steps).
        a, s, eta = 2.0**-10, 1.0, 0.1
        ratios = np.array([1e-15, 1e-12, 1e-9, 1e-6, 1e-3])
        closed = np.log(2 / ratios) / np.log((1 + eta * s) / (1 - eta * s))
        np.testing.assert_allclose(closed, [175.6, 141.1, 106.7, 72.3, 37.9], atol=0.05)
        w = np.zeros((len(ratios), 2, 1, 1))
        w[:, 0], w[:, 1, 0, 0] = a, -(a + ratios * a)
        sigma = np.full((len(ratios), 1, 1), s)
        kernel = _kernel(w, sigma, DynConfig(reg_a=0.0, eta=eta, integrator="gd"))
        crossed = np.zeros(len(ratios), int)
        for step in range(1, 200):
            kernel.advance(1)
            u_1 = np.array([kernel.own_layers(b)[0, 0, 0] for b in range(len(ratios))])
            crossed[(crossed == 0) & (u_1 < 0)] = step
        assert (crossed > 0).all()
        assert (np.abs(crossed - closed) <= 1).all(), crossed

    @staticmethod
    def _check_recursion(field, n, cfg, ref_step, dt):
        """Twelve blocks of 25 kernel steps under ``cfg`` against ``ref_step(u, s, dt)`` on random diagonal stacks of ``n`` layers."""
        # A complex stack with zero imaginary parts runs embedded, and its
        # imaginary parts stay exactly 0.
        rng = make_rng(n)
        batch, d = 8, 5
        s = np.array([2.0, 1.55, 1.1, 0.65, 0.2])
        u = rng.uniform(0.05, 0.4, (n, batch, d)) * rng.choice([-1.0, 1.0], (n, batch, d))
        eye = np.eye(d)
        w = (u[..., None] * eye).swapaxes(0, 1).astype(field.dtype)
        sigma = np.broadcast_to(np.diag(s), (batch, d, d)).astype(field.dtype)
        kernel = _kernel(w, sigma, cfg, block=25)
        assert kernel.embedded == (field is FieldTag.COMPLEX)
        off_diagonal = ~np.eye(d, dtype=bool)
        for _ in range(12):
            kernel.advance(25)
            for _ in range(25):
                u = ref_step(u, s, dt)
            layers = np.stack([kernel.own_layers(b) for b in range(batch)])
            assert np.array_equal(np.diagonal(layers, axis1=-2, axis2=-1).real, u.swapaxes(0, 1))
            assert not layers[..., off_diagonal].any()
            assert not layers.imag.any()
