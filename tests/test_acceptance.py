"""Acceptance suite: every gate criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion clause.  Budgets are wall-clock seconds on a desk machine.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from factorlab.dynamics import (
    DynConfig,
    LayerStack,
    TargetSpec,
    _kernel,
    gd_step,
    loss,
    product,
    reduce_target,
)
from factorlab.ensembles import (
    InitScheme,
    balanced_init,
    gaussian_matrix,
    haar_unitary,
    make_rng,
)
from factorlab.lab import (
    RunConfig,
    _sweep_seeds,
    gradcheck,
    prepare_problem,
    preset,
    rmt_validate,
    run_scenario,
    sweep_convergence,
)
from factorlab.linalg import (
    FieldTag,
    adjoint,
    det_sign_or_phase,
    inverse_perturbation_residual,
    norms,
    sqrt_perturbation_bound,
    svd,
)
from factorlab.monitors import balance_errors, eig_sandwich_check

FIELDS = (FieldTag.REAL, FieldTag.COMPLEX)


def _verdict(ok: bool, label: str, detail: str = "") -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}" + (f": {detail}" if detail else ""))
    return ok


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for field in FIELDS:
        for a in (0.0, 1.0, 10.0):
            rep = gradcheck(4, 4, field, a, seed=3)
            worst = max(worst, rep.max_rel_err)
            ok &= rep.passed
    wall = time.perf_counter() - t0
    ok &= wall < 5.0
    assert _verdict(
        ok,
        "criterion 1 (gradient correctness)",
        f"max relative error {worst:.2e} over both fields, a in {{0,1,10}}; wall {wall:.1f}s",
    )


def _flow_suite(field: FieldTag) -> tuple[bool, str]:
    cfg = RunConfig(
        name=f"flow-{field.value}",
        field=field,
        d=5,
        n_layers=4,
        target_kind="identity",
        sigma1=1.0,
        init=InitScheme(kind="balanced", epsilon=0.05),
        dyn=DynConfig(reg_a=0.0, integrator="flow_rk4", step_h=1e-3),
        steps=20_000,
        record_stride=1,
        seed=3,
        eps_conv=1e-300,
    )
    state = {"e_max": 0.0, "l_prev": None, "s_prev": None, "l_viol": 0, "s_viol": 0}

    def cb(rec, tr):
        state["e_max"] = max(state["e_max"], rec.e_delta)
        if state["l_prev"] is not None and rec.l_ori > state["l_prev"] + 1e-10 * (1 + state["l_prev"]):
            state["l_viol"] += 1
        if state["s_prev"] is not None and rec.skew_uv > state["s_prev"] + 1e-8 * (1 + state["s_prev"]):
            state["s_viol"] += 1
        state["l_prev"] = rec.l_ori
        state["s_prev"] = rec.skew_uv

    t0 = time.perf_counter()
    run_scenario(cfg, on_record=cb)
    wall = time.perf_counter() - t0
    ok = state["e_max"] < 1e-8 and state["l_viol"] == 0 and state["s_viol"] == 0 and wall < 30.0
    detail = (
        f"{field.value}: max e_delta {state['e_max']:.1e}, "
        f"{state['l_viol']} l_ori increases, {state['s_viol']} skew increases, wall {wall:.0f}s"
    )
    return ok, detail


def test_criterion_2_flow_conservation():
    ok = True
    for field in FIELDS:
        good, detail = _flow_suite(field)
        ok &= _verdict(good, "criterion 2 (flow conservation suite)", detail)
    assert ok


def test_criterion_3_saddle_dichotomy():
    t0 = time.perf_counter()
    cfgs = {c.name: c for c in preset("fig-h1", seed=11)}

    minus = replace(cfgs["fig-h1-real-detminus"], record_stride=10)
    worst_mode = [0.0]

    def cb(rec, tr):
        worst_mode[0] = max(worst_mode[0], rec.half_sum_sv[-1])

    s_minus = run_scenario(minus, on_record=cb)
    ok_minus = s_minus.final_l_ori >= 0.5 - 1e-6 and worst_mode[0] < 1e-8
    _verdict(
        ok_minus,
        "criterion 3 (det=-1 plateau)",
        f"final l_ori {s_minus.final_l_ori:.6f} >= 0.5-1e-6, "
        f"max half_sum_sv[min] {worst_mode[0]:.1e} < 1e-8",
    )

    s_plus = run_scenario(cfgs["fig-h1-real-detplus"])
    ok_plus = s_plus.status == "converged" and s_plus.converged_step <= 200_000
    _verdict(
        ok_plus,
        "criterion 3 (det=+1 convergence)",
        f"l_ori {s_plus.final_l_ori:.1e} at step {s_plus.converged_step}",
    )

    s_cplx = run_scenario(cfgs["fig-h1-complex"])
    ok_cplx = s_cplx.status == "converged" and s_cplx.converged_step <= 200_000
    _verdict(
        ok_cplx,
        "criterion 3 (complex convergence)",
        f"l_ori {s_cplx.final_l_ori:.1e} at step {s_cplx.converged_step}",
    )

    wall = time.perf_counter() - t0
    ok_wall = _verdict(wall < 60.0, "criterion 3 (runtime)", f"{wall:.0f}s < 60s")
    assert ok_minus and ok_plus and ok_cplx and ok_wall


def test_criterion_4_convergence_probability():
    # The dichotomy is a statement about the exactly balanced initialization,
    # so the sweep runs the fig-h1 family with the det sign left to the seed.
    # (Independent Gaussian layers, the `sweep` preset, cross det(W) = 0
    # during the dynamics; see the README and the crossing test below.)
    # Under balanced fig-h1 dynamics a det<0 run cannot converge (criterion
    # 3), so the band measures the Haar det-sign split of the initial
    # product under balanced dynamics, not a claim about random-init runs.
    t0 = time.perf_counter()
    base = replace(preset("fig-h1", seed=2024)[0], det_sign=None)

    real = sweep_convergence(base, 400)
    (converged, seeds), plus, minus = real.tally(), real.tally(+1), real.tally(-1)
    ok_band = 0.42 <= converged / seeds <= 0.58
    _verdict(
        ok_band,
        "criterion 4 (real fraction in [0.42, 0.58])",
        f"fraction {converged / seeds:.3f} over 400 seeds "
        f"(det>0: {plus[1]}, det<0: {minus[1]}, "
        f"det<0 converged: {minus[0]})",
    )
    fraction_plus = plus[0] / plus[1] if plus[1] else float("nan")
    ok_cond = fraction_plus >= 0.9
    _verdict(
        ok_cond,
        "criterion 4 (real det>0 conditional >= 0.9)",
        f"conditional fraction {fraction_plus:.3f} ({plus[0]}/{plus[1]})",
    )

    converged, seeds = sweep_convergence(replace(base, field=FieldTag.COMPLEX), 200).tally()
    ok_cplx = converged / seeds >= 0.95
    _verdict(
        ok_cplx,
        "criterion 4 (complex fraction >= 0.95)",
        f"fraction {converged / seeds:.3f} over 200 seeds",
    )

    wall = time.perf_counter() - t0
    ok_wall = _verdict(wall < 900.0, "criterion 4 (runtime)", f"{wall:.0f}s < 900s")
    assert ok_band and ok_cond and ok_cplx and ok_wall


def test_random_init_crosses_singular_set_independent_of_step():
    # Why criterion 4 does not sweep independent Gaussian layers: a det<0
    # seed of the `sweep` preset crosses det(W) = 0 along the dynamics
    # themselves, at the same time for eta and eta/10, while l_ori is still
    # far above the sigma_1^2 / 2 barrier the balanced det<0 runs stall at.
    base = preset("sweep", seed=2024)[0]
    cfg = replace(base, seed=_sweep_seeds(base.seed, 8)[7])  # crosses near t = 4.9

    def crossing(eta: float, t_max: float) -> tuple[float, float]:
        dyn = replace(cfg.dyn, eta=eta)
        target, stack, det_w0 = prepare_problem(replace(cfg, dyn=dyn))
        assert det_w0 < 0
        for k in range(1, int(round(t_max / eta)) + 1):
            stack = gd_step(stack, target, dyn)
            if det_sign_or_phase(product(stack)) > 0:
                return k * eta, loss(stack, target, dyn)[0]
        raise AssertionError(f"no det(W) sign change by t = {t_max} at eta = {eta}")

    t_eta, l_eta = crossing(cfg.dyn.eta, 6.0)
    t_fine, l_fine = crossing(cfg.dyn.eta / 10, 6.0)
    assert t_eta <= 5.0
    assert abs(t_eta - t_fine) <= 0.05 * t_fine
    barrier = 0.5 * cfg.sigma1**2
    assert min(l_eta, l_fine) > 2 * barrier


def test_criterion_5_rmt_suite():
    t0 = time.perf_counter()
    results = rmt_validate(seed=4)
    ok = True
    for r in results:
        ok &= _verdict(r.passed, f"criterion 5 ({r.name})", f"stat {r.statistic:.4g}, {r.detail}")
    wall = time.perf_counter() - t0
    ok &= _verdict(wall < 120.0, "criterion 5 (runtime)", f"{wall:.0f}s < 120s")
    assert ok


def test_criterion_6_lemma_property_suites():
    t0 = time.perf_counter()
    rng = make_rng(6)

    sandwich_fail = 0
    for k in range(1000):
        field = FIELDS[k % 2]
        u = haar_unitary(5, field, rng)
        v = haar_unitary(5, field, rng)
        s = np.abs(rng.standard_normal(5))
        if not eig_sandwich_check(u, v, s):
            sandwich_fail += 1
    ok = _verdict(sandwich_fail == 0, "criterion 6 (eigenvalue sandwich, 1000 instances)",
                  f"{sandwich_fail} failures")

    sqrt_fail = 0
    for k in range(1000):
        field = FIELDS[k % 2]
        d = int(rng.integers(2, 9))
        a = gaussian_matrix(d, field, rng)
        delta = 0.3 * gaussian_matrix(d, field, rng)
        delta = 0.5 * (delta + adjoint(delta))
        x = a @ adjoint(a) + (norms(delta).op + 0.5) * np.eye(d)
        if not sqrt_perturbation_bound(x, delta)[2]:
            sqrt_fail += 1
    ok &= _verdict(sqrt_fail == 0, "criterion 6 (sqrt perturbation bound, 1000 instances)",
                   f"{sqrt_fail} failures")

    inv_fail = 0
    for k in range(1000):
        field = FIELDS[k % 2]
        d = int(rng.integers(2, 9))
        x = gaussian_matrix(d, field, rng) + 2.0 * np.eye(d)
        delta = 0.2 * gaussian_matrix(d, field, rng)
        resid = inverse_perturbation_residual(x, delta)
        bound = 1e-10 * (1 + norms(np.linalg.inv(x)).op ** 3 * norms(delta).op ** 2)
        if resid >= bound:
            inv_fail += 1
    ok &= _verdict(inv_fail == 0, "criterion 6 (inverse perturbation residual, 1000 instances)",
                   f"{inv_fail} failures")

    rr_fail = 0
    for k in range(500):
        field = FIELDS[k % 2]
        d = int(rng.integers(2, 7))
        r = gaussian_matrix(d, field, rng)
        a = np.eye(d) - r @ adjoint(r)
        b = np.eye(d) - adjoint(r) @ r
        ea = np.sort_complex(np.linalg.eigvals(a))
        eb = np.sort_complex(np.linalg.eigvals(b))
        scale = 1 + np.abs(ea).max()
        if np.max(np.abs(ea.imag)) >= 1e-12 * scale or np.max(np.abs(ea - eb)) >= 1e-10 * scale:
            rr_fail += 1
    ok &= _verdict(rr_fail == 0, "criterion 6 (gram-complement spectra, 500 instances)",
                   f"{rr_fail} failures")

    wall = time.perf_counter() - t0
    ok &= _verdict(wall < 60.0, "criterion 6 (runtime)", f"{wall:.0f}s < 60s")
    assert ok


def test_criterion_7_regularizer_only():
    t0 = time.perf_counter()
    cfg = replace(
        [c for c in preset("fig-h3", seed=7) if c.name == "fig-h3-real-detplus"][0],
        record_stride=1,
    )
    hist = {"mx": [], "mn": [], "lreg": []}

    def cb(rec, tr):
        hist["mx"].append(rec.sig_max)
        hist["mn"].append(rec.sig_min)
        hist["lreg"].append(rec.l_reg)

    run_scenario(cfg, on_record=cb)
    mx = np.array(hist["mx"])
    mn = np.array(hist["mn"])
    lreg = np.array(hist["lreg"])

    mx_viol = int(np.sum(np.diff(mx) > 1e-6))
    mn_viol = int(np.sum(np.diff(mn) < -1e-6))
    ok = _verdict(
        mx_viol == 0 and mn_viol == 0,
        "criterion 7 (extreme singular values monotone)",
        f"{mx_viol} sig_max increases, {mn_viol} sig_min decreases (slack 1e-6)",
    )

    tail = np.log(lreg[len(lreg) // 2 :])
    x = np.arange(len(tail), dtype=float)
    design = np.vstack([x, np.ones_like(x)]).T
    coef, resid, *_ = np.linalg.lstsq(design, tail, rcond=None)
    ss_tot = float(np.sum((tail - tail.mean()) ** 2))
    r2 = 1.0 - (float(resid[0]) / ss_tot if len(resid) else 0.0)
    ok &= _verdict(
        coef[0] < 0 and r2 > 0.99,
        "criterion 7 (log-linear regularizer decay)",
        f"tail slope {coef[0]:.2e} < 0, R^2 {r2:.4f} > 0.99",
    )

    wall = time.perf_counter() - t0
    ok &= _verdict(wall < 30.0, "criterion 7 (runtime)", f"{wall:.0f}s < 30s")
    assert ok


def test_criterion_8_target_reduction_invariance():
    t0 = time.perf_counter()
    rng = make_rng(8)
    cfg = DynConfig(reg_a=1.1)
    bad = 0
    for k in range(100):
        field = FIELDS[k % 2]
        stack = LayerStack(tuple(0.7 * gaussian_matrix(5, field, rng) for _ in range(4)))
        sigma = gaussian_matrix(5, field, rng)
        before = loss(stack, TargetSpec(sigma, reduced=False), cfg)[2]
        _, e_before = balance_errors(stack)
        target, new = reduce_target(sigma, stack)
        after = loss(new, target, cfg)[2]
        _, e_after = balance_errors(new)
        if abs(before - after) >= 1e-10 * (1 + before):
            bad += 1
        if abs(e_before - e_after) >= 1e-12 * (1 + e_before):
            bad += 1
    wall = time.perf_counter() - t0
    ok = bad == 0 and wall < 5.0
    assert _verdict(
        ok,
        "criterion 8 (target reduction invariance, 100 instances)",
        f"{bad} violations; wall {wall:.1f}s",
    )


@pytest.mark.parametrize("integrator", ["gd", "flow_rk4"])
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
def test_target_reduction_commutes_with_dynamics(field, integrator):
    # PAPER.md's reduction W_1 <- W_1 V_S, W_N <- U_S^H W_N leaves the
    # dynamics of the same form: stepping the reduced problem and mapping
    # the layers back gives the unreduced trajectory, up to rounding.
    rng = make_rng(31)
    stack = LayerStack([0.7 * gaussian_matrix(5, field, rng) for _ in range(4)])
    sigma = gaussian_matrix(5, field, rng)
    cfg = DynConfig(reg_a=1.0, eta=0.01, step_h=0.01, integrator=integrator)
    target, reduced = reduce_target(sigma, stack)

    def steps(w, sigma):
        # The run loop's held kernel, a complex problem as its embedding.
        kernel = _kernel(w[None], sigma[None], cfg)
        for _ in range(2000):
            kernel.advance(1)
        return kernel.own_layers(0)

    want = steps(stack.layers, sigma)
    got = steps(reduced.layers, target.matrix)
    r = svd(sigma)
    got[0] = got[0] @ adjoint(r.v)
    got[-1] = r.u @ got[-1]
    # The layers travel a distance of order 1 and stay of order 1.
    assert np.linalg.norm(want - stack.layers) > 1.0
    assert np.abs(got - want).max() < 1e-13


def test_criterion_9_reproducibility(tmp_path):
    cfg = replace(
        [c for c in preset("fig-h1", seed=13) if c.name == "fig-h1-complex"][0],
        steps=3000,
    )
    s1 = run_scenario(cfg, out_dir=tmp_path / "a")
    s2 = run_scenario(cfg, out_dir=tmp_path / "b")
    b1 = open(s1.csv_path, "rb").read()
    b2 = open(s2.csv_path, "rb").read()
    ok = b1 == b2 and len(b1) > 0
    assert _verdict(
        ok,
        "criterion 9 (byte-identical rerun)",
        f"{len(b1)} bytes, identical: {b1 == b2}",
    )


class TestSupplementaryInvariants:
    """Monitor-level invariants beyond the numbered criteria."""

    def test_zero_mode_persistence_along_flow(self):
        cfg = RunConfig(
            name="zeromode",
            field=FieldTag.REAL,
            d=5,
            n_layers=4,
            target_kind="identity",
            init=InitScheme(kind="balanced", epsilon=0.05),
            dyn=DynConfig(reg_a=0.0, integrator="flow_rk4", step_h=1e-3),
            det_sign=-1,
            steps=5000,
            record_stride=5,
            seed=21,
            eps_conv=1e-300,
        )
        worst = [0.0]
        first = [None]

        def cb(rec, tr):
            if first[0] is None:
                first[0] = rec.half_sum_sv[-1]
            worst[0] = max(worst[0], rec.half_sum_sv[-1])

        run_scenario(cfg, on_record=cb)
        assert first[0] < 1e-12
        assert worst[0] < 1e-8

    def test_sandwich_coherence_along_flow(self):
        # sorted product-root singular values vs the half-sum bounds: the
        # min line carries constant 1/2, the general line sqrt(2)/2
        cfg = RunConfig(
            name="sandwich",
            field=FieldTag.COMPLEX,
            d=5,
            n_layers=4,
            target_kind="identity",
            init=InitScheme(kind="balanced", epsilon=0.05),
            dyn=DynConfig(reg_a=0.0, integrator="flow_rk4", step_h=1e-3),
            steps=4000,
            record_stride=4,
            seed=22,
            eps_conv=1e-300,
        )
        worst = [-np.inf]

        def cb(rec, tr):
            sw = np.sort(rec.sigma_w)[::-1]
            x = rec.half_sum_sv
            op = np.linalg.svd((tr.u - tr.v) * tr.sigma_w, compute_uv=False)[0]
            lower_gap = float(np.max(x - sw))
            upper_min_gap = sw[-1] - 0.5 * np.sqrt((2 * x[-1]) ** 2 + op**2)
            upper_gen_gap = float(
                np.max(sw[:-1] - np.sqrt(0.5) * np.sqrt((2 * x[:-1]) ** 2 + op**2))
            )
            worst[0] = max(worst[0], lower_gap, upper_min_gap, upper_gen_gap)

        run_scenario(cfg, on_record=cb)
        assert worst[0] <= 1e-9

    def test_gradient_fd_agreement_varied_dims(self):
        # 50 random (field, d<=5, N=4, a in {0,1,10}) spot checks
        from factorlab.dynamics import gradient

        h = 1e-6
        rng_pick = np.random.default_rng(1)
        rng = make_rng(9)
        checked = 0
        for _ in range(50):
            field = FIELDS[int(rng_pick.integers(0, 2))]
            d = int(rng_pick.integers(2, 6))
            a = (0.0, 1.0, 10.0)[int(rng_pick.integers(0, 3))]
            st = LayerStack(tuple(0.6 * gaussian_matrix(d, field, rng) for _ in range(4)))
            target = TargetSpec(gaussian_matrix(d, field, rng), reduced=False)
            cfg = DynConfig(reg_a=a)
            grads = gradient(st, target, cfg)
            j = int(rng_pick.integers(0, 4))
            k = int(rng_pick.integers(0, d))
            l = int(rng_pick.integers(0, d))
            for unit in (1.0, 1j) if field is FieldTag.COMPLEX else (1.0,):
                layers = [w.copy() for w in st.layers]
                layers[j][k, l] += unit * h
                fp = loss(LayerStack(tuple(layers)), target, cfg)[2]
                layers[j][k, l] -= 2 * unit * h
                fm = loss(LayerStack(tuple(layers)), target, cfg)[2]
                fd = (fp - fm) / (2 * h)
                g = grads[j][k, l]
                ana = g.real if unit == 1.0 else g.imag
                assert abs(ana - fd) / (1 + abs(ana)) < 1e-6
                checked += 1
        assert checked >= 50

    def test_main_term_decay_regularizer_only_detminus(self):
        # with the misfit term omitted the product is (to first order)
        # invariant, so a negative initial determinant makes the limiting
        # main term singular: sigma_min decays to zero at a log-linear rate
        # set by the balance restoration
        cfg = [c for c in preset("fig-h3", seed=7) if c.name == "fig-h3-real-detminus"][0]
        vals = []

        def cb(rec, tr):
            if rec.main_sv_min is not None:
                vals.append(rec.main_sv_min)

        run_scenario(cfg, on_record=cb)
        assert len(vals) > 100
        tail = np.log(np.array(vals[len(vals) // 2 :]))
        x = np.arange(len(tail), dtype=float)
        design = np.vstack([x, np.ones_like(x)]).T
        coef, resid, *_ = np.linalg.lstsq(design, tail, rcond=None)
        ss_tot = float(np.sum((tail - tail.mean()) ** 2))
        r2 = 1.0 - (float(resid[0]) / ss_tot if len(resid) else 0.0)
        assert coef[0] < 0 and r2 > 0.9
        assert vals[-1] < 0.5 * vals[0]
