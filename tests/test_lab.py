"""Tests for the experiment driver and CLI."""

import cmath
import concurrent.futures
import csv
import itertools
import operator
import os
import re
import runpy
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from factorlab import cli, dynamics, lab
from factorlab.cli import main
from factorlab.dynamics import (
    DynConfig,
    LayerStack,
    TargetSpec,
    _embed,
    _frobenius,
    _unembed,
    flow_step_rk4,
    gd_step,
    gradient,
    loss,
    product,
)
from factorlab.ensembles import InitScheme, ValidatorResult, _resolve_phases, gaussian_matrix
from factorlab.errors import ConfigError, MalformedCSVError
from factorlab.lab import (
    CONFIG_KEYS,
    PRESET_NAMES,
    RunConfig,
    _run_chunk,
    _sweep_seeds,
    build_config,
    emit_plots,
    gradcheck,
    parse_config_file,
    prepare_problem,
    preset,
    rmt_validate,
    run_scenario,
    run_scenarios,
    sweep_convergence,
)
from factorlab.linalg import FieldTag, det_sign_or_phase
from factorlab.monitors import balance_errors, record, record_to_csv_row, records
from test_dynamics import _ref_advance, _ref_evaluate


def tiny_cfg(**kw):
    base = RunConfig(
        name="tiny",
        field=FieldTag.REAL,
        d=4,
        n_layers=4,
        target_kind="identity",
        init=InitScheme(kind="balanced", epsilon=0.05),
        dyn=DynConfig(reg_a=0.0, eta=0.1),
        steps=50,
        record_stride=10,
        seed=5,
    )
    return replace(base, **kw)


_FINITE = {"allow_nan": False, "allow_infinity": False}


@st.composite
def run_configs(draw):
    """Valid RunConfigs of either field, each optional key unset or set."""
    field = draw(st.sampled_from(FieldTag))
    d, n_layers = draw(st.integers(1, 6)), draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["balanced", "random"]))
    target = draw(st.sampled_from(["identity", "diag", "random"]))
    positive = st.floats(min_value=0, exclude_min=True, **_FINITE)
    non_negative = st.floats(min_value=0, **_FINITE)
    if field is FieldTag.REAL:
        phase = st.sampled_from([1.0, -1.0])
    else:
        phase = st.floats(-np.pi, np.pi).map(lambda t: cmath.rect(1.0, t))
    det = [None]
    if field is FieldTag.REAL and (kind == "random" or d % 2 == 1):
        det += [+1, -1]
    diag = st.tuples(*[non_negative] * d)
    return RunConfig(
        name=draw(st.text("abXY09_-. é", min_size=1, max_size=12).filter(lambda s: s == s.strip())),
        field=field,
        d=d,
        n_layers=n_layers,
        target_kind=target,
        sigma1=draw(non_negative),
        diag=draw(diag if target == "diag" else st.none() | diag),
        init=InitScheme(
            kind=kind,
            epsilon=draw(positive),
            s_phases=draw(st.none() | st.tuples(*[phase] * n_layers)),
            g_singular_values=draw(st.none() | st.tuples(*[non_negative] * d)),
        ),
        dyn=DynConfig(
            reg_a=draw(non_negative),
            eta=draw(positive),
            step_h=draw(positive),
            integrator=draw(st.sampled_from(["gd", "flow_rk4"])),
            omit_l_ori=draw(st.booleans()),
        ),
        det_sign=draw(st.sampled_from(det)),
        steps=draw(st.integers(1, 10**6)),
        record_stride=draw(st.integers(1, 10**4)),
        seed=draw(st.integers(0, 2**64 - 1)),
        eps_conv=draw(positive),
    )


class TestConfigFile:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cfg=st.sampled_from([c for n in PRESET_NAMES for c in preset(n)]) | run_configs())
    def test_echo_parses_back(self, tmp_path, cfg):
        # An output's config echo is a config file that rebuilds the same run.
        path = tmp_path / "echo.cfg"
        path.write_text("\n".join(cfg.echo()) + "\n")
        assert build_config(parse_config_file(path)) == cfg

    def test_readme_lists_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        listed = re.search(r"Keys: `([^`]*)`", readme).group(1).split(",")
        assert [re.sub(r"\(.*\)", "", k).strip() for k in listed] == list(CONFIG_KEYS)

    def test_parse_roundtrip(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            """
# comment line
field = complex
d = 5
epsilon = 0.1   # inline comment
diag = 2.0,1.0,0.5,0.25,0.1
target = diag
"""
        )
        kv = parse_config_file(p)
        assert kv["field"] == "complex" and kv["epsilon"] == "0.1"
        cfg = build_config(kv)
        assert cfg.field is FieldTag.COMPLEX
        assert cfg.diag == (2.0, 1.0, 0.5, 0.25, 0.1)

    def test_bad_line_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("field complex\n")
        with pytest.raises(ConfigError):
            parse_config_file(p)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_config({"nonsense": "1"})

    def test_flag_overrides_file(self):
        cfg = build_config({"seed": "1"}, base=build_config({"seed": "2", "d": "3"}))
        assert cfg.seed == 1 and cfg.d == 3


class TestRunConfig:
    @pytest.mark.parametrize(
        "bad, match",
        [
            *((dict(name=name), "name must be") for name in ("", " tiny", "a/b", "a\\b", "a#b")),
            (dict(seed=-1), "seed must be non-negative"),
            (dict(d=0), "d must be positive"),
            (dict(n_layers=1), "n_layers must be at least 2"),
            (dict(steps=0), "steps and record_stride"),
            (dict(record_stride=0), "steps and record_stride"),
            (dict(eps_conv=float("nan")), "eps_conv must be"),
            (dict(sigma1=-1.0), "sigma1 must be"),
            (dict(target_kind="square"), "unknown target kind"),
            (dict(target_kind="diag", diag=(1.0,) * 4), "diag target needs exactly d values"),
            (dict(target_kind="diag", diag=(1.0, 1.0, float("nan"), 1.0, 1.0)), "diag values must be"),
            (dict(init=replace(tiny_cfg().init, g_singular_values=(1.0,) * 4)), "g_singular_values needs exactly d"),
            (dict(init=replace(tiny_cfg().init, s_phases=(1.0,) * 3)), "s_phases length"),
            (dict(init=replace(tiny_cfg().init, s_phases=(1j, 1.0, 1.0, 1.0))), "real field requires s_phases"),
            (dict(det_sign=2), "det_sign must be"),
            (dict(field=FieldTag.COMPLEX, det_sign=1), "only applies to the real field"),
            (dict(d=4, det_sign=-1), "requires odd dimension"),
        ],
    )
    def test_bad_value_fails_where_built(self, bad, match):
        # A balanced real config of odd d, which every rule but one passes.
        valid = tiny_cfg(d=5)
        with pytest.raises(ConfigError, match=match):
            replace(valid, **bad)

    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda: InitScheme(kind="square"), "unknown init kind"),
            (lambda: InitScheme(epsilon=float("nan")), "epsilon must be"),
            (lambda: InitScheme(s_phases=(2.0, 1.0)), "every s_phase must have modulus 1"),
            (lambda: InitScheme(g_singular_values=(1.0, -1.0)), "g_singular_values must be"),
            (lambda: DynConfig(reg_a=-1.0), "reg_a must be"),
            (lambda: DynConfig(eta=float("nan")), "step sizes eta and step_h"),
            (lambda: DynConfig(integrator="euler"), "unknown integrator"),
            (lambda: _resolve_phases(InitScheme(s_phases=(1.0,) * 3), 4, FieldTag.REAL), "s_phases length"),
            (lambda: _resolve_phases(InitScheme(s_phases=(1j, 1.0)), 2, FieldTag.REAL), "real field requires"),
        ],
        ids=[
            "init-kind", "init-epsilon", "init-s-phase", "init-g", "dyn-reg-a", "dyn-eta", "dyn-integrator",
            "phases-length", "phases-field",
        ],
    )
    def test_bad_part_raises_config_error_where_made(self, make, match):
        # A ConfigError is a ValueError too, for callers that catch that.
        with pytest.raises(ConfigError, match=match) as exc:
            make()
        assert isinstance(exc.value, ValueError)

    def test_bad_override_keeps_its_message(self):
        with pytest.raises(ConfigError) as exc:
            build_config({"reg_a": "-1"})
        assert str(exc.value) == "reg_a must be finite and non-negative, got -1.0"


class TestPresets:
    def test_families(self):
        for name in ("fig-h1", "fig-h2", "fig-h3"):
            cfgs = preset(name, seed=1)
            assert len(cfgs) == 3
            assert {c.det_sign for c in cfgs} == {+1, -1, None}
            assert sum(c.field is FieldTag.COMPLEX for c in cfgs) == 1
        assert len(preset("sweep")) == 1

    def test_fig_h2_target(self):
        cfg = preset("fig-h2", seed=1)[0]
        assert cfg.target_kind == "diag"
        assert cfg.diag == (2.00, 1.55, 1.10, 0.65, 0.20)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("fig-h9")

    # Every preset variant's echo at seed 2024, one value per config key.
    ECHO_KEYS = (
        "name | field | d | n_layers | target | sigma1 | diag | init | epsilon | s_phases | "
        "g_singular_values | det | integrator | reg_a | eta | step_h | omit_l_ori | steps | "
        "record_stride | seed | eps_conv"
    )
    ECHOES = [
        "fig-h1-real-detplus | real | 5 | 4 | identity | 1.0 |  | balanced | 0.05 |  | "
        "1.0,0.8,0.6,0.5,0.9 | plus | gd | 0.0 | 0.1 | 0.001 | false | 200000 | 100 | 2024 | 1e-08",
        "fig-h1-real-detminus | real | 5 | 4 | identity | 1.0 |  | balanced | 0.05 |  | "
        "1.0,0.8,0.6,0.5,0.9 | minus | gd | 0.0 | 0.1 | 0.001 | false | 200000 | 100 | 2024 | 1e-08",
        "fig-h1-complex | complex | 5 | 4 | identity | 1.0 |  | balanced | 0.05 |  | "
        "1.0,0.8,0.6,0.5,0.9 |  | gd | 0.0 | 0.1 | 0.001 | false | 200000 | 100 | 2024 | 1e-08",
        "fig-h2-real-detplus | real | 5 | 4 | diag | 1.0 | 2.0,1.55,1.1,0.65,0.2 | balanced | 0.05 |  | "
        "1.0,0.8,0.6,0.5,0.9 | plus | gd | 0.0 | 0.1 | 0.001 | false | 200000 | 100 | 2024 | 1e-08",
        "fig-h2-real-detminus | real | 5 | 4 | diag | 1.0 | 2.0,1.55,1.1,0.65,0.2 | balanced | 0.05 |  | "
        "1.0,0.8,0.6,0.5,0.9 | minus | gd | 0.0 | 0.1 | 0.001 | false | 200000 | 100 | 2024 | 1e-08",
        "fig-h2-complex | complex | 5 | 4 | diag | 1.0 | 2.0,1.55,1.1,0.65,0.2 | balanced | 0.05 |  | "
        "1.0,0.8,0.6,0.5,0.9 |  | gd | 0.0 | 0.1 | 0.001 | false | 200000 | 100 | 2024 | 1e-08",
        "fig-h3-real-detplus | real | 5 | 4 | identity | 1.0 |  | random | 1.0 |  |  | "
        "plus | gd | 1.0 | 0.001 | 0.001 | true | 20000 | 10 | 2024 | 1e-08",
        "fig-h3-real-detminus | real | 5 | 4 | identity | 1.0 |  | random | 1.0 |  |  | "
        "minus | gd | 1.0 | 0.001 | 0.001 | true | 20000 | 10 | 2024 | 1e-08",
        "fig-h3-complex | complex | 5 | 4 | identity | 1.0 |  | random | 1.0 |  |  | "
        " | gd | 1.0 | 0.001 | 0.001 | true | 20000 | 10 | 2024 | 1e-08",
        "sweep | real | 5 | 4 | identity | 1.0 |  | random | 0.15 |  |  | "
        " | gd | 1.0 | 0.05 | 0.001 | false | 150000 | 1000 | 2024 | 1e-08",
    ]

    def test_echo_of_every_variant(self):
        keys = self.ECHO_KEYS.split(" | ")
        want = [
            [f"{k} = {v}" for k, v in zip(keys, row.split(" | "), strict=True)]
            for row in self.ECHOES
        ]
        assert [c.echo() for name in PRESET_NAMES for c in preset(name)] == want


class TestPrepareProblem:
    def test_det_sign_forcing(self):
        for want in (+1, -1):
            cfg = tiny_cfg(d=5, det_sign=want)
            _, stack, det0 = prepare_problem(cfg)
            assert det0 == float(want)

    def test_det_sign_even_dim_rejected(self):
        with pytest.raises(ConfigError):
            prepare_problem(tiny_cfg(d=4, det_sign=-1))

    def test_det_sign_complex_rejected(self):
        with pytest.raises(ConfigError):
            prepare_problem(tiny_cfg(field=FieldTag.COMPLEX, det_sign=1))

    @pytest.mark.parametrize("phases", [None, (-1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, -1.0),
                                        (-1.0, -1.0, 1.0, -1.0)])
    @pytest.mark.parametrize("want", [+1, -1])
    def test_det_sign_with_s_phases(self, phases, want):
        # The sign comes from negating W_N after the phases are applied, so
        # it holds for any phases and the stack stays balanced.
        base = preset("fig-h1")[0]
        cfg = replace(base, det_sign=want, init=replace(base.init, s_phases=phases))
        _, stack, det0 = prepare_problem(cfg)
        assert det0 == float(want)
        assert balance_errors(stack)[1] < 1e-14

    def test_random_target_reduced(self):
        cfg = tiny_cfg(target_kind="random")
        target, _, _ = prepare_problem(cfg)
        assert target.reduced
        diag = np.diagonal(target.matrix).real
        assert np.all(np.diff(diag) <= 1e-12) and np.all(diag >= 0)

    @pytest.mark.parametrize("kind", ["balanced", "random"])
    @pytest.mark.parametrize("want", [+1, -1])
    def test_det_sign_after_target_reduction(self, kind, want):
        # The reduction multiplies det W by det(U_S^H V_S) = +-1, so the sign
        # must be chosen on the reduced stack the run starts from.
        for seed in range(20):
            cfg = tiny_cfg(
                d=5, target_kind="random", init=InitScheme(kind=kind, epsilon=0.5),
                det_sign=want, seed=seed,
            )
            _, stack, det0 = prepare_problem(cfg)
            assert det0 == det_sign_or_phase(product(stack)) == float(want), seed

    @staticmethod
    def _edge_stats(stacks: np.ndarray) -> np.ndarray:
        """``(6, seeds)``: Re W_1[0,0], Re W_1[0,1] and |W_1's first column|, then Re W_N[0,0], Re W_N[1,0] and |W_N's first row|."""
        w1, wn = stacks[:, 0], stacks[:, -1]
        return np.array([
            w1[:, 0, 0].real, w1[:, 0, 1].real, np.linalg.norm(w1[:, :, 0], axis=-1),
            wn[:, 0, 0].real, wn[:, 1, 0].real, np.linalg.norm(wn[:, 0, :], axis=-1),
        ])

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX], ids=lambda f: f.value)
    @pytest.mark.parametrize("name", ["fig-h1", "sweep"], ids=["balanced", "random"])
    def test_reduction_keeps_the_layer_distributions(self, name, field):
        # The reduction to a diagonal target turns W_1 into W_1 V_S and W_N
        # into U_S^H W_N, with U_S and V_S independent of the stack, whose
        # W_1 and W_N laws are unitarily invariant: so the reduced stacks of
        # random targets are distributed as the stacks of the identity
        # target.  Two-sample KS tests on disjoint seed ranges, at the bound
        # of ``validate_haar_invariance``; a W_1 column scaled by 1.2 fails.
        from scipy import stats

        base = replace(preset(name)[0], field=field, det_sign=None)

        def stacks(target_kind, seeds):
            cfgs = (replace(base, target_kind=target_kind, seed=s) for s in seeds)
            return np.stack([prepare_problem(cfg)[1].layers for cfg in cfgs])

        reduced, plain = stacks("random", range(10_000, 10_400)), stacks("identity", range(20_000, 20_400))
        for k, (x, y) in enumerate(zip(self._edge_stats(reduced), self._edge_stats(plain))):
            assert stats.ks_2samp(x, y).pvalue > 1e-3, k
        reduced[:, 0, :, 0] *= 1.2
        assert stats.ks_2samp(self._edge_stats(reduced)[2], self._edge_stats(plain)[2]).pvalue < 1e-3

    def test_random_init_det_scan(self):
        cfg = tiny_cfg(
            d=5,
            init=InitScheme(kind="random", epsilon=0.5),
            det_sign=-1,
        )
        _, stack, det0 = prepare_problem(cfg)
        assert det0 == -1.0


def _flow_cfg(field, steps):
    """Criterion 2's flow suite: RK4, balanced init, a record every step, never converging."""
    return RunConfig(
        name=f"flow-{field.value}",
        field=field,
        init=InitScheme(kind="balanced", epsilon=0.05),
        dyn=DynConfig(reg_a=0.0, integrator="flow_rk4", step_h=1e-3),
        steps=steps,
        record_stride=1,
        seed=3,
        eps_conv=1e-300,
    )


def _check_rows_from_scratch(cfg, s, recs):
    """Each CSV row and record of a run with summary ``s`` is the one made from scratch.

    From scratch: ``gd_step`` or ``flow_step_rk4`` from the prepared problem,
    and ``record`` of each step's stack alone.
    """
    rows = [ln for ln in open(s.csv_path).read().splitlines() if not ln.startswith("#")][1:]
    assert len(rows) == len(recs) == s.steps_run + 1

    target, stack, _ = prepare_problem(cfg)
    step_fn = gd_step if cfg.dyn.integrator == "gd" else flow_step_rk4
    dt = cfg.dyn.eta if cfg.dyn.integrator == "gd" else cfg.dyn.step_h
    track = None
    for step, (row, rec) in enumerate(zip(rows, recs)):
        l_ori, l_reg, _ = loss(stack, target, cfg.dyn)
        fresh, track = record(step, step * dt, stack, l_ori, l_reg, target, track)
        assert row == record_to_csv_row(fresh, cfg.d)
        assert (rec.l_ori, rec.l_reg) == (l_ori, l_reg)
        assert rec.e_delta == balance_errors(stack)[1]
        if step < s.steps_run:
            stack = step_fn(stack, target, cfg.dyn)
    assert s.final_e_delta == recs[-1].e_delta == balance_errors(stack)[1]


class TestRunScenario:
    def test_csv_structure(self, tmp_path):
        s = run_scenario(tiny_cfg(), out_dir=tmp_path)
        text = open(s.csv_path).read()
        lines = text.strip().split("\n")
        meta = [ln for ln in lines if ln.startswith("#")]
        assert any("seed = 5" in ln for ln in meta)
        assert any("prng" in ln for ln in meta)
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header.startswith("step,time,l_ori,l_reg,e_delta,sig_max,sig_min")
        rows = [ln for ln in lines if not ln.startswith("#")][1:]
        assert len(rows) >= 2
        assert (tmp_path / "tiny.summary.txt").exists()

    def test_early_stop_on_convergence(self):
        cfg = tiny_cfg(steps=100_000, eps_conv=1e-2, dyn=DynConfig(reg_a=0.0, eta=0.2))
        s = run_scenario(cfg)
        assert s.status == "converged"
        assert s.converged_step is not None and s.converged_step < 100_000
        assert s.final_l_ori < 1e-2

    def test_divergence_guard(self):
        cfg = tiny_cfg(
            init=InitScheme(kind="random", epsilon=1.0),
            dyn=DynConfig(reg_a=0.0, eta=10.0),
            steps=5000,
        )
        s = run_scenario(cfg)
        assert s.status == "diverged"
        assert s.final_l_ori == float("inf")

    def test_byte_identical_rerun(self, tmp_path):
        cfg = replace(
            [c for c in preset("fig-h3", seed=3) if c.field is FieldTag.COMPLEX][0],
            steps=300,
            record_stride=50,
        )
        s1 = run_scenario(cfg, out_dir=tmp_path / "a")
        s2 = run_scenario(cfg, out_dir=tmp_path / "b")
        b1 = open(s1.csv_path, "rb").read()
        b2 = open(s2.csv_path, "rb").read()
        assert b1 == b2

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            run_scenario(tiny_cfg(steps=0))

    @pytest.mark.parametrize(
        "cfg",
        [
            # criterion 2's flow suite: regularizer off, defects computed by record
            *(
                RunConfig(
                    name=f"flow-{field.value}",
                    field=field,
                    init=InitScheme(kind="balanced", epsilon=0.05),
                    dyn=DynConfig(reg_a=0.0, integrator="flow_rk4", step_h=1e-3),
                    steps=30,
                    record_stride=1,
                    seed=3,
                    eps_conv=1e-300,
                )
                for field in (FieldTag.REAL, FieldTag.COMPLEX)
            ),
            # fig-h3: regularizer on, defects taken from the step's evaluation
            replace(preset("fig-h3", seed=3)[0], steps=30, record_stride=1),
            # complex GD: the run loop restores the embedded form every step
            replace(
                preset("fig-h1", seed=3)[2],
                init=InitScheme(kind="random", epsilon=0.5),
                steps=30,
                record_stride=1,
            ),
            # Past RECORD_BLOCK with a record every step, so each block's
            # rows come from kernel buffers that later steps reuse.  The
            # sweep preset's complex variant has the regularizer on: its
            # e_delta is computed from the complex layers, as
            # balance_errors computes it.
            replace(preset("sweep", seed=3)[0], field=FieldTag.COMPLEX, steps=150, record_stride=1),
            _flow_cfg(FieldTag.COMPLEX, 150),
            replace(preset("fig-h3", seed=3)[0], steps=150, record_stride=1),
        ],
        ids=["flow-real", "flow-complex", "fig-h3", "gd-complex", "sweep-complex", "flow-complex-150", "fig-h3-150"],
    )
    def test_rows_match_records_from_scratch(self, tmp_path, cfg):
        recs = []
        s = run_scenario(cfg, out_dir=tmp_path, on_record=lambda rec, _: recs.append(rec))
        assert s.steps_run == cfg.steps
        _check_rows_from_scratch(cfg, s, recs)


def _diverging_cfg(record_stride):
    # Layers leave the divergence guard within a few steps.
    return tiny_cfg(
        init=InitScheme(kind="random", epsilon=1.0),
        dyn=DynConfig(reg_a=0.0, eta=10.0),
        steps=2000,
        record_stride=record_stride,
        seed=2024,
    )


class TestRunScenarios:
    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX], ids=lambda f: f.value)
    def test_random_target_header_gives_the_reduced_diagonal(self, tmp_path, field):
        cfg = tiny_cfg(field=field, target_kind="random", steps=20)
        s = run_scenario(cfg, out_dir=tmp_path)
        lines = Path(s.csv_path).read_text().splitlines()
        [line] = [ln for ln in lines if ln.startswith("# reduced_target_diag = ")]
        got = [float(v) for v in line.split(" = ")[1].split(",")]
        target, _, _ = prepare_problem(cfg)
        assert target.reduced and got == np.diagonal(target.matrix).real.tolist()

    def test_diag_family_runs_against_its_diagonal(self, tmp_path):
        family = [replace(c, steps=300) for c in preset("fig-h2")]
        summaries = run_scenarios(family, out_dir=tmp_path)
        diag = family[0].diag
        assert diag is not None and len(set(diag)) == len(diag)
        for cfg, s in zip(family, summaries):
            assert (s.status, s.steps_run) == ("exhausted", 300)
            target, stack, _ = prepare_problem(cfg)
            assert np.array_equal(target.matrix, np.diag(diag))
            lines = Path(s.csv_path).read_text().splitlines()
            echo = dict(ln[2:].split(" = ", 1) for ln in lines if ln.startswith("# ") and " = " in ln)
            assert echo["target"] == "diag"
            assert lab.CONFIG_KEYS["diag"].parse(echo["diag"]) == diag
            # The step-0 record's l_ori is the misfit against that diagonal.
            header = [ln for ln in lines if not ln.startswith("#")][0].split(",")
            row0 = [ln for ln in lines if not ln.startswith("#")][1].split(",")
            assert float(row0[header.index("l_ori")]) == loss(stack, target, cfg.dyn)[0]

    @pytest.mark.parametrize(
        "family",
        [
            # det+ and complex converge mid-run while det- runs the whole budget
            [replace(c, steps=1500, init=replace(c.init, epsilon=0.3)) for c in preset("fig-h1")],
            # regularizer on, omit_l_ori, stride 10
            [replace(c, steps=300) for c in preset("fig-h3", seed=3)],
        ],
        ids=["fig-h1", "fig-h3"],
    )
    def test_family_batch_matches_single_runs(self, tmp_path, monkeypatch, family):
        batch_sizes = []

        def spy(cfgs, trajectories=None):
            batch_sizes.append(len(cfgs))
            return _run_chunk(cfgs, trajectories)

        monkeypatch.setattr(lab, "_run_chunk", spy)
        seen = [[] for _ in family]
        batched = run_scenarios(
            family, out_dir=tmp_path / "batch", on_record=lambda i, rec, _: seen[i].append(rec)
        )
        assert batch_sizes == [2, 1]  # the real variants step together

        for cfg, got, recs in zip(family, batched, seen):
            alone = []
            want = run_scenario(
                cfg, out_dir=tmp_path / cfg.name, on_record=lambda rec, _: alone.append(rec)
            )
            assert replace(got, wall_time_s=0, csv_path=None) == replace(
                want, wall_time_s=0, csv_path=None
            )
            assert Path(got.csv_path).read_bytes() == Path(want.csv_path).read_bytes()
            summaries = [
                [ln for ln in (d / f"{cfg.name}.summary.txt").read_text().splitlines()
                 if not ln.startswith("wall_time_s")]
                for d in (tmp_path / "batch", tmp_path / cfg.name)
            ]
            assert summaries[0] == summaries[1]
            assert [record_to_csv_row(r, cfg.d) for r in recs] == [
                record_to_csv_row(r, cfg.d) for r in alone
            ]
            assert recs[-1].step == got.steps_run
        if family[0].dyn.omit_l_ori:
            assert {s.status for s in batched} == {"exhausted"}
        else:
            plus, minus, cplx = batched
            assert plus.status == cplx.status == "converged"
            assert minus.status == "exhausted" and plus.steps_run < minus.steps_run

    @pytest.mark.parametrize(
        "pair",
        [
            # det+ converges at step 638, det- runs on to its budget
            [
                replace(c, steps=700, record_stride=1, init=replace(c.init, epsilon=0.3))
                for c in preset("fig-h1")[:2]
            ],
            # two complex seeds, converging at steps 277 and 667
            [
                replace(
                    preset("fig-h1")[2],
                    name=f"fig-h1-complex-{seed}",
                    seed=seed,
                    steps=1500,
                    record_stride=1,
                    init=replace(preset("fig-h1")[2].init, epsilon=0.3),
                )
                for seed in (2, 6)
            ],
        ],
        ids=["real", "complex"],
    )
    def test_rows_survive_a_kernel_rebuild(self, tmp_path, monkeypatch, pair):
        # The first run leaves the batch mid-block, so the kernel is rebuilt
        # while the second run's block still holds records of the old one.
        rebuilt = []
        take = dynamics._Kernel.take

        def spy(kernel, rows):
            rebuilt.append(len(kernel.layers))
            return take(kernel, rows)

        monkeypatch.setattr(dynamics._Kernel, "take", spy)
        seen = [[], []]
        summaries = run_scenarios(
            pair, out_dir=tmp_path, on_record=lambda i, rec, _: seen[i].append(rec)
        )
        first, second = summaries
        assert rebuilt == [2]
        assert first.status == "converged" and first.steps_run < second.steps_run
        assert (first.steps_run + 1) % lab.RECORD_BLOCK != 0
        for cfg, s, recs in zip(pair, summaries, seen):
            _check_rows_from_scratch(cfg, s, recs)

    def test_divergence_agrees_with_sweep(self):
        # At a record stride of 25 the trajectory's guard steps are the
        # sweep's, so both report the same step.
        cfg = _diverging_cfg(record_stride=25)
        s = run_scenario(cfg)
        (o,) = _run_chunk([cfg])
        assert (s.status, s.steps_run) == (o.status, o.steps_run) == ("diverged", 25)

    def test_diverged_csv_is_clean(self, tmp_path, capsys):
        p = tmp_path / "div.cfg"
        p.write_text("\n".join(_diverging_cfg(record_stride=7).echo()) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        summary = (tmp_path / "tiny.summary.txt").read_text()
        assert "status = diverged" in summary and "steps_run = 7" in summary
        lines = (tmp_path / "tiny.csv").read_text().splitlines()
        rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
        assert [r[0] for r in rows] == ["0"]
        assert all(cmath.isfinite(complex(x)) for r in rows for x in r if x)


class TestRecordBlocks:
    @pytest.mark.parametrize(
        "cfgs",
        [
            [_flow_cfg(FieldTag.REAL, 140)],
            [_flow_cfg(FieldTag.COMPLEX, 140)],
            # regularizer on, omit_l_ori; batches of two and one
            [replace(c, steps=150, record_stride=1) for c in preset("fig-h3", seed=3)],
            # diverges at step 131, inside a block of 3 and of 64
            [tiny_cfg(dyn=DynConfig(reg_a=0.0, eta=0.7), steps=400, record_stride=1, eps_conv=1e-300)],
        ],
        ids=["flow-real", "flow-complex", "fig-h3", "diverging"],
    )
    def test_block_invariance(self, tmp_path, monkeypatch, cfgs):
        default = lab.RECORD_BLOCK

        def outputs(block):
            monkeypatch.setattr(lab, "RECORD_BLOCK", block)
            sizes = []

            def spy(steps, *args):
                sizes.append(len(steps))
                return records(steps, *args)

            monkeypatch.setattr(lab, "records", spy)
            seen = [[] for _ in cfgs]

            def on_record(i, rec, track):
                assert np.array_equal(rec.sigma_w, track.sigma_w)
                row = record_to_csv_row(rec, cfgs[i].d)
                seen[i].append((row, track.u.tobytes(), track.v.tobytes(), track.aligned))

            out = tmp_path / str(block)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                summaries = run_scenarios(cfgs, out_dir=out, on_record=on_record)
            # CSV bytes, and summaries but for their wall time
            files = {
                f.name: f.read_bytes() if f.suffix == ".csv" else
                [ln for ln in f.read_text().splitlines() if not ln.startswith("wall_time_s")]
                for f in out.iterdir()
            }
            return [replace(s, wall_time_s=0, csv_path=None) for s in summaries], files, seen, sizes

        ref = outputs(1)
        assert set(ref[3]) == {1}
        for block in (3, default):
            got = outputs(block)
            assert got[:3] == ref[:3]
            # Full blocks, then each trajectory's remainder when its run ends.
            want = [block] * sum(len(seen) // block for seen in ref[2])
            want += [len(seen) % block for seen in ref[2] if len(seen) % block]
            assert sorted(got[3]) == sorted(want) and max(got[3]) == block
        for cfg, summary in zip(cfgs, ref[0]):
            lines = ref[1][f"{cfg.name}.csv"].decode().splitlines()
            rows = [r.split(",") for r in lines if not r.startswith("#")][1:]
            if summary.status == "diverged":
                assert summary.steps_run == 131
                assert [int(r[0]) for r in rows] == list(range(131))
                assert all(cmath.isfinite(complex(x)) for r in rows for x in r if x)
            else:
                assert len(rows) == summary.steps_run + 1


class TestSweep:
    def test_single_seed_fraction(self):
        base = tiny_cfg(steps=2000, eps_conv=1e-6, dyn=DynConfig(reg_a=0.0, eta=0.2))
        r = sweep_convergence(base, 1, workers=1)
        assert r.tally() in ((0, 1), (1, 1))

    @pytest.mark.parametrize("n_seeds, workers", [(0, 1), (4, 0), (4, -1)])
    def test_needs_a_seed_and_a_worker(self, n_seeds, workers):
        with pytest.raises(ConfigError, match="at least 1"):
            sweep_convergence(tiny_cfg(), n_seeds, workers=workers)

    def test_deterministic_and_worker_independent(self, monkeypatch):
        # Chunks of any size, so that two workers really split the sweep.
        monkeypatch.setattr(lab, "MIN_SWEEP_CHUNK", 1)
        base = tiny_cfg(
            d=5,
            init=InitScheme(kind="random", epsilon=0.15),
            dyn=DynConfig(reg_a=1.0, eta=0.05),
            steps=3000,
            eps_conv=1e-8,
        )
        r1 = sweep_convergence(base, 6, workers=1)
        r2 = sweep_convergence(base, 6, workers=2)
        assert r1.tally() == r2.tally()
        assert [o.seed for o in r1.outcomes] == [o.seed for o in r2.outcomes]
        assert [o.steps_run for o in r1.outcomes] == [o.steps_run for o in r2.outcomes]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [1, 10, 20, 60, 100, 200, 400, 600])
    def test_chunk_plan(self, n, workers):
        chunks = lab._sweep_chunks(list(range(n)), workers)
        assert [i for c in chunks for i in c] == list(range(n))
        assert max(map(len, chunks)) <= lab.MAX_SWEEP_BATCH
        assert max(map(len, chunks)) - min(map(len, chunks)) <= 1
        if len(chunks) > 1:
            assert min(map(len, chunks)) >= lab.MIN_SWEEP_CHUNK
        # Every worker the minimum chunk allows, and more chunks only for the cap.
        assert len(chunks) >= min(workers, n // lab.MIN_SWEEP_CHUNK)
        assert len(chunks) <= max(workers, -(-n // lab.MAX_SWEEP_BATCH))

    def test_one_chunk_sweep_runs_in_process(self, monkeypatch):
        base = tiny_cfg(
            d=5,
            init=InitScheme(kind="random", epsilon=0.15),
            dyn=DynConfig(reg_a=1.0, eta=0.05),
            steps=300,
        )
        want = sweep_convergence(base, 10, workers=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-chunk sweep started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert sweep_convergence(base, 10, workers=2) == want

    def test_cross_tabulation_real(self):
        base = tiny_cfg(
            d=5,
            init=InitScheme(kind="random", epsilon=0.15),
            dyn=DynConfig(reg_a=1.0, eta=0.05),
            steps=100,
        )
        r = sweep_convergence(base, 8, workers=2)
        assert r.tally(+1)[1] + r.tally(-1)[1] == 8

    def test_det_classes_hold_real_seeds_only(self):
        # A complex seed's det W(0) is a phase, and a product that overflows
        # at the start has det_w0 = nan and diverges at step 0.
        complex_sweep = sweep_convergence(tiny_cfg(field=FieldTag.COMPLEX, steps=100), 4, workers=1)
        assert complex_sweep.tally()[1] == 4
        overflowed = sweep_convergence(tiny_cfg(d=5, init=InitScheme(kind="random", epsilon=1e80)), 4, workers=1)
        assert all(o.status == "diverged" and o.steps_run == 0 for o in overflowed.outcomes)
        assert all(np.isnan(o.det_w0) for o in overflowed.outcomes)
        assert overflowed.tally() == (0, 4)
        for r in (complex_sweep, overflowed):
            assert r.tally(+1) == r.tally(-1) == (0, 0)

    @pytest.mark.parametrize("integrator", ["gd", "flow_rk4"])
    def test_light_runner_matches_full(self, integrator):
        cfg = tiny_cfg(
            d=5,
            init=InitScheme(kind="random", epsilon=0.15),
            dyn=DynConfig(reg_a=1.0, eta=0.05, integrator=integrator),
            steps=500,
            eps_conv=1e-300,
        )
        (out,) = _run_chunk([cfg])
        s = run_scenario(cfg)
        assert (out.status, out.steps_run, out.final_l_ori) == (s.status, s.steps_run, s.final_l_ori)

    @staticmethod
    def _seed_cfgs(base, n):
        return [replace(base, seed=s) for s in _sweep_seeds(base.seed, n)]

    @staticmethod
    def _key(outcomes):
        return [(o.seed, o.status, o.steps_run, o.final_l_ori) for o in outcomes]

    @pytest.mark.parametrize(
        "integrator, steps",
        [pytest.param("gd", 400, id="gd"), pytest.param("flow_rk4", 80, id="flow_rk4")],
    )
    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    def test_batch_invariance(self, monkeypatch, field, integrator, steps):
        # Converging, exhausted and diverging seeds in one sweep: each seed's
        # outcome must not depend on which other seeds share its batch.
        # Chunks of any size, so that two workers really split the sweep.
        monkeypatch.setattr(lab, "MIN_SWEEP_CHUNK", 1)
        base = tiny_cfg(
            d=5,
            field=field,
            init=InitScheme(kind="random", epsilon=0.55),
            dyn=DynConfig(reg_a=1.0, eta=0.15, step_h=0.15, integrator=integrator),
            steps=steps,
            eps_conv=1e-3,
        )
        n = 8
        cfgs = self._seed_cfgs(base, n)

        def chunked(b):
            return self._key(o for i in range(0, n, b) for o in _run_chunk(cfgs[i : i + b]))

        ref = chunked(1)
        assert {s for _, s, _, _ in ref} == {"converged", "exhausted", "diverged"}
        assert chunked(3) == ref
        assert chunked(n) == ref
        for workers in (1, 2):
            assert self._key(sweep_convergence(base, n, workers=workers).outcomes) == ref

    @staticmethod
    def _complex_kernel_outcomes(cfgs):
        # The run loop's rules, stepped in complex arithmetic by the test
        # reference: the guard at multiples of 25, at the last step and where
        # a run converges, on the complex layer norms.
        problems = [prepare_problem(c) for c in cfgs]
        w = np.stack([stack.layers for _, stack, _ in problems])
        sigma = np.stack([target.matrix for target, _, _ in problems])
        cfg, out = cfgs[0], [None] * len(cfgs)
        with np.errstate(all="ignore"):
            for step in range(cfg.steps + 1):
                ev = _ref_evaluate(w, sigma, cfg.dyn)
                ok = (_frobenius(w) <= lab.DIVERGENCE_GUARD).all(axis=-1)
                for i in range(len(cfgs)):
                    if out[i] is not None:
                        continue
                    conv = ev[4][i] < cfg.eps_conv
                    if not ok[i] and (conv or step % 25 == 0 or step == cfg.steps):
                        out[i] = ("diverged", step)
                    elif conv:
                        out[i] = ("converged", step)
                    elif step == cfg.steps:
                        out[i] = ("exhausted", step)
                w = _ref_advance(ev, sigma, cfg.dyn)
        return out

    @pytest.mark.parametrize("case", ["mixed", "near-guard"])
    def test_complex_guard_in_complex_units(self, case):
        # A complex sweep steps real embeddings, whose layer norms are sqrt(2)
        # times the complex ones; the guard must still read complex norms.
        if case == "mixed":
            # Every outcome here is robust: a one-ulp change of the initial
            # layers moves none.  (On the fig-h1 family with Gaussian targets
            # at eta = 0.1 the dynamics are chaotic, and such a change moves
            # the divergence step of a quarter of the seeds.)
            base = tiny_cfg(
                d=5,
                field=FieldTag.COMPLEX,
                init=InitScheme(kind="random", epsilon=0.55),
                dyn=DynConfig(reg_a=1.0, eta=0.15),
                steps=400,
                eps_conv=1e-3,
            )
            n = 24
        else:
            # Layers that start between 1e12 / sqrt(2) and 1e12.
            base = replace(
                preset("fig-h1", seed=7)[2],
                init=InitScheme(kind="random", epsilon=1.6e11),
                steps=50,
            )
            n = 8
            cfgs = self._seed_cfgs(base, n)
            norms = [_frobenius(prepare_problem(c)[1].layers).max() for c in cfgs]
            assert any(lab.DIVERGENCE_GUARD / np.sqrt(2) < v <= lab.DIVERGENCE_GUARD for v in norms)
        got = [(o.status, o.steps_run) for o in sweep_convergence(base, n, workers=1).outcomes]
        assert got == self._complex_kernel_outcomes(self._seed_cfgs(base, n))
        if case == "mixed":
            assert {status for status, _ in got} == {"converged", "exhausted", "diverged"}

    def test_converged_on_last_step_beside_exhausted(self):
        # A seed that converges exactly at step == steps is converged, not
        # exhausted, while the seeds still active in its batch are exhausted.
        base = tiny_cfg(
            d=5,
            init=InitScheme(kind="random", epsilon=0.55),
            dyn=DynConfig(reg_a=1.0, eta=0.15),
            steps=400,
            eps_conv=1e-3,
        )
        cfgs = self._seed_cfgs(base, 8)
        free = _run_chunk(cfgs)
        last = max(o.steps_run for o in free if o.converged)
        assert any(o.steps_run > last and o.status != "diverged" for o in free)
        cut = [replace(c, steps=last) for c in cfgs]
        for f, o in zip(free, _run_chunk(cut)):
            if f.converged and f.steps_run == last:
                assert (o.status, o.steps_run, o.final_l_ori) == ("converged", last, f.final_l_ori)
            elif f.steps_run > last:
                assert (o.status, o.steps_run) == ("exhausted", last)
            else:
                assert (o.status, o.steps_run) == (f.status, f.steps_run)


class TestDepthCondition:
    """The exactly balanced det<0 barrier holds at depth N >= 3 and falls at N = 2.

    Real det<0 runs of the fig-h1 family, seeds 300-307, GD at ``eta =
    0.1``, with the product's initial scale held at 0.05^4.  At N = 2 each
    run reaches the ``l_ori = 0.5`` plateau, its stuck mode decays until
    rounding-level imbalance flips a layer's determinant, and it converges
    (measured at steps 490-519).  At N = 4 each run reaches the plateau and
    stays on it.
    """

    @staticmethod
    def _outcomes(n_layers, epsilon, steps):
        cfgs = []
        for seed in range(300, 308):
            (cfg,) = [c for c in preset("fig-h1", seed=seed) if c.name == "fig-h1-real-detminus"]
            cfgs.append(replace(cfg, n_layers=n_layers, init=replace(cfg.init, epsilon=epsilon), steps=steps))
        outcomes = _run_chunk(cfgs)
        assert all(o.det_w0 < 0 for o in outcomes)
        return outcomes

    def test_a_det_minus_run_converges_at_depth_two(self):
        outcomes = self._outcomes(2, 0.05**2, 2000)
        assert [o.status for o in outcomes] == ["converged"] * 8
        assert all(450 <= o.steps_run <= 600 for o in outcomes)

    def test_a_det_minus_run_stays_on_the_plateau_at_depth_four(self):
        # All eight are on the plateau by step 20,000, within 4.2e-8 of 0.5
        # (two were still above it at step 10,000).
        outcomes = self._outcomes(4, 0.05, 20_000)
        assert [o.status for o in outcomes] == ["exhausted"] * 8
        assert all(abs(o.final_l_ori - 0.5) < 1e-6 for o in outcomes)


class TestConvergenceCheck:
    """The run loop tests a block's ``l_ori`` once, after the block, and reads
    it on guard and record steps; its outcomes must be those of a loop that
    finishes and tests ``l_ori`` on every step."""

    # Problems set beside seeded ones, by seed: an exact fit; misfits on one
    # off-diagonal entry whose squared norm is subnormal, or whose loss is
    # near 1e-6; and layers that overflow to NaN a few steps in, then stay
    # in the batch until the guard's next multiple of 25.
    CRAFTED = {1: ("exact", 0.0), 2: ("subnormal", 1e-161), 3: ("near", 1e-3), 4: ("blow-up", 1e5)}
    REGIMES = {
        "plain": dict(reg_a=0.0),
        "regularized": dict(reg_a=1.0),
        "omit_l_ori": dict(reg_a=1.0, omit_l_ori=True),
    }

    @staticmethod
    def _crafted(cfg, kind, size):
        complex_ = cfg.field is FieldTag.COMPLEX
        eye = np.eye(cfg.d, dtype=complex if complex_ else float)
        layers = np.stack([eye] * cfg.n_layers)
        if kind == "blow-up":
            layers *= size
        else:
            layers[0, 0, 1] = size * (1 + 1j) if complex_ else size
        return TargetSpec(eye, reduced=True), LayerStack(layers), 1.0

    @staticmethod
    def _reference(cfgs, problems):
        # The run loop's rules with l_ori finished on every step, stepped by
        # the test reference as the kernel steps: a complex batch as its real
        # embedding, whose loss the kernel quarters where the reference
        # halves (both scalings exact).
        cfg = cfgs[0]
        w = np.stack([stack.layers for _, stack, _ in problems])
        sigma = np.stack([target.matrix for target, _, _ in problems])
        embedded = np.iscomplexobj(w)
        if embedded:
            w, sigma = _embed(w), _embed(sigma)
        out, history = [None] * len(cfgs), []
        with np.errstate(all="ignore"):
            for step in range(cfg.steps + 1):
                ev = _ref_evaluate(w, sigma, cfg.dyn)
                l_ori = 0.5 * ev[4] if embedded else ev[4]
                history.append(l_ori)
                ok = (_frobenius(w[..., : cfg.d, :]) <= lab.DIVERGENCE_GUARD).all(-1)
                cadence = step % 25 == 0 or step == cfg.steps
                for i in range(len(cfgs)):
                    if out[i] is not None:
                        continue
                    conv = not cfg.dyn.omit_l_ori and l_ori[i] < cfg.eps_conv
                    if not ok[i] and (conv or cadence):
                        out[i] = ("diverged", step, float("inf"))
                    elif conv or step == cfg.steps:
                        out[i] = ("converged" if conv else "exhausted", step, float(l_ori[i]))
                w = _ref_advance(ev, sigma, cfg.dyn)
                if embedded:
                    w = _embed(_unembed(w))
        return out, history

    @pytest.mark.parametrize("eps_conv", [1e-8, 1e-300, 5e-324, 1e3], ids=["1e-8", "1e-300", "subnormal", "met-at-0"])
    @pytest.mark.parametrize("regime", list(REGIMES))
    @pytest.mark.parametrize("integrator", ["gd", "flow_rk4"])
    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX], ids=lambda f: f.value)
    def test_outcomes_match_a_loop_that_finishes_every_step(
        self, monkeypatch, field, integrator, regime, eps_conv
    ):
        dyn = DynConfig(eta=0.15, step_h=0.15, integrator=integrator, **self.REGIMES[regime])
        base = tiny_cfg(
            d=5, field=field, init=InitScheme(kind="random", epsilon=0.55), dyn=dyn, steps=60,
            eps_conv=eps_conv,
        )
        cfgs = [replace(base, seed=s) for s in self.CRAFTED] + TestSweep._seed_cfgs(base, 6)
        prepare = lab.prepare_problem
        monkeypatch.setattr(
            lab,
            "prepare_problem",
            lambda c: self._crafted(c, *self.CRAFTED[c.seed]) if c.seed in self.CRAFTED else prepare(c),
        )
        want, history = self._reference(cfgs, [lab.prepare_problem(c) for c in cfgs])
        got = _run_chunk(cfgs)
        assert [(o.status, o.steps_run, o.final_l_ori.hex()) for o in got] == [
            (status, k, final.hex()) for status, k, final in want
        ]
        if eps_conv == 1e-8 and regime != "omit_l_ori":
            # "near" converges off the guard's cadence while "blow-up" is NaN.
            status, k, _ = want[2]
            assert status == "converged" and k % 25 and np.isnan(history[k][3])
            assert want[3][:2] == ("diverged", 25)
        if eps_conv == 5e-324 and regime != "omit_l_ori":
            assert want[0][:2] == ("converged", 0) and want[1][0] == "converged"

    @staticmethod
    def _per_step_trajectory(cfg, problem):
        # One problem's CSV lines and summary values under the run loop's
        # rules, with l_ori finished and tested on every step: the guard at
        # multiples of 25, record and last steps and where the run converges.
        target, stack, _ = problem
        traj = lab._Trajectory(cfg)
        traj.start(target)
        kernel = dynamics._kernel(stack.layers[None], target.matrix[None], cfg.dyn)
        errors = np.geterr()
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(cfg.steps + 1):
                l_ori = float(kernel.advance(1)[0, 0])
                conv = not cfg.dyn.omit_l_ori and l_ori < cfg.eps_conv
                ends = conv or step == cfg.steps
                record = ends or step % cfg.record_stride == 0
                if (record or step % 25 == 0) and not (kernel.kept_norms(1) <= lab.DIVERGENCE_GUARD).all():
                    with np.errstate(**errors):
                        traj.flush()
                    return traj.lines, ("diverged", step, float("inf"), float("inf"), float("inf"))
                if record:
                    with np.errstate(**errors):
                        traj.add(step, kernel, 0, l_ori, kernel.kept_l_reg(1)[0, 0], 0)
                if ends:
                    with np.errstate(**errors):
                        traj.flush()
                    status = "converged" if conv else "exhausted"
                    return traj.lines, (status, step, l_ori, traj.rec.l_reg, traj.rec.e_delta)

    @pytest.mark.parametrize("integrator", ["gd", "flow_rk4"])
    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX], ids=lambda f: f.value)
    def test_trajectories_match_a_loop_that_finishes_every_step(self, monkeypatch, tmp_path, field, integrator):
        # Two problems converge at different quiet steps of one block (no
        # guard or record step between them), beside one that blows up to
        # NaN and seeded ones.  Each converged one is replayed alone once.
        dyn = DynConfig(eta=0.15, step_h=0.15, integrator=integrator, reg_a=1.0)
        base = tiny_cfg(
            d=5, field=field, init=InitScheme(kind="random", epsilon=0.55), dyn=dyn, steps=60,
            record_stride=10, eps_conv=1e-8,
        )
        crafted = {1: ("near", 1e-3), 2: ("near", 1e-2), 3: ("blow-up", 1e5)}
        cfgs = [replace(base, seed=s, name=f"crafted{s}") for s in crafted]
        cfgs += [replace(c, name=f"seeded{i}") for i, c in enumerate(TestSweep._seed_cfgs(base, 3))]
        prepare = lab.prepare_problem
        monkeypatch.setattr(
            lab,
            "prepare_problem",
            lambda c: self._crafted(c, *crafted[c.seed]) if c.seed in crafted else prepare(c),
        )
        want = [self._per_step_trajectory(c, lab.prepare_problem(c)) for c in cfgs]
        (_, (_, k1, *_)), (_, (_, k2, *_)) = want[:2]
        assert want[0][1][0] == want[1][1][0] == "converged" and k1 != k2 and k1 // 10 == k2 // 10
        assert k1 % 10 and k2 % 10 and want[2][1][:2] == ("diverged", 10)
        layers = lab.prepare_problem(cfgs[2])[1].layers
        blow_up = dynamics._kernel(layers[None], np.eye(5)[None], dyn, block=min(k1, k2))
        with np.errstate(all="ignore"):
            blow_up.advance(min(k1, k2))
            assert np.isnan(blow_up.measure()[0])  # NaN in the history beside both convergences
        replays = []
        replay = dynamics._Kernel.replay
        monkeypatch.setattr(
            dynamics._Kernel,
            "replay",
            lambda kernel, row, r: replays.append(r + 1) or replay(kernel, row, r),
        )
        got = run_scenarios(cfgs, out_dir=tmp_path)
        off_cadence = [w for _, w in want if w[0] == "converged" and w[1] % 10 and w[1] % 25]
        assert len(replays) == len(off_cadence) >= 2
        for cfg, s, (lines, values) in zip(cfgs, got, want):
            assert (tmp_path / f"{cfg.name}.csv").read_text() == "\n".join(lines) + "\n"
            assert (s.status, s.steps_run, s.final_l_ori, s.final_l_reg, s.final_e_delta) == values

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX], ids=lambda f: f.value)
    def test_records_over_several_blocks_match_records_made_alone(self, tmp_path, field):
        # Every step recorded, 2 full blocks and a partial one through the
        # one block array a trajectory reuses: the CSV rows, and the records
        # and tracks kept from on_record, are those of each step alone.
        dyn = DynConfig(reg_a=1.0, step_h=0.05, integrator="flow_rk4")
        cfg = tiny_cfg(
            d=5, field=field, init=InitScheme(kind="random", epsilon=0.55), dyn=dyn,
            steps=2 * lab.RECORD_BLOCK + 22, record_stride=1,
        )
        kept = []
        summary = run_scenario(cfg, out_dir=tmp_path, on_record=lambda rec, track: kept.append((rec, track)))
        assert (summary.status, summary.steps_run) == ("exhausted", cfg.steps)
        target, stack, _ = prepare_problem(cfg)
        kernel = dynamics._kernel(stack.layers[None], target.matrix[None], dyn)
        want, track = [], None
        for step in range(cfg.steps + 1):
            l_ori = float(kernel.advance(1)[0, 0])
            layers = LayerStack(kernel.own_layers(0, kept=0))
            rec, track = record(step, lab._time_of(cfg, step), layers, l_ori, kernel.kept_l_reg(1)[0, 0], target, track)
            want.append((record_to_csv_row(rec, cfg.d), track))
        lines = (tmp_path / f"{cfg.name}.csv").read_text().splitlines()
        assert lines[-len(want) - 1].startswith("step,")
        assert lines[-len(want) :] == [row for row, _ in want]
        assert len(kept) == len(want)
        for (rec, got), (row, track) in zip(kept, want):
            assert record_to_csv_row(rec, cfg.d) == row
            assert all(getattr(got, k).tobytes() == getattr(track, k).tobytes() for k in ("u", "sigma_w", "v"))

    @pytest.mark.parametrize("integrator", ["gd", "flow_rk4"])
    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX], ids=lambda f: f.value)
    def test_a_run_past_the_guard_at_a_quiet_convergence_diverges(self, monkeypatch, tmp_path, field, integrator):
        # Identity layers toward a target with one off-diagonal entry: the
        # layers grow as the run converges.  With the guard bound between
        # the largest layer norm at step 0 and at the quiet step where the
        # run converges, the replay's guard retires it there as diverged,
        # unrecorded.
        dyn = DynConfig(eta=0.15, step_h=0.15, integrator=integrator)
        cfg = tiny_cfg(d=5, field=field, dyn=dyn, steps=60, eps_conv=1e-8)
        dtype = complex if field is FieldTag.COMPLEX else float
        target, layers = np.eye(5, dtype=dtype), np.stack([np.eye(5, dtype=dtype)] * cfg.n_layers)
        target[1, 2] = 1e-2
        problem = (TargetSpec(target), LayerStack(layers), 1.0)
        _, (status, k, *_) = self._per_step_trajectory(cfg, problem)
        assert status == "converged" and k % 10
        kernel = dynamics._kernel(layers[None], target[None], dyn, block=k)
        norms = [_frobenius(kernel.layers[..., :5, :]).max()]
        kernel.advance(k)
        norms.append(_frobenius(kernel.layers[..., :5, :]).max())
        assert norms[0] < norms[1]
        monkeypatch.setattr(lab, "DIVERGENCE_GUARD", sum(norms) / 2)
        monkeypatch.setattr(lab, "prepare_problem", lambda c: problem)
        lines, want = self._per_step_trajectory(cfg, problem)
        assert want[:2] == ("diverged", k)
        (s,) = run_scenarios([cfg], out_dir=tmp_path)
        assert (tmp_path / f"{cfg.name}.csv").read_text() == "\n".join(lines) + "\n"
        assert (s.status, s.steps_run, s.final_l_ori, s.final_l_reg, s.final_e_delta) == want

    @pytest.mark.parametrize("integrator", ["gd", "flow_rk4"])
    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX], ids=lambda f: f.value)
    def test_a_quiet_divergence_leaves_the_rest_of_the_batch_running(self, monkeypatch, tmp_path, field, integrator):
        # The growing run of the test above, beside seeded problems whose
        # small random layers stay within the guard: it is retired at its
        # quiet step as diverged while they run on to the budget.
        dyn = DynConfig(eta=0.15, step_h=0.15, integrator=integrator)
        base = tiny_cfg(d=5, field=field, dyn=dyn, steps=60, eps_conv=1e-8)
        dtype = complex if field is FieldTag.COMPLEX else float
        target, layers = np.eye(5, dtype=dtype), np.stack([np.eye(5, dtype=dtype)] * base.n_layers)
        target[1, 2] = 1e-2
        growing = (TargetSpec(target), LayerStack(layers), 1.0)
        _, (_, k, *_) = self._per_step_trajectory(base, growing)
        kernel = dynamics._kernel(layers[None], target[None], dyn, block=k)
        norms = [_frobenius(kernel.layers[..., :5, :]).max()]
        kernel.advance(k)
        norms.append(_frobenius(kernel.layers[..., :5, :]).max())
        monkeypatch.setattr(lab, "DIVERGENCE_GUARD", sum(norms) / 2)
        small = replace(base, init=InitScheme(kind="random", epsilon=0.1))
        cfgs = [replace(base, name="growing")]
        cfgs += [replace(c, name=f"seeded{i}") for i, c in enumerate(TestSweep._seed_cfgs(small, 3))]
        prepare = lab.prepare_problem
        monkeypatch.setattr(lab, "prepare_problem", lambda c: growing if c.name == "growing" else prepare(c))
        want = [self._per_step_trajectory(c, lab.prepare_problem(c)) for c in cfgs]
        assert k % 10 and want[0][1][:2] == ("diverged", k)
        assert [w[:2] for _, w in want[1:]] == [("exhausted", 60)] * 3
        got = run_scenarios(cfgs, out_dir=tmp_path)
        for cfg, s, (lines, values) in zip(cfgs, got, want):
            assert (tmp_path / f"{cfg.name}.csv").read_text() == "\n".join(lines) + "\n"
            assert (s.status, s.steps_run, s.final_l_ori, s.final_l_reg, s.final_e_delta) == values

    # Per record stride: the step at which a run converges on a kept record
    # round, and the step at which a run fails the guard on a record round,
    # neither a multiple of 25 where the stride has such record steps.
    SETTLE_STEPS = {1: (37, 13), 7: (35, 14), 25: (50, 25), 40: (40, 40)}

    @pytest.mark.parametrize("reg_a", [0.0, 1.0], ids=["plain", "regularized"])
    @pytest.mark.parametrize("integrator", ["gd", "flow_rk4"])
    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX], ids=lambda f: f.value)
    @pytest.mark.parametrize("stride", sorted(SETTLE_STEPS))
    def test_block_settle_matches_a_loop_that_settles_every_step(
        self, monkeypatch, tmp_path, stride, field, integrator, reg_a
    ):
        # Identity layers toward a target with one off-diagonal entry, over
        # a budget of 61 steps that ends mid-block.  With 1e-2 the run
        # converges at step k > 61; started from its own layers k - c steps
        # on it converges at step c, on a kept record round and at the quiet
        # step 38 (a record step at stride 1).  With 1.0 the layer norms grow
        # over the first 45 steps, above any the 1e-2 runs reach, and the
        # guard bound is set so that run fails it first at its record step.
        dyn = DynConfig(eta=0.01, step_h=0.01, integrator=integrator, reg_a=reg_a)
        cfg = tiny_cfg(d=5, field=field, dyn=dyn, steps=61, record_stride=stride, eps_conv=1e-8)
        dtype = complex if field is FieldTag.COMPLEX else float

        def crafted(size):
            target = np.eye(5, dtype=dtype)
            target[1, 2] = size
            return target, np.stack([np.eye(5, dtype=dtype)] * cfg.n_layers)

        def history(target, layers, steps):
            # l_ori, the largest layer norm and the layers on every step.
            kernel = dynamics._kernel(layers[None], target[None], dyn)
            out = []
            for _ in range(steps):
                l_ori = float(kernel.advance(1)[0, 0])
                out.append((l_ori, kernel.kept_norms(1).max(), kernel.own_layers(0, kept=0)))
            return out

        converging, growing = crafted(1e-2), crafted(1.0)
        steps = history(*converging, 120)
        k = next(t for t, (l_ori, _, _) in enumerate(steps) if l_ori < cfg.eps_conv)
        kept, diverging = self.SETTLE_STEPS[stride]
        norms = [n for _, n, _ in history(*growing, diverging + 1)]
        assert k > cfg.steps and max(n for _, n, _ in steps) < norms[1]
        assert norms[diverging] > max(norms[:diverging])
        monkeypatch.setattr(lab, "DIVERGENCE_GUARD", max(norms[:diverging]))
        problems = {
            "exhausted": converging,
            "kept": (converging[0], steps[k - kept][2]),
            "quiet": (converging[0], steps[k - 38][2]),
            "diverged": growing,
        }
        cfgs = [replace(cfg, name=name) for name in problems]
        monkeypatch.setattr(
            lab, "prepare_problem", lambda c: (TargetSpec(problems[c.name][0]), LayerStack(problems[c.name][1]), 1.0)
        )
        want = [self._per_step_trajectory(c, lab.prepare_problem(c)) for c in cfgs]
        assert [w[:2] for _, w in want] == [
            ("exhausted", 61), ("converged", kept), ("converged", 38), ("diverged", diverging)
        ]
        replays = []
        replay = dynamics._Kernel.replay
        monkeypatch.setattr(
            dynamics._Kernel,
            "replay",
            lambda kernel, row, r: replays.append(r + 1) or replay(kernel, row, r),
        )
        got = run_scenarios(cfgs, out_dir=tmp_path)
        # Only the quiet convergence is replayed, to its round in the block from step 25.
        assert replays == ([] if stride == 1 else [38 - 25 + 1])
        for c, s, (lines, values) in zip(cfgs, got, want):
            assert (tmp_path / f"{c.name}.csv").read_text() == "\n".join(lines) + "\n"
            assert (s.status, s.steps_run, s.final_l_ori, s.final_l_reg, s.final_e_delta) == values

    @pytest.mark.parametrize(
        "eps_conv, want", [(4e-9, ("exhausted", 60)), (6e-9, ("converged", 0))], ids=["above", "below"]
    )
    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX], ids=lambda f: f.value)
    def test_a_constant_l_ori_ends_by_its_side_of_eps_and_replays_nothing(self, monkeypatch, field, eps_conv, want):
        # A saddle with a constant misfit: W = diag(1, 1, 1, 1, 0) and target
        # diag(1, 1, 1, 1, 1e-4), so l_ori = 5e-9 on every step, above
        # eps_conv = 4e-9 and below 6e-9.  Either way the run ends on a kept
        # round, its last step or step 0, so nothing is replayed.
        base = tiny_cfg(d=5, field=field, dyn=DynConfig(eta=0.15, reg_a=1.0), steps=60, eps_conv=eps_conv)
        eye = np.eye(5)
        target, layers = eye.copy(), np.stack([eye] * base.n_layers)
        target[-1, -1], layers[:, -1, -1] = 1e-4, 0.0
        if field is FieldTag.COMPLEX:
            target, layers = target.astype(complex), layers.astype(complex)
        monkeypatch.setattr(lab, "prepare_problem", lambda c: (TargetSpec(target, True), LayerStack(layers), 0.0))
        replays = []
        replay = dynamics._Kernel.replay
        monkeypatch.setattr(
            dynamics._Kernel,
            "replay",
            lambda kernel, row, r: replays.append(r + 1) or replay(kernel, row, r),
        )
        (got,) = _run_chunk([base])
        assert (got.status, got.steps_run, got.final_l_ori) == (*want, 5e-9)
        assert replays == []

    def test_a_run_at_an_unstable_minimum_is_reported_converged(self, monkeypatch):
        # README's eta paragraph: the balanced minimum of diag(3.8, 1, 0.4)
        # at N = 4 has eta * lambda_max = 2.96 > 2 under eta = 0.1, so GD
        # leaves it, yet a run started 1e-9 from it is reported converged at
        # step 0.  `converged` only says l_ori < eps_conv at some step; this
        # pins that defect (ROADMAP item 9), it does not fix it.
        sigma = np.array([3.8, 1.0, 0.4])
        layers = np.stack([np.diag(sigma ** (1 / 4))] * 4)
        layers = layers + 1e-9 * np.random.default_rng(1).standard_normal(layers.shape)
        monkeypatch.setattr(lab, "prepare_problem", lambda c: (TargetSpec.diagonal(sigma), LayerStack(layers), 1.0))
        cfg = tiny_cfg(d=3, dyn=DynConfig(reg_a=0.0, eta=0.1), steps=200)
        at_rest = run_scenario(replace(cfg, eps_conv=1e-8))
        assert (at_rest.status, at_rest.steps_run) == ("converged", 0)
        assert at_rest.final_l_ori == pytest.approx(1.1457e-17, rel=1e-3)
        left = run_scenario(replace(cfg, eps_conv=1e-30))
        assert (left.status, left.steps_run) == ("exhausted", 200)
        assert left.final_l_ori == pytest.approx(0.2856, rel=1e-3) and round(left.final_l_ori, 2) == 0.29


class TestMaxWorkers:
    # The CPU set is faked; nothing here starts a process.
    @pytest.mark.parametrize("env, want", [("64", 2), ("2", 2), ("1", 1), ("0", 1), (None, 2)])
    def test_lab_threads_clamped_to_affinity(self, monkeypatch, env, want):
        monkeypatch.setattr(lab.os, "sched_getaffinity", lambda pid: {0, 1})
        if env is None:
            monkeypatch.delenv("LAB_THREADS", raising=False)
        else:
            monkeypatch.setenv("LAB_THREADS", env)
        assert lab._max_workers() == want

    def test_lab_threads_not_an_integer(self, monkeypatch):
        monkeypatch.setenv("LAB_THREADS", "many")
        with pytest.raises(ConfigError):
            lab._max_workers()


class TestGradcheckAndRmt:
    def test_gradcheck_passes(self):
        r = gradcheck(4, 4, FieldTag.COMPLEX, 1.0, seed=0)
        assert r.passed and r.max_rel_err < 1e-6
        # Python values, as the fields are annotated, not numpy scalars.
        assert type(r.max_rel_err) is float and type(r.passed) is bool

    @pytest.mark.parametrize("field", list(FieldTag))
    def test_gradcheck_matches_loop_reference(self, field):
        # The entry-by-entry loop of single-problem losses that the kernel
        # batches replace gives bitwise the same maximum error.
        d, n, a, seed = 3, 3, 1.0, 2
        rng = lab._substream(seed, 0)
        target = TargetSpec(gaussian_matrix(d, field, rng), reduced=False)
        stack = LayerStack([0.6 * gaussian_matrix(d, field, rng) for _ in range(n)])
        cfg = DynConfig(reg_a=a, eta=0.1)
        grads = gradient(stack, target, cfg)
        h, worst = 1e-6, 0.0
        for j, k, l in itertools.product(range(n), range(d), range(d)):
            for unit in (1.0, 1j) if field is FieldTag.COMPLEX else (1.0,):
                w = stack.layers.copy()
                w[j, k, l] += unit * h
                f_plus = loss(LayerStack(w), target, cfg)[2]
                w[j, k, l] -= 2 * unit * h
                fd = (f_plus - loss(LayerStack(w), target, cfg)[2]) / (2 * h)
                g = grads[j, k, l].real if unit == 1.0 else grads[j, k, l].imag
                worst = max(worst, abs(g - fd) / (1.0 + abs(g)))
        assert gradcheck(d, n, field, a, seed).max_rel_err == worst

    def test_gradcheck_d_guard(self):
        with pytest.raises(ConfigError):
            gradcheck(7, 4, FieldTag.REAL, 0.0, seed=0)

    def test_rmt_validate_writes_report(self, tmp_path):
        results = rmt_validate(seed=1, out_dir=tmp_path)
        assert (tmp_path / "rmt_report.csv").exists()
        assert (tmp_path / "cue_uniformity.csv").exists()
        assert (tmp_path / "cre_det1_density.csv").exists()
        report = open(tmp_path / "rmt_report.csv").read()
        assert report.startswith("test,statistic,rule,threshold,verdict,detail\n")
        assert len(results) == 6
        # Every verdict follows from its own row's statistic, rule and threshold.
        rules = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
        with open(tmp_path / "rmt_report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["test"] for row in rows] == [r.name for r in results]
        for row in rows:
            passed = rules[row["rule"]](float(row["statistic"]), float(row["threshold"]))
            assert row["verdict"] == ("pass" if passed else "FAIL"), row


class TestEmitPlots:
    def test_script_references_only_header_columns(self, tmp_path):
        s = run_scenario(tiny_cfg(), out_dir=tmp_path)
        script = emit_plots(s.csv_path)
        text = open(script).read()
        header = [
            ln for ln in open(s.csv_path).read().split("\n") if ln and not ln.startswith("#")
        ][0].split(",")
        static_cols = re.findall(r'data\["([a-z_0-9]+)"\]', text)
        assert static_cols and set(static_cols).issubset(header)
        m = re.search(r"for k in range\((\d+)\)", text)
        d = int(m.group(1))
        for k in range(d):
            assert f"sigma_w_{k}" in header and f"half_sum_sv_{k}" in header

    def test_script_is_executable_python(self, tmp_path):
        s = run_scenario(tiny_cfg(), out_dir=tmp_path)
        script = emit_plots(s.csv_path)
        compile(open(script).read(), str(script), "exec")

    def test_script_renders(self, tmp_path):
        pytest.importorskip("matplotlib")
        import subprocess
        import sys

        s = run_scenario(tiny_cfg(), out_dir=tmp_path)
        script = emit_plots(s.csv_path)
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "tiny.singular_values.png").exists()
        assert (tmp_path / "tiny.extremes.png").exists()
        assert (tmp_path / "tiny.main_term.png").exists()

    @pytest.mark.parametrize("script", [None, "scripts/plot.py"], ids=["beside-csv", "elsewhere"])
    def test_script_finds_its_files_from_its_own_directory(self, tmp_path, monkeypatch, script):
        # Emitted with paths relative to one directory, the script is run
        # from another, its own, on a stub matplotlib that notes the files
        # it saves.  It must read the CSV and name the PNGs beside it.
        monkeypatch.chdir(tmp_path)
        run_scenario(tiny_cfg(), out_dir="run")
        if script is not None:
            Path(script).parent.mkdir()
        script = emit_plots("run/tiny.csv", script)
        monkeypatch.chdir(script.parent)
        fig, ax = mock.MagicMock(), mock.MagicMock()
        plt = mock.MagicMock(rcParams={"axes.prop_cycle": mock.Mock(by_key=lambda: {"color": ["C0"]})})
        plt.subplots.return_value = (fig, ax)
        monkeypatch.setitem(sys.modules, "matplotlib", mock.MagicMock(pyplot=plt))
        monkeypatch.setitem(sys.modules, "matplotlib.pyplot", plt)
        ns = runpy.run_path(script.name)
        run = tmp_path.resolve() / "run"
        assert ns["CSV"].resolve() == run / "tiny.csv" and len(ns["step"]) == 6
        assert [c.args[0].resolve() for c in fig.savefig.call_args_list] == [
            run / f"tiny.{kind}.png" for kind in ("singular_values", "extremes", "main_term")
        ]

    def test_empty_csv_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("# meta\nstep,time\n")
        with pytest.raises(MalformedCSVError):
            emit_plots(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(MalformedCSVError):
            emit_plots(tmp_path / "nope.csv")


class TestCli:
    def test_import_leaves_scipy_stats_unloaded(self):
        # Only two RMT validators use scipy.stats, and importing it costs
        # more than all of factorlab, so they import it when they run.
        import subprocess
        import sys

        code = "import sys, factorlab, factorlab.cli; print('scipy.stats' in sys.modules)"
        src = str(Path(lab.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_leaves_the_process_pool_unloaded(self):
        # Only a sweep of several chunks uses a process pool, so it imports
        # the pool machinery; importing it costs 10-20 ms of CPU.
        import subprocess
        import sys

        code = "import sys, factorlab, factorlab.cli; print('concurrent.futures' in sys.modules)"
        src = str(Path(lab.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_gradcheck_command(self, capsys):
        rc = main(["gradcheck", "--d", "3", "--a", "0.5", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("[pass]") == 2

    def test_run_command(self, tmp_path, capsys):
        rc = main(
            [
                "run",
                "--preset",
                "fig-h3",
                "--field",
                "complex",
                "--steps",
                "100",
                "--seed",
                "4",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "fig-h3-complex.csv").exists()

    def test_run_preset_det_filter(self, tmp_path):
        rc = main(
            [
                "run",
                "--preset",
                "fig-h1",
                "--field",
                "real",
                "--det",
                "minus",
                "--steps",
                "50",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "fig-h1-real-detminus.csv").exists()
        assert not (tmp_path / "fig-h1-real-detplus.csv").exists()

    def test_sweep_command(self, tmp_path, capsys):
        rc = main(
            [
                "sweep",
                "--preset",
                "sweep",
                "--steps",
                "500",
                "--seeds",
                "3",
                "--seed",
                "2",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "sweep.csv").exists()

    def test_sweep_prints_no_fraction_for_an_empty_det_class(self, tmp_path, capsys):
        # Both seeds of this sweep start with det W < 0.
        argv = ["sweep", "--preset", "sweep", "--seeds", "2", "--steps", "5", "--out", str(tmp_path)]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "  det>0: 0/0 (fraction=n/a); det<0: 0/2 (fraction=0.000)"
        assert "nan" not in "\n".join(lines)
        rows = [r for r in (tmp_path / "sweep.csv").read_text().splitlines() if not r.startswith("#")]
        assert len(rows) == 3 and all(r.endswith(",-1.0") for r in rows[1:])

    def test_sweep_report(self, tmp_path, capsys):
        # The report lines, the path line aside, of two sweeps at the budgets given.
        config = tmp_path / "short.cfg"
        config.write_text("epsilon = 0.3\nsteps = 3000\n")
        argv = ["sweep", "--preset", "fig-h1", "--seeds", "8", "--config", str(config), "--out", str(tmp_path)]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[:-1] == [
            "sweep(fig-h1-real, field=real): 3/8 converged, fraction=0.375",
            "  det>0: 3/3 (fraction=1.000); det<0: 0/5 (fraction=0.000)",
            "sweep(fig-h1-complex, field=complex): 8/8 converged, fraction=1.000",
        ]
        argv = ["sweep", "--preset", "sweep", "--seeds", "12", "--steps", "3000", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[:-1] == [
            "sweep(sweep, field=real): 5/12 converged, fraction=0.417",
            "  det>0: 3/6 (fraction=0.500); det<0: 2/6 (fraction=0.333)",
        ]

    def test_sweep_preset_family(self, tmp_path, capsys):
        # Without --det the real variants are one sweep with the det sign
        # left to the seed, beside the complex variant.
        argv = ["sweep", "--preset", "fig-h1", "--steps", "20", "--seeds", "6", "--out", str(tmp_path)]

        def rows():
            lines = (tmp_path / "sweep.csv").read_text().splitlines()
            return [r.split(",") for r in lines if not r.startswith("#")]

        assert main(argv) == 0
        assert rows()[0][:2] == ["name", "seed"]
        assert [r[0] for r in rows()[1:]] == ["fig-h1-real"] * 6 + ["fig-h1-complex"] * 6
        assert {r[-1] for r in rows()[1:7]} == {"1.0", "-1.0"}
        assert main(argv + ["--det", "minus", "--field", "real"]) == 0
        assert {(r[0], r[-1]) for r in rows()[1:]} == {("fig-h1-real-detminus", "-1.0")}
        # A det key read from --config applies; only the --det flag narrows.
        cfg = tmp_path / "det.cfg"
        cfg.write_text("det = minus\n")
        assert main(argv + ["--field", "real", "--config", str(cfg)]) == 0
        assert {(r[0], r[-1]) for r in rows()[1:]} == {("fig-h1-real", "-1.0")}

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_det_sets_the_sign_of_a_preset_without_det_variants(self, tmp_path, command):
        argv = [command, "--preset", "sweep", "--det", "plus", "--steps", "20", "--out", str(tmp_path)]
        assert main(argv + (["--seeds", "6"] if command == "sweep" else [])) == 0
        if command == "sweep":
            lines = (tmp_path / "sweep.csv").read_text().splitlines()
            dets = [r.split(",")[-1] for r in lines if not r.startswith("#")][1:]
        else:
            lines = (tmp_path / "sweep.summary.txt").read_text().splitlines()
            dets = [ln.split(" = ")[1] for ln in lines if ln.startswith("det_w0 = ")]
        assert "# det = plus" in lines or "det = plus" in lines
        assert dets and set(dets) == {"1.0"}

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_field_sets_the_field_of_a_preset_without_field_variants(self, tmp_path, command):
        argv = [command, "--preset", "sweep", "--field", "complex", "--steps", "20", "--out", str(tmp_path)]
        assert main(argv + (["--seeds", "2"] if command == "sweep" else [])) == 0
        if command == "sweep":
            lines = (tmp_path / "sweep.csv").read_text().splitlines()
            dets = [r.split(",")[-1] for r in lines if not r.startswith("#")][1:]
        else:
            lines = (tmp_path / "sweep.summary.txt").read_text().splitlines()
            dets = [ln.split(" = ")[1] for ln in lines if ln.startswith("det_w0 = ")]
        assert "# field = complex" in lines or "field = complex" in lines
        # Every det W(0) is a complex phase.
        assert dets and all(d.endswith("j)") and abs(abs(complex(d)) - 1) < 1e-12 for d in dets)

    @pytest.mark.parametrize("command, det", [("run", "plus"), ("sweep", "minus")], ids=["run", "sweep"])
    def test_field_applies_before_det(self, tmp_path, command, det):
        # --field makes the sweep preset complex first, so --det finds no real
        # config to give its sign to.
        argv = [command, "--preset", "sweep", "--field", "complex", "--det", det, "--steps", "20"]
        argv += ["--out", str(tmp_path)] + (["--seeds", "2"] if command == "sweep" else [])
        assert main(argv) == 0
        if command == "sweep":
            lines = (tmp_path / "sweep.csv").read_text().splitlines()
            dets = [r.split(",")[-1] for r in lines if not r.startswith("#")][1:]
        else:
            lines = (tmp_path / "sweep.summary.txt").read_text().splitlines()
            dets = [ln.split(" = ")[1] for ln in lines if ln.startswith("det_w0 = ")]
        assert "# field = complex" in lines or "field = complex" in lines
        assert dets and all(d.endswith("j)") and abs(abs(complex(d)) - 1) < 1e-12 for d in dets)

    def test_sweep_csv_quotes_a_name_with_a_comma(self, tmp_path, capsys):
        # run accepts the name, so every sweep.csv row keeps it in one cell.
        cfg = tmp_path / "c.cfg"
        cfg.write_text("name = a,b\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--seeds", "2", "--steps", "20", "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            table = list(csv.reader(ln for ln in fh if not ln.startswith("#")))
        header = ["name", "seed", "status", "converged", "steps_run", "final_l_ori", "det_w0"]
        assert table[0] == header == list(lab.SWEEP_CSV_COLUMNS)
        assert [row[0] for row in table[1:]] == ["a,b", "a,b"]
        assert all(len(row) == len(header) for row in table)

    def test_sweep_csv_echoes_each_base(self, tmp_path, capsys):
        argv = ["sweep", "--preset", "fig-h1", "--steps", "20", "--seeds", "3", "--out", str(tmp_path)]
        assert main(argv) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "# factorlab sweep, seeds = 3"
        header = [ln for ln in lines if ln.startswith("#")]
        complex_at = header.index("# [base fig-h1-complex]")
        assert header[1] == "# [base fig-h1-real]"
        # The complex base's block, "# " stripped, is a config file for it.
        block = tmp_path / "complex.cfg"
        block.write_text("\n".join(ln[2:] for ln in header[complex_at + 1 :]) + "\n")
        want = replace(preset("fig-h1")[2], steps=20)
        assert build_config(parse_config_file(block)) == want

    def test_run_rejects_shared_output_name(self, tmp_path, capsys):
        # A config file naming every variant alike: three runs, one set of files.
        p = tmp_path / "x.cfg"
        p.write_text("name = x\n")
        out = tmp_path / "out"
        argv = ["run", "--preset", "fig-h1", "--config", str(p), "--steps", "5", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "'x'" in err
        assert not out.exists()

    def test_sweep_rejects_shared_base_name(self, tmp_path, capsys):
        p = tmp_path / "x.cfg"
        p.write_text("name = x\n")
        out = tmp_path / "out"
        argv = ["sweep", "--preset", "fig-h1", "--config", str(p), "--steps", "5", "--seeds", "2",
                "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "config error" in captured.err and "sweep(" not in captured.out
        assert not out.exists()

    def test_plots_command(self, tmp_path):
        s = run_scenario(tiny_cfg(), out_dir=tmp_path)
        rc = main(["plots", s.csv_path])
        assert rc == 0

    def test_plots_refuses_a_csv_without_a_column_its_script_reads(self, tmp_path, capsys):
        # Two sigma_w columns, so the script would read sigma_w_0 and sigma_w_1.
        bad = tmp_path / "gap.csv"
        header = "step,time,l_ori,sig_max,sig_min,main_sv_min,sigma_w_0,sigma_w_2,half_sum_sv_0,half_sum_sv_1"
        bad.write_text("# factorlab trajectory, name = gap\n" + header + "\n" + ",".join(["1.0"] * 10) + "\n")
        assert main(["plots", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("malformed CSV: ") and "missing documented trajectory columns" in err
        assert [p.name for p in tmp_path.iterdir()] == ["gap.csv"]

    @pytest.mark.parametrize(
        "case", ["csv-directory", "csv-not-utf8", "script-directory", "script-missing-dir", "script-is-csv"]
    )
    def test_plots_bad_path_is_one_line(self, tmp_path, capsys, case):
        # A path the command cannot read or write, or the CSV itself as the
        # script, exits 1 with one line, not a traceback, and the CSV stays.
        message = "malformed CSV: " if case.startswith("csv") else "config error: "
        s = run_scenario(tiny_cfg(), out_dir=tmp_path / "run")
        capsys.readouterr()
        argv = ["plots", str(s.csv_path)]
        if case == "csv-directory":
            argv[1] = str(tmp_path)
        elif case == "csv-not-utf8":
            bad = tmp_path / "bad.csv"
            bad.write_bytes(Path(s.csv_path).read_bytes().replace(b"step", b"st\xffep", 1))
            argv[1] = str(bad)
        elif case == "script-directory":
            argv += ["--script", str(tmp_path)]
        elif case == "script-is-csv":
            argv += ["--script", str(tmp_path / "run" / ".." / "run" / "tiny.csv")]
        else:
            argv += ["--script", str(tmp_path / "missing" / "plot.py")]
        kept = Path(s.csv_path).read_bytes()
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(message) and err.count("\n") == 1
        assert Path(s.csv_path).read_bytes() == kept

    @pytest.mark.parametrize("argv, command", [(["run"], "_cmd_run"), (["gradcheck"], "_cmd_gradcheck")])
    def test_out_of_memory_is_one_line(self, capsys, monkeypatch, argv, command):
        # As numpy reports an allocation it cannot make, such as the chain
        # buffer of `run` at d = 1000000 or of `gradcheck --n-layers 100000`;
        # the command raises without allocating.
        def too_large(args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)")

        monkeypatch.setattr(cli, command, too_large)
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("out of memory: Unable to allocate") and err.count("\n") == 1

    def test_config_not_utf8_is_a_config_error(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_bytes(b"steps = 5\nname = caf\xe9\n")
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1 and "UTF-8" in err
        assert list(tmp_path.iterdir()) == [p]

    def test_usage_error_exit_code(self, capsys):
        # argparse's own exit code 2 would read as "diverged"
        assert main(["run", "--preset", "nope"]) == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "config error" in err and "invalid choice" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--seed", "-1", "--steps", "5"],
            ["sweep", "--preset", "sweep", "--seed", "-1", "--seeds", "2", "--steps", "5"],
            ["sweep", "--preset", "sweep", "--seeds", "0", "--steps", "5"],
            ["run", "--config", "missing.cfg"],
            ["gradcheck", "--a", "-1"],
            ["gradcheck", "--d", "0"],
            ["rmt-validate", "--d", "0"],
        ],
        ids=[
            "negative-seed", "sweep-negative-seed", "sweep-zero-seeds", "missing-config", "negative-a", "zero-d",
            "rmt-zero-d",
        ],
    )
    def test_bad_input_exit_code(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert "config error" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_bad_lab_threads_is_refused_before_the_out_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("LAB_THREADS", "abc")
        assert main(["sweep", "--preset", "sweep", "--seeds", "2", "--steps", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: LAB_THREADS") and err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "seeds, env, want",
        [
            ("0", None, "n_seeds must be at least 1"),
            ("2", "abc", "LAB_THREADS must be an integer, got 'abc'"),
        ],
        ids=["zero-seeds", "bad-lab-threads"],
    )
    def test_rejected_sweep_leaves_no_nested_out_dir(self, tmp_path, capsys, monkeypatch, seeds, env, want):
        # The sweep is refused inside make_out_dir, which removes the
        # directories it made.
        monkeypatch.chdir(tmp_path)
        if env is None:
            monkeypatch.delenv("LAB_THREADS", raising=False)
        else:
            monkeypatch.setenv("LAB_THREADS", env)
        assert main(["sweep", "--preset", "sweep", "--seeds", seeds, "--out", "a/b/c"]) == 1
        assert capsys.readouterr().err == f"config error: {want}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize(
        "argv, work",
        [
            (["run", "--steps", "5"], "_run_chunk"),
            (["sweep", "--preset", "sweep", "--steps", "5", "--seeds", "2"], "_run_chunk"),
            (["rmt-validate"], "validate_cue_uniformity"),
        ],
        ids=["run", "sweep", "rmt-validate"],
    )
    def test_out_of_memory_leaves_no_out_dir(self, tmp_path, capsys, monkeypatch, argv, work, existing):
        # The work fails as an allocation would, before anything is written:
        # the directories the command made go, one that existed stays.
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)")

        monkeypatch.setattr(lab, work, too_large)
        out = tmp_path / "made" / "out"
        if existing:
            out.mkdir(parents=True)
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("out of memory: Unable to allocate") and err.count("\n") == 1
        if existing:
            assert out.is_dir() and not any(out.iterdir())
        else:
            assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("beneath", [False, True], ids=["file", "beneath-file"])
    @pytest.mark.parametrize(
        "argv, work",
        [
            (["run", "--steps", "5"], "_run_chunk"),
            (["sweep", "--preset", "sweep", "--steps", "5", "--seeds", "2"], "_run_chunk"),
            (["rmt-validate"], "validate_cue_uniformity"),
        ],
        ids=["run", "sweep", "rmt-validate"],
    )
    def test_bad_out_is_a_config_error(self, tmp_path, capsys, monkeypatch, argv, work, beneath):
        # An --out that cannot be a directory is refused before any work.
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the output directory was made")

        monkeypatch.setattr(lab, work, no_work)
        blocker = tmp_path / "file"
        blocker.write_text("x\n")
        out = blocker / "sub" if beneath else blocker
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "output directory" in err and "Traceback" not in err
        assert blocker.read_text() == "x\n"

    @pytest.mark.parametrize(
        "argv, blocked",
        [
            (["run", "--steps", "5"], "run.csv"),
            (["run", "--steps", "5"], "run.summary.txt"),
            (["sweep", "--preset", "sweep", "--steps", "5", "--seeds", "2"], "sweep.csv"),
        ],
        ids=["run-csv", "run-summary", "sweep"],
    )
    def test_out_file_that_is_a_directory_is_a_config_error(
        self, tmp_path, capsys, monkeypatch, argv, blocked
    ):
        # An output file that is an existing directory is refused before any stepping.
        def no_work(*args, **kwargs):
            raise AssertionError("stepping started before the output files were checked")

        monkeypatch.setattr(lab, "_run_chunk", no_work)
        (tmp_path / blocked).mkdir()
        assert main(argv + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "is a directory" in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == [blocked]

    @pytest.mark.parametrize("blocked", ["rmt_report.csv", "cue_uniformity.csv", "cre_det1_density.csv"])
    def test_rmt_file_that_is_a_directory_is_a_config_error(self, tmp_path, capsys, monkeypatch, blocked):
        # Every file the battery writes is checked before any validator runs.
        def no_work(*args, **kwargs):
            raise AssertionError("a validator ran before the output files were checked")

        validators = [name for name in vars(lab) if name.startswith("validate_")]
        assert len(validators) == 6
        for name in validators:
            monkeypatch.setattr(lab, name, no_work)
        (tmp_path / blocked).mkdir()
        assert main(["rmt-validate", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "is a directory" in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == [blocked]

    @pytest.mark.parametrize("fails", [False, True])
    def test_rmt_validate_verdicts_and_exit_code(self, capsys, monkeypatch, fails):
        # Canned results: the second check fails when its statistic is 0.3.
        second = 0.3 if fails else 0.5
        results = [
            ValidatorResult("first", 0.1, "<=", 0.2, "one"),
            ValidatorResult("second", second, ">=", 0.4, "two"),
        ]
        monkeypatch.setattr(cli, "rmt_validate", lambda **kw: results)
        assert main(["rmt-validate"]) == (3 if fails else 0)
        assert capsys.readouterr().out.splitlines() == [
            "[pass] first: 0.1 <= 0.2 (one)",
            f"[{'FAIL' if fails else 'pass'}] second: {second} >= 0.4 (two)",
        ]

    def test_config_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("steps = 0\n")
        rc = main(["run", "--config", str(p)])
        assert rc == 1

    @pytest.mark.parametrize(
        "line",
        [
            "d = five",
            "init = foo",
            "eta = -1",
            "reg_a = nan",
            "eta = nan",
            "epsilon = inf",
            "sigma1 = -1",
            "s_phases = 1,1",
            "g_singular_values = 1,1",
            "g_singular_values = nan,1,1,1,1",
            "omit_l_ori = maybe",
            "name = ../x",
        ],
    )
    def test_bad_config_value_exit_code(self, tmp_path, capsys, line):
        p = tmp_path / "bad.cfg"
        p.write_text(line + "\nsteps = 5\n")
        # --out sits two levels down, so a name that escapes it still lands
        # inside tmp_path, where the last assert sees it.
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "a" / "b")]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [p]

    def test_diverged_exit_code(self, tmp_path):
        p = tmp_path / "div.cfg"
        p.write_text(
            "init = random\nepsilon = 1.0\neta = 10.0\nreg_a = 0.0\nsteps = 2000\nd = 4\n"
        )
        rc = main(["run", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize(
        "init", ["epsilon = 1e80", "init = random\nepsilon = 1e160"], ids=["balanced", "random"]
    )
    def test_a_start_whose_product_overflows_diverges_at_step_0(self, tmp_path, capsys, command, init):
        # The layers are finite, so the start is no config error; their
        # product is not, so the guard ends the run at step 0 with det_w0 nan.
        p = tmp_path / "big.cfg"
        p.write_text(init + "\nsteps = 30\n")
        out = tmp_path / "out"
        argv = [command, "--config", str(p), "--out", str(out)] + (["--seeds", "2"] if command == "sweep" else [])
        rc = main(argv)
        err = capsys.readouterr().err
        assert err == ""
        if command == "run":
            assert rc == 2
            summary = (out / "run.summary.txt").read_text().splitlines()
            assert {"status = diverged", "steps_run = 0", "det_w0 = nan"} <= set(summary)
        else:
            assert rc == 0
            with open(out / "sweep.csv", newline="") as fh:
                rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
            assert len(rows) == 2
            assert all((r["status"], r["steps_run"], r["det_w0"]) == ("diverged", "0", "nan") for r in rows)

    def test_a_det_sign_of_an_overflowing_start_is_a_config_error(self, tmp_path, capsys):
        p = tmp_path / "big.cfg"
        p.write_text("epsilon = 1e80\ndet = plus\nsteps = 30\n")
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "config error: initial product is not finite\n"
        assert list(tmp_path.iterdir()) == [p]

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_a_preset_run_echoes_the_seed_it_is_given(self, tmp_path, source):
        # --seed and a config file's seed are one override of the preset's seed.
        argv = ["run", "--preset", "fig-h1", "--steps", "5", "--out", str(tmp_path / "out")]
        if source == "flag":
            argv += ["--seed", "7"]
        else:
            (tmp_path / "seed.cfg").write_text("seed = 7\n")
            argv += ["--config", str(tmp_path / "seed.cfg")]
        assert main(argv) == 0
        paths = sorted((tmp_path / "out").glob("*.csv"))
        assert len(paths) == 3
        for path in paths:
            assert "# seed = 7" in path.read_text().splitlines()
