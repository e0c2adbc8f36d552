"""Tests for the experiment driver and CLI."""

import cmath
import csv
import itertools
import operator
import os
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from factorlab import dynamics, lab
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
from factorlab.ensembles import InitScheme, gaussian_matrix
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
        cfg.validate()
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
        assert r.fraction in (0.0, 1.0)

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
        assert r1.fraction == r2.fraction
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

        monkeypatch.setattr(lab, "ProcessPoolExecutor", no_pool)
        assert sweep_convergence(base, 10, workers=2) == want

    def test_cross_tabulation_real(self):
        base = tiny_cfg(
            d=5,
            init=InitScheme(kind="random", epsilon=0.15),
            dyn=DynConfig(reg_a=1.0, eta=0.05),
            steps=100,
        )
        r = sweep_convergence(base, 8, workers=2)
        assert r.n_det_plus + r.n_det_minus == 8

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


class TestConvergenceCheck:
    """The run loop finishes ``l_ori`` only on guard and record steps and
    where the squared misfit norm comes near ``eps_conv``; its outcomes
    must be those of a loop that finishes ``l_ori`` on every step."""

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
                ok = lab._bounded(w[..., : cfg.d, :])
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

    @pytest.mark.parametrize("case", ["csv-directory", "csv-not-utf8", "script-directory", "script-missing-dir"])
    def test_plots_bad_path_is_one_line(self, tmp_path, capsys, case):
        # A path the command cannot read or write exits 1 with one line, not a traceback.
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
        else:
            argv += ["--script", str(tmp_path / "missing" / "plot.py")]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(message) and err.count("\n") == 1

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
            ["run", "--config", "missing.cfg"],
            ["gradcheck", "--a", "-1"],
            ["gradcheck", "--d", "0"],
            ["rmt-validate", "--d", "0"],
        ],
        ids=[
            "negative-seed", "sweep-negative-seed", "missing-config", "negative-a", "zero-d", "rmt-zero-d",
        ],
    )
    def test_bad_input_exit_code(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert "config error" in capsys.readouterr().err
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
