"""Tests for the experiment driver and CLI."""

import re
from dataclasses import replace

import numpy as np
import pytest

from factorlab.cli import main
from factorlab.dynamics import DynConfig, product
from factorlab.ensembles import InitScheme
from factorlab.errors import ConfigError, MalformedCSVError
from factorlab.lab import (
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
    sweep_convergence,
)
from factorlab.linalg import FieldTag


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


class TestConfigFile:
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

    def test_random_target_reduced(self):
        cfg = tiny_cfg(target_kind="random")
        target, _, _ = prepare_problem(cfg)
        assert target.reduced
        diag = np.diagonal(target.matrix).real
        assert np.all(np.diff(diag) <= 1e-12) and np.all(diag >= 0)

    def test_random_init_det_scan(self):
        cfg = tiny_cfg(
            d=5,
            init=InitScheme(kind="random", epsilon=0.5),
            det_sign=-1,
        )
        _, stack, det0 = prepare_problem(cfg)
        assert det0 == -1.0


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


class TestSweep:
    def test_single_seed_fraction(self):
        base = tiny_cfg(steps=2000, eps_conv=1e-6, dyn=DynConfig(reg_a=0.0, eta=0.2))
        r = sweep_convergence(base, 1, workers=1)
        assert r.fraction in (0.0, 1.0)

    def test_deterministic_and_worker_independent(self):
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
    def test_batch_invariance(self, field, integrator, steps):
        # Converging, exhausted and diverging seeds in one sweep: each seed's
        # outcome must not depend on which other seeds share its batch.
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


class TestGradcheckAndRmt:
    def test_gradcheck_passes(self):
        r = gradcheck(4, 4, FieldTag.COMPLEX, 1.0, seed=0)
        assert r.passed and r.max_rel_err < 1e-6

    def test_gradcheck_d_guard(self):
        with pytest.raises(ConfigError):
            gradcheck(7, 4, FieldTag.REAL, 0.0, seed=0)

    def test_rmt_validate_writes_report(self, tmp_path):
        results = rmt_validate(
            d=4,
            n_samples=200,
            seed=1,
            cre_d=4,
            cre_samples=400,
            product_samples=500,
            quantile_samples=400,
            invariance_samples=300,
            det_minus_samples=50,
            out_dir=tmp_path,
        )
        assert (tmp_path / "rmt_report.csv").exists()
        assert (tmp_path / "cue_uniformity.csv").exists()
        report = open(tmp_path / "rmt_report.csv").read()
        assert report.startswith("test,statistic,threshold,verdict")
        assert len(results) == 6


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
            return [r.split(",") for r in (tmp_path / "sweep.csv").read_text().splitlines()]

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

    def test_plots_command(self, tmp_path):
        s = run_scenario(tiny_cfg(), out_dir=tmp_path)
        rc = main(["plots", s.csv_path])
        assert rc == 0

    def test_config_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("steps = 0\n")
        rc = main(["run", "--config", str(p)])
        assert rc == 1

    @pytest.mark.parametrize("line", ["d = five", "init = foo", "eta = -1"])
    def test_bad_config_value_exit_code(self, tmp_path, capsys, line):
        p = tmp_path / "bad.cfg"
        p.write_text(line + "\n")
        assert main(["run", "--config", str(p), "--out", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_diverged_exit_code(self, tmp_path):
        p = tmp_path / "div.cfg"
        p.write_text(
            "init = random\nepsilon = 1.0\neta = 10.0\nreg_a = 0.0\nsteps = 2000\nd = 4\n"
        )
        rc = main(["run", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
