"""The four benchmark workloads: inputs, one timed round, output checks.

A workload object builds its configs and initial problems in ``setup()``
(timed as set-up), runs the same operations on every ``run_round()`` (the
timed phase) and checks a round's outputs in ``verify()``.  Operations are
trajectory runs or sweep seeds; each ends correct or counted as failed.
Sizes are the ``FULL`` table below, or ``SMOKE`` for the self-tests.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import calibrate
import checks
import reference
from factorlab import cli, lab
from factorlab.lab import RunConfig, preset
from factorlab.linalg import FieldTag
from factorlab.ensembles import InitScheme
from factorlab.dynamics import DynConfig

# The presets' and criterion 4's own base seed, which the CLI also uses by
# default.  Only flow-monitored takes its inputs from --seed: elsewhere the
# work itself (steps to convergence) has a heavy tail over seeds; see the
# README.
PRESET_SEED = 2024


@dataclass(frozen=True)
class Sizes:
    fig_steps: int  # step budget of the fig-h1 run (det<0 runs all of it)
    fig_epsilon: float | None  # init scale override; None keeps the preset's
    ref_rows: int  # leading CSV rows compared with the reference
    flow_steps: int  # RK4 steps per field
    bal_real: int  # real seeds of sweep-balanced
    bal_complex: int  # complex seeds of sweep-balanced
    bal_steps: int
    bal_epsilon: float | None
    rand_seeds: int
    rand_steps: int
    ref_seeds: int  # converged seeds per sweep re-run by the reference


FULL = Sizes(
    fig_steps=30_000, fig_epsilon=None, ref_rows=6, flow_steps=500,
    bal_real=20, bal_complex=10, bal_steps=35_000, bal_epsilon=None,
    rand_seeds=60, rand_steps=20_000, ref_seeds=2,
)
# Larger init scale so det>0 and complex runs converge within a tiny budget.
SMOKE = Sizes(
    fig_steps=1_500, fig_epsilon=0.3, ref_rows=3, flow_steps=20,
    bal_real=8, bal_complex=4, bal_steps=1_500, bal_epsilon=0.3,
    rand_seeds=6, rand_steps=300, ref_seeds=1,
)


def sweep_workers() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Timer:
    """Wall and CPU seconds of a ``with`` block, with the machine's speed.

    ``cpu_s`` leaves out the calibration ticks run meanwhile, and
    ``scale`` turns it into CPU seconds at the reference speed.
    """

    def __enter__(self):
        self._sampler = calibrate.Sampler().__enter__()
        self._t, self._c = time.perf_counter(), cpu_seconds()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self._t
        cpu_s = cpu_seconds() - self._c
        self._sampler.__exit__(*exc)
        self.cpu_s = cpu_s - self._sampler.kernel_s
        self.scale = self._sampler.scale
        return False


@dataclass
class Round:
    wall_s: float
    cpu_s: float  # without the calibration ticks
    scale: float  # calibrate.Sampler.scale over the round
    steps: int  # sum of steps_run over the round's operations
    output: object

    @property
    def scaled_cpu_s(self) -> float:
        return self.cpu_s * self.scale


class Workload:
    name = ""
    ops_per_round = 0

    def __init__(self, seed: int, sizes: Sizes, work_dir: Path) -> None:
        self.seed = seed
        self.sizes = sizes
        self.work_dir = work_dir
        self._ref_cache: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, single_worker: bool = False) -> Round:
        raise NotImplementedError

    def verify(self, rnd: Round) -> tuple[list[list[str]], list[str]]:
        """Per-operation problems, and workload-level problems."""
        raise NotImplementedError

    def _stack(self, problem) -> np.ndarray:
        _, stack, _ = problem
        return np.stack(stack.layers)


class FigH1Run(Workload):
    """`factorlab run --preset fig-h1`, through cli.main, with a step budget."""

    name = "fig-h1-run"
    ops_per_round = 3

    def _argv(self, out: Path) -> list[str]:
        argv = ["run", "--preset", "fig-h1", "--steps", str(self.sizes.fig_steps), "--out", str(out)]
        if self.sizes.fig_epsilon is not None:
            cfg = self.work_dir / "fig-h1.cfg"
            cfg.write_text(f"epsilon = {self.sizes.fig_epsilon}\n")
            argv += ["--config", str(cfg)]
        return argv

    def setup(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        over = {"steps": str(self.sizes.fig_steps)}
        if self.sizes.fig_epsilon is not None:
            over["epsilon"] = str(self.sizes.fig_epsilon)
        self.cfgs = [lab.build_config(over, base=c) for c in preset("fig-h1", seed=PRESET_SEED)]
        self.problems = [lab.prepare_problem(c) for c in self.cfgs]

    def run_round(self, single_worker: bool = False) -> Round:
        out = self.work_dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        argv = self._argv(out)
        with Timer() as t, contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        runs = {}
        steps = 0
        for cfg in self.cfgs:
            summ = out / f"{cfg.name}.summary.txt"
            csv = out / f"{cfg.name}.csv"
            s = checks.parse_summary(summ.read_text()) if summ.exists() else {}
            runs[cfg.name] = (s, csv.read_text() if csv.exists() else "")
            steps += int(s.get("steps_run", 0))
        return Round(t.wall_s, t.cpu_s, t.scale, steps, (rc, runs))

    def _reference(self, k: int, cfg: RunConfig, problem) -> np.ndarray:
        if k not in self._ref_cache:
            target = problem[0].matrix
            n = (self.sizes.ref_rows - 1) * cfg.record_stride
            self._ref_cache[k] = reference.l_ori_path(
                self._stack(problem), target, cfg.dyn.reg_a, n, cfg.record_stride, eta=cfg.dyn.eta
            )
        return self._ref_cache[k]

    def verify(self, rnd: Round):
        rc, runs = rnd.output
        per_op = []
        for k, (cfg, problem) in enumerate(zip(self.cfgs, self.problems)):
            s, text = runs[cfg.name]
            problems = [] if rc == 0 else [f"factorlab run exited {rc}"]
            if not s or not text:
                per_op.append(problems + ["no summary or CSV written"])
                continue
            header, cols = checks.parse_trajectory_csv(text)
            steps_run = int(s["steps_run"])
            final = float(s["final_l_ori"])
            problems += checks.trajectory_shape(header, cols, cfg.d, cfg.record_stride, steps_run)
            if problems:
                per_op.append(problems)
                continue
            if cfg.det_sign == -1:
                problems += checks.plateau_run(final, cols[f"half_sum_sv_{cfg.d - 1}"])
            else:
                problems += checks.converged_run(s["status"], final, cfg.eps_conv)
            problems += checks.reference_rows(cols["l_ori"], self._reference(k, cfg, problem))
            per_op.append(problems)
        return per_op, []


class FlowMonitored(Workload):
    """Criterion 2's RK4 flow suite on both fields, a CSV row every step."""

    name = "flow-monitored"
    ops_per_round = 2

    def setup(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.cfgs = [
            RunConfig(
                name=f"flow-{field.value}",
                field=field,
                d=5,
                n_layers=4,
                target_kind="identity",
                sigma1=1.0,
                init=InitScheme(kind="balanced", epsilon=0.05),
                dyn=DynConfig(reg_a=0.0, integrator="flow_rk4", step_h=1e-3),
                steps=self.sizes.flow_steps,
                record_stride=1,
                seed=self.seed,
                eps_conv=1e-300,
            )
            for field in (FieldTag.REAL, FieldTag.COMPLEX)
        ]
        self.problems = [lab.prepare_problem(c) for c in self.cfgs]

    def run_round(self, single_worker: bool = False) -> Round:
        out = self.work_dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        with Timer() as t:
            summaries = [lab.run_scenario(cfg, out_dir=out) for cfg in self.cfgs]
        texts = [Path(s.csv_path).read_text() for s in summaries]
        steps = sum(s.steps_run for s in summaries)
        return Round(t.wall_s, t.cpu_s, t.scale, steps, list(zip(summaries, texts)))

    def verify(self, rnd: Round):
        per_op = []
        for k, (cfg, problem, (summ, text)) in enumerate(zip(self.cfgs, self.problems, rnd.output)):
            header, cols = checks.parse_trajectory_csv(text)
            problems = checks.trajectory_shape(header, cols, cfg.d, 1, summ.steps_run)
            if summ.status != "exhausted" or summ.steps_run != cfg.steps:
                problems.append(f"expected {cfg.steps} steps, got {summ.status} after {summ.steps_run}")
            if problems:
                per_op.append(problems)
                continue
            problems += checks.flow_conservation(cols)
            if k not in self._ref_cache:
                self._ref_cache[k] = reference.l_ori_path(
                    self._stack(problem), problem[0].matrix, cfg.dyn.reg_a,
                    self.sizes.ref_rows - 1, 1, h=cfg.dyn.step_h,
                )
            problems += checks.reference_rows(cols["l_ori"], self._ref_cache[k])
            per_op.append(problems)
        return per_op, []


class _Sweep(Workload):
    """sweep_convergence over one or more base configs, seeds checked one by one."""

    balanced_real = False

    def bases(self) -> list[tuple[RunConfig, int]]:
        raise NotImplementedError

    def setup(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.sweeps = self.bases()
        # The seeds a sweep runs are spawned from its base seed, as the
        # README documents; the checks look problems up by outcome seed and
        # build any that this derivation missed.
        self.problems = {}
        for base, n in self.sweeps:
            for child in np.random.SeedSequence(base.seed).spawn(n):
                s = int(child.generate_state(1, np.uint64)[0])
                self.problems[(base.field, s)] = lab.prepare_problem(replace(base, seed=s))

    @property
    def ops_per_round(self) -> int:
        return sum(n for _, n in self.bases())

    def run_round(self, single_worker: bool = False) -> Round:
        workers = 1 if single_worker else sweep_workers()
        with Timer() as t:
            results = [lab.sweep_convergence(base, n, workers=workers) for base, n in self.sweeps]
        steps = sum(o.steps_run for r in results for o in r.outcomes)
        return Round(t.wall_s, t.cpu_s, t.scale, steps, results)

    def _problem(self, base: RunConfig, seed: int):
        key = (base.field, seed)
        if key not in self.problems:
            self.problems[key] = lab.prepare_problem(replace(base, seed=seed))
        return self.problems[key]

    def _reference_check(self, k: int, base: RunConfig, result) -> dict[int, list[str]]:
        """Reference GD on a few converged seeds picked by the benchmark seed.

        Picks among seeds converging by the median converged step, which
        bounds the reference's cost; results are cached, since every round
        runs the same seeds.
        """
        conv = [i for i, o in enumerate(result.outcomes) if o.converged]
        if not conv:
            return {}
        med = np.median([result.outcomes[i].steps_run for i in conv])
        pool = [i for i in conv if result.outcomes[i].steps_run <= med]
        rng = np.random.default_rng([self.seed, k])
        picked = sorted(rng.choice(pool, size=min(self.sizes.ref_seeds, len(pool)), replace=False))
        key = (base.field, tuple(result.outcomes[i].seed for i in picked))
        if key not in self._ref_cache:
            probs = [self._problem(base, result.outcomes[i].seed) for i in picked]
            stacks = np.stack([self._stack(p) for p in probs])
            targets = np.stack([p[0].matrix for p in probs])
            limit = max(result.outcomes[i].steps_run for i in picked)
            self._ref_cache[key] = reference.first_converged_step(
                stacks, targets, base.dyn.reg_a, base.dyn.eta, base.eps_conv,
                int(limit * (1 + checks.REF_STEP_TOL)) + 1,
            )
        firsts = self._ref_cache[key]
        return {
            i: checks.reference_convergence(result.outcomes[i].steps_run, int(f))
            for i, f in zip(picked, firsts)
        }

    def verify(self, rnd: Round):
        per_op = []
        for k, ((base, _), result) in enumerate(zip(self.sweeps, rnd.output)):
            ref = self._reference_check(k, base, result)
            for i, o in enumerate(result.outcomes):
                _, stack, _ = self._problem(base, o.seed)
                w0 = reference.product(np.stack(stack.layers))
                problems = checks.sweep_seed(
                    o.status, o.det_w0, w0, self.balanced_real and base.field is FieldTag.REAL
                )
                per_op.append(problems + ref.get(i, []))
        return per_op, self.aggregate(rnd.output)

    def aggregate(self, results) -> list[str]:
        return []


class SweepBalanced(_Sweep):
    """Criterion 4's family: fig-h1 with the det sign left to the seed."""

    name = "sweep-balanced"
    balanced_real = True

    def bases(self):
        base = replace(preset("fig-h1", seed=PRESET_SEED)[0], det_sign=None, steps=self.sizes.bal_steps)
        if self.sizes.bal_epsilon is not None:
            base = replace(base, init=replace(base.init, epsilon=self.sizes.bal_epsilon))
        return [
            (base, self.sizes.bal_real),
            (replace(base, field=FieldTag.COMPLEX), self.sizes.bal_complex),
        ]

    def aggregate(self, results) -> list[str]:
        real, cplx = results
        plus = [o for o in real.outcomes if o.det_w0 > 0]
        return checks.fraction_at_least(
            "det>0 conditional", sum(o.status == "converged" for o in plus), len(plus), 0.9
        ) + checks.fraction_at_least(
            "complex", sum(o.status == "converged" for o in cplx.outcomes), len(cplx.outcomes), 0.95
        )


class SweepRandom(_Sweep):
    """The `sweep` preset: independent Gaussian layers, a = 1, eta = 0.05."""

    name = "sweep-random"

    def bases(self):
        base = replace(preset("sweep", seed=PRESET_SEED)[0], steps=self.sizes.rand_steps)
        return [(base, self.sizes.rand_seeds)]


WORKLOADS = {w.name: w for w in (FigH1Run, FlowMonitored, SweepBalanced, SweepRandom)}
