"""Experiment driver: scenario presets, seed sweeps, validators, CSV emission.

A :class:`RunConfig` fully describes one trajectory (field, dimensions,
target, initialization, dynamics, budgets, seed).  Identical configs produce
byte-identical trajectory CSVs: all randomness flows from the config seed
through named Philox substreams, and floats are serialized with shortest
round-trip ``repr``.

CSV dialect: ``#``-prefixed metadata lines (config echo and PRNG
identification), one header row, comma-separated data rows; absent monitor
values (tripped guards) are empty fields.
"""

from __future__ import annotations

import os
import time as _time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path

import numpy as np

from .dynamics import (
    DynConfig,
    LayerStack,
    TargetSpec,
    _advance,
    _evaluate,
    _frobenius,
    gradient,
    loss,
    product,
    reduce_target,
)
# Not called here: the benchmark's tracer wraps the steppers under these names.
from .dynamics import flow_step_rk4, gd_step  # noqa: F401
from .ensembles import (
    PRNG_NAME,
    InitScheme,
    ValidatorResult,
    balanced_init,
    gaussian_matrix,
    random_init,
    validate_cre_density,
    validate_cue_uniformity,
    validate_det_minus_zero_mode,
    validate_haar_invariance,
    validate_haar_sigma_min_quantile,
    validate_product_det_sign,
)
from .errors import ConfigError, MalformedCSVError
from .linalg import FieldTag, det_sign_or_phase
from .monitors import SvdTrack, balance_errors, csv_columns, record, record_to_csv_row

__all__ = [
    "RunConfig",
    "RunSummary",
    "SweepResult",
    "GradCheckReport",
    "DIVERGENCE_GUARD",
    "PRESET_NAMES",
    "preset",
    "run_scenario",
    "sweep_convergence",
    "rmt_validate",
    "gradcheck",
    "emit_plots",
    "parse_config_file",
    "build_config",
]

DIVERGENCE_GUARD = 1e12
# Largest seed batch a sweep steps together: per seed-step cost levels off
# well before this, and it bounds a worker's memory.
MAX_SWEEP_BATCH = 256


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Full description of one experiment run."""

    name: str = "run"
    field: FieldTag = FieldTag.REAL
    d: int = 5
    n_layers: int = 4
    target_kind: str = "identity"  # identity | diag | random
    sigma1: float = 1.0
    diag: tuple[float, ...] | None = None
    init: InitScheme = dc_field(default_factory=InitScheme)
    dyn: DynConfig = dc_field(default_factory=DynConfig)
    det_sign: int | None = None  # +1 / -1 target for det(U^T V) (real balanced init)
    steps: int = 200_000
    record_stride: int = 100
    seed: int = 2024
    eps_conv: float = 1e-8

    def validate(self) -> None:
        if self.d < 1:
            raise ConfigError("d must be positive")
        if self.n_layers < 2:
            raise ConfigError("n_layers must be at least 2")
        if self.steps < 1 or self.record_stride < 1:
            raise ConfigError("steps and record_stride must be at least 1")
        if self.eps_conv <= 0:
            raise ConfigError("eps_conv must be positive")
        if self.target_kind not in ("identity", "diag", "random"):
            raise ConfigError(f"unknown target kind {self.target_kind!r}")
        if self.target_kind == "diag":
            if self.diag is None or len(self.diag) != self.d:
                raise ConfigError("diag target needs exactly d values")
            if any(v < 0 for v in self.diag):
                raise ConfigError("diag target values must be non-negative")
        if self.det_sign is not None:
            if self.det_sign not in (+1, -1):
                raise ConfigError("det_sign must be +1 or -1")
            if self.field is not FieldTag.REAL:
                raise ConfigError("det_sign selection only applies to the real field")
            if self.init.kind == "balanced" and self.d % 2 == 0:
                raise ConfigError("det_sign via s_N requires odd dimension")

    def echo(self) -> list[str]:
        """Flat key=value lines, the config echo written to every output header."""
        items = {
            "name": self.name,
            "field": self.field.value,
            "d": self.d,
            "n_layers": self.n_layers,
            "target": self.target_kind,
            "sigma1": self.sigma1,
            "diag": "" if self.diag is None else ",".join(repr(v) for v in self.diag),
            "init": self.init.kind,
            "epsilon": self.init.epsilon,
            "s_phases": ""
            if self.init.s_phases is None
            else ",".join(repr(s) for s in self.init.s_phases),
            "g_singular_values": ""
            if self.init.g_singular_values is None
            else ",".join(repr(v) for v in self.init.g_singular_values),
            "det": "" if self.det_sign is None else ("plus" if self.det_sign > 0 else "minus"),
            "integrator": self.dyn.integrator,
            "reg_a": self.dyn.reg_a,
            "eta": self.dyn.eta,
            "step_h": self.dyn.step_h,
            "omit_l_ori": str(self.dyn.omit_l_ori).lower(),
            "steps": self.steps,
            "record_stride": self.record_stride,
            "seed": self.seed,
            "eps_conv": self.eps_conv,
        }
        return [f"{k} = {v}" for k, v in items.items()]


PRESET_NAMES = ("fig-h1", "fig-h2", "fig-h3", "sweep")

_PINNED_PRODUCT_SV = (1.0, 0.8, 0.6, 0.5, 0.9)
_NONIDENTITY_DIAG = (2.00, 1.55, 1.10, 0.65, 0.20)


def preset(name: str, seed: int = 2024) -> list[RunConfig]:
    """Named experiment presets; fig-h1/h2/h3 expand to their three variants."""
    if name == "fig-h1" or name == "fig-h2":
        base = RunConfig(
            name=name,
            field=FieldTag.REAL,
            d=5,
            n_layers=4,
            target_kind="identity" if name == "fig-h1" else "diag",
            sigma1=1.0,
            diag=None if name == "fig-h1" else _NONIDENTITY_DIAG,
            init=InitScheme(
                kind="balanced", epsilon=0.05, g_singular_values=_PINNED_PRODUCT_SV
            ),
            dyn=DynConfig(reg_a=0.0, eta=0.1, integrator="gd"),
            steps=200_000,
            record_stride=100,
            seed=seed,
        )
        return [
            replace(base, name=f"{name}-real-detplus", det_sign=+1),
            replace(base, name=f"{name}-real-detminus", det_sign=-1),
            replace(base, name=f"{name}-complex", field=FieldTag.COMPLEX),
        ]
    if name == "fig-h3":
        base = RunConfig(
            name=name,
            field=FieldTag.REAL,
            d=5,
            n_layers=4,
            target_kind="identity",
            sigma1=1.0,
            init=InitScheme(kind="random", epsilon=1.0),
            dyn=DynConfig(reg_a=1.0, eta=0.001, integrator="gd", omit_l_ori=True),
            steps=20_000,
            record_stride=10,
            seed=seed,
        )
        return [
            replace(base, name="fig-h3-real-detplus", det_sign=+1),
            replace(base, name="fig-h3-real-detminus", det_sign=-1),
            replace(base, name="fig-h3-complex", field=FieldTag.COMPLEX),
        ]
    if name == "sweep":
        # Base config for convergence-probability sweeps over random init.
        return [
            RunConfig(
                name="sweep",
                field=FieldTag.REAL,
                d=5,
                n_layers=4,
                target_kind="identity",
                sigma1=1.0,
                init=InitScheme(kind="random", epsilon=0.15),
                dyn=DynConfig(reg_a=1.0, eta=0.05, integrator="gd"),
                steps=150_000,
                record_stride=1000,
                seed=seed,
            )
        ]
    raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")


# ---------------------------------------------------------------------------
# Problem construction
# ---------------------------------------------------------------------------


def _substream(seed: int, index: int) -> np.random.Generator:
    """Deterministic named substream of a run seed; rebuildable at will."""
    child = np.random.SeedSequence(seed).spawn(index + 1)[index]
    return np.random.Generator(np.random.Philox(child))


def _build_target(cfg: RunConfig) -> tuple[TargetSpec, np.ndarray | None]:
    """Target from the config; random targets come back unreduced."""
    if cfg.target_kind == "identity":
        return TargetSpec.identity(cfg.d, cfg.sigma1), None
    if cfg.target_kind == "diag":
        return TargetSpec.diagonal(cfg.diag), None
    sigma = gaussian_matrix(cfg.d, cfg.field, _substream(cfg.seed, 0))
    return TargetSpec(sigma, reduced=False), sigma


def _build_stack(cfg: RunConfig) -> LayerStack:
    """Initial stack; for balanced real init, s_N is chosen to hit det_sign.

    det(U^T V) of the initial product equals s^d * det(Q_N) det(Q_0); for odd
    d flipping s_N flips it, so one rebuild from the identical substream
    selects the requested sign deterministically.
    """
    if cfg.init.kind == "balanced":
        stack = balanced_init(cfg.d, cfg.n_layers, cfg.init, cfg.field, _substream(cfg.seed, 1))
        if cfg.det_sign is not None:
            got = det_sign_or_phase(product(stack))
            if got == 0.0:
                raise ConfigError("initial product is numerically singular")
            if got != cfg.det_sign:
                phases = [1.0] * cfg.n_layers
                phases[-1] = -1.0
                flipped = replace(cfg.init, s_phases=tuple(phases))
                stack = balanced_init(
                    cfg.d, cfg.n_layers, flipped, cfg.field, _substream(cfg.seed, 1)
                )
        return stack

    stack = random_init(cfg.d, cfg.n_layers, cfg.init, cfg.field, _substream(cfg.seed, 1))
    if cfg.det_sign is not None:
        # Random init cannot steer the determinant; scan forward for a seed
        # whose initial product has the requested sign.
        probe = cfg.seed
        for _ in range(1000):
            if det_sign_or_phase(product(stack)) == cfg.det_sign:
                return stack
            probe += 1
            stack = random_init(
                cfg.d, cfg.n_layers, cfg.init, cfg.field, _substream(probe, 1)
            )
        raise ConfigError("could not find a seed with the requested det sign")
    return stack


def prepare_problem(cfg: RunConfig) -> tuple[TargetSpec, LayerStack, float | complex]:
    """Target (reduced), initial stack, and det indicator of the initial product."""
    cfg.validate()
    target, sigma_general = _build_target(cfg)
    stack = _build_stack(cfg)
    if not target.reduced:
        target, stack = reduce_target(sigma_general, stack)
    det_w0 = det_sign_or_phase(product(stack))
    return target, stack, det_w0


# ---------------------------------------------------------------------------
# Trajectory execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunSummary:
    name: str
    status: str  # converged | exhausted | diverged
    steps_run: int
    converged_step: int | None
    final_l_ori: float
    final_l_reg: float
    final_e_delta: float
    det_w0: float | complex
    wall_time_s: float
    csv_path: str | None


def _bounded(w: np.ndarray) -> np.ndarray:
    """Per problem in a ``(..., N, d, d)`` layer array: every layer norm within the guard.

    A NaN or Inf entry makes its layer norm NaN or Inf, which fails the test.
    """
    return np.all(_frobenius(w) <= DIVERGENCE_GUARD, axis=-1)


def _time_of(cfg: RunConfig, step: int) -> float:
    dt = cfg.dyn.eta if cfg.dyn.integrator == "gd" else cfg.dyn.step_h
    return step * dt


def run_scenario(
    cfg: RunConfig,
    out_dir: str | Path | None = None,
    on_record=None,
) -> RunSummary:
    """Execute one configured trajectory, recording monitors every stride.

    Writes ``<out_dir>/<name>.csv`` when ``out_dir`` is given.  ``on_record``
    (record, track) is invoked at every recorded step, which is how the test
    suites observe per-step monitor state.  Terminates early when
    ``l_ori < eps_conv`` or when any layer norm exceeds the divergence guard.
    """
    t0 = _time.perf_counter()
    target, stack, det_w0 = prepare_problem(cfg)
    sigma = target.matrix
    w = np.stack(stack.layers)

    lines: list[str] = [f"# factorlab trajectory, name = {cfg.name}"]
    lines += [f"# {item}" for item in cfg.echo()]
    lines.append(f"# prng = {PRNG_NAME}")
    if cfg.target_kind == "random":
        diag = ",".join(repr(float(v)) for v in np.diagonal(target.matrix).real)
        lines.append(f"# reduced_target_diag = {diag}")
    lines.append(",".join(csv_columns(cfg.d)))

    track: SvdTrack | None = None
    status = "exhausted"
    converged_step: int | None = None
    last_recorded = -1
    step = 0

    def _record(step_: int) -> None:
        nonlocal track, last_recorded
        rec, track = record(
            step_, _time_of(cfg, step_), LayerStack(tuple(w)), target, cfg.dyn, track
        )
        lines.append(record_to_csv_row(rec, cfg.d))
        last_recorded = step_
        if on_record is not None:
            on_record(rec, track)

    for step in range(cfg.steps + 1):
        if step % cfg.record_stride == 0:
            _record(step)
        ev = _evaluate(w, sigma, cfg.dyn)
        l_ori, l_reg = float(ev.l_ori), float(ev.l_reg)
        if l_ori < cfg.eps_conv and not cfg.dyn.omit_l_ori:
            status = "converged"
            converged_step = step
            break
        if step == cfg.steps:
            break
        w = _advance(ev, sigma, cfg.dyn, cfg.dyn.integrator)
        if not _bounded(w):
            status = "diverged"
            step += 1
            break

    if status == "diverged":
        l_ori = l_reg = e_delta = float("inf")
    else:
        if last_recorded != step:
            _record(step)
        _, e_delta = balance_errors(LayerStack(tuple(w)))

    csv_path = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = str(out / f"{cfg.name}.csv")
        with open(csv_path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    wall = _time.perf_counter() - t0
    summary = RunSummary(
        name=cfg.name,
        status=status,
        steps_run=step,
        converged_step=converged_step,
        final_l_ori=l_ori,
        final_l_reg=l_reg,
        final_e_delta=e_delta,
        det_w0=det_w0,
        wall_time_s=wall,
        csv_path=csv_path,
    )
    if out_dir is not None:
        _write_summary(Path(out_dir) / f"{cfg.name}.summary.txt", cfg, summary)
    return summary


def _write_summary(path: Path, cfg: RunConfig, s: RunSummary) -> None:
    rows = [
        f"name = {s.name}",
        f"status = {s.status}",
        f"steps_run = {s.steps_run}",
        f"converged_step = {s.converged_step}",
        f"final_l_ori = {s.final_l_ori!r}",
        f"final_l_reg = {s.final_l_reg!r}",
        f"final_e_delta = {s.final_e_delta!r}",
        f"det_w0 = {s.det_w0!r}",
        f"wall_time_s = {s.wall_time_s:.3f}",
        f"prng = {PRNG_NAME}",
        "",
        "[config]",
    ] + cfg.echo()
    path.write_text("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# Seed sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeedOutcome:
    seed: int
    status: str
    converged: bool
    steps_run: int
    final_l_ori: float
    det_w0: float | complex


@dataclass(frozen=True)
class SweepResult:
    n_seeds: int
    n_converged: int
    fraction: float
    outcomes: tuple[SeedOutcome, ...]
    n_det_plus: int
    n_det_plus_converged: int
    n_det_minus: int
    n_det_minus_converged: int

    @property
    def fraction_det_plus(self) -> float:
        return self.n_det_plus_converged / self.n_det_plus if self.n_det_plus else float("nan")

    @property
    def fraction_det_minus(self) -> float:
        return (
            self.n_det_minus_converged / self.n_det_minus if self.n_det_minus else float("nan")
        )


def _sweep_seeds(base_seed: int, n: int) -> list[int]:
    children = np.random.SeedSequence(base_seed).spawn(n)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def _run_chunk(cfgs: list[RunConfig]) -> list[SeedOutcome]:
    """Monitor-free trajectories of several seeds of one config, stepped together.

    ``cfgs`` differ only in seed and name.  The layers of all seeds are one
    ``(B, N, d, d)`` array advanced by the dynamics kernel with either
    integrator; a seed leaves the batch when it converges (``l_ori <
    eps_conv``, checked every step) or diverges (non-finite layer or layer
    norm above the guard, checked every 25 steps).  The kernel acts on each
    seed's matrices alone, so a seed's outcome is bitwise independent of the
    batch it runs in.
    """
    cfg = cfgs[0]
    problems = [prepare_problem(c) for c in cfgs]
    w = np.stack([np.stack(stack.layers) for _, stack, _ in problems])
    sigma = np.stack([target.matrix for target, _, _ in problems])
    active = np.arange(len(cfgs))  # batch row -> index into cfgs
    outcomes: list[SeedOutcome | None] = [None] * len(cfgs)

    def retire(mask: np.ndarray, status: str, steps_run: int, l_ori: np.ndarray) -> np.ndarray:
        for i, lo in zip(active[mask], l_ori[mask]):
            det_w0 = problems[i][2]
            outcomes[i] = SeedOutcome(
                cfgs[i].seed, status, status == "converged", steps_run, float(lo), det_w0
            )
        return ~mask

    # A diverging seed overflows for up to 25 steps before the guard retires
    # it; that is a documented outcome, not a fault.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.steps + 1):
            ev = _evaluate(w, sigma, cfg.dyn)
            if not cfg.dyn.omit_l_ori:
                done = ev.l_ori < cfg.eps_conv
                if done.any():
                    keep = retire(done, "converged", step, ev.l_ori)
                    active, w, sigma = active[keep], w[keep], sigma[keep]
                    if not len(active):
                        break
                    ev = _evaluate(w, sigma, cfg.dyn)
            if step == cfg.steps:
                retire(np.ones(len(active), bool), "exhausted", step, ev.l_ori)
                break
            w = _advance(ev, sigma, cfg.dyn, cfg.dyn.integrator)
            if step % 25 == 0:
                bad = ~_bounded(w)
                if bad.any():
                    keep = retire(bad, "diverged", step + 1, np.full(len(w), np.inf))
                    active, w, sigma = active[keep], w[keep], sigma[keep]
                    if not len(active):
                        break
    return outcomes


def _max_workers() -> int:
    env = os.environ.get("LAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"LAB_THREADS must be an integer, got {env!r}") from None
    return max(1, os.cpu_count() or 1)


def sweep_convergence(
    base_cfg: RunConfig,
    n_seeds: int,
    workers: int | None = None,
) -> SweepResult:
    """Independent seeded runs of ``base_cfg``; counts final ``l_ori < eps_conv``.

    Seeds are spawned deterministically from ``base_cfg.seed`` and split, in
    seed order, into chunks of an even share per worker, at most
    ``MAX_SWEEP_BATCH``.  Each chunk is stepped as one batch; the process
    pool only spreads chunks over workers.  Results are merged in seed order
    and each seed's outcome is independent of the chunking, so the result
    does not depend on ``workers``.  For the
    real field the result is cross-tabulated by the sign of the initial
    product determinant.
    """
    if n_seeds < 1:
        raise ConfigError("n_seeds must be at least 1")
    cfgs = [
        replace(base_cfg, seed=s, name=f"{base_cfg.name}-seed{i}")
        for i, s in enumerate(_sweep_seeds(base_cfg.seed, n_seeds))
    ]
    workers = workers if workers is not None else _max_workers()
    workers = min(workers, n_seeds)
    batch_size = min(MAX_SWEEP_BATCH, -(-n_seeds // workers))
    chunks = [cfgs[i : i + batch_size] for i in range(0, n_seeds, batch_size)]
    if workers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as ex:
            results = list(ex.map(_run_chunk, chunks))
    else:
        results = [_run_chunk(c) for c in chunks]
    outcomes = [o for chunk in results for o in chunk]

    n_conv = sum(1 for o in outcomes if o.converged)
    # Determinant cross-tabulation is meaningful for the real field only.
    real_outcomes = [o for o in outcomes if isinstance(o.det_w0, float)]
    plus = [o for o in real_outcomes if o.det_w0 > 0]
    minus = [o for o in real_outcomes if o.det_w0 < 0]
    return SweepResult(
        n_seeds=n_seeds,
        n_converged=n_conv,
        fraction=n_conv / n_seeds,
        outcomes=tuple(outcomes),
        n_det_plus=len(plus),
        n_det_plus_converged=sum(1 for o in plus if o.converged),
        n_det_minus=len(minus),
        n_det_minus_converged=sum(1 for o in minus if o.converged),
    )


# ---------------------------------------------------------------------------
# RMT validation battery
# ---------------------------------------------------------------------------


def rmt_validate(
    d: int = 5,
    n_samples: int = 2000,
    seed: int = 0,
    cre_d: int = 6,
    cre_samples: int = 5000,
    product_samples: int = 10_000,
    quantile_samples: int = 5000,
    invariance_samples: int = 5000,
    det_minus_samples: int = 200,
    n_layers: int = 4,
    out_dir: str | Path | None = None,
) -> list[ValidatorResult]:
    """Run every ensemble validator; optionally write statistics CSVs.

    Defaults match the acceptance configuration: CUE uniformity at dimension
    ``d``, the det=1 circular-real density at ``cre_d``, the det-sign fraction
    of depth-``n_layers`` Gaussian products, the Haar sigma-min quantile
    bound, Haar left-invariance, and the det=-1 zero-mode check.
    """
    if n_samples < 100:
        raise ConfigError("n_samples must be at least 100")
    streams = [
        np.random.Generator(np.random.Philox(c))
        for c in np.random.SeedSequence(seed).spawn(6)
    ]
    results = [
        validate_cue_uniformity(d, n_samples, streams[0]),
        validate_cre_density(cre_d, cre_samples, streams[1]),
        validate_product_det_sign(d, n_layers, product_samples, streams[2]),
        validate_haar_sigma_min_quantile(d, quantile_samples, streams[3]),
        validate_haar_invariance(d, invariance_samples, streams[4]),
        validate_det_minus_zero_mode(d, det_minus_samples, streams[5]),
    ]
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        report = ["test,statistic,threshold,verdict,detail"]
        for r in results:
            verdict = "pass" if r.passed else "FAIL"
            report.append(f"{r.name},{r.statistic!r},{r.threshold!r},{verdict},{r.detail}")
            if r.histogram is not None:
                hist_lines = ["bin_lo,bin_hi,empirical,analytic"]
                hist_lines += [
                    ",".join(repr(float(x)) for x in row) for row in r.histogram
                ]
                slug = r.name.split("(")[0]
                (out / f"{slug}.csv").write_text("\n".join(hist_lines) + "\n")
        (out / "rmt_report.csv").write_text("\n".join(report) + "\n")
    return results


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradCheckReport:
    field: FieldTag
    d: int
    n_layers: int
    reg_a: float
    max_rel_err: float
    passed: bool


def gradcheck(
    d: int, n_layers: int, field: FieldTag, a: float, seed: int, h: float = 1e-6
) -> GradCheckReport:
    """Central finite differences of the total loss on every component.

    Perturbs real and imaginary parts separately, compares against the
    analytic gradient with per-component error ``|g - fd| / (1 + |g|)``, and
    passes iff the maximum is below 1e-6.
    """
    if d > 6:
        raise ConfigError("gradcheck is limited to d <= 6")
    rng = _substream(seed, 0)
    sigma = gaussian_matrix(d, field, rng)
    target = TargetSpec(sigma, reduced=False)
    stack = LayerStack(tuple(0.6 * gaussian_matrix(d, field, rng) for _ in range(n_layers)))
    cfg = DynConfig(reg_a=a, eta=0.1, integrator="gd")

    grads = gradient(stack, target, cfg)

    def total(layers: list[np.ndarray]) -> float:
        return loss(LayerStack(tuple(layers)), target, cfg)[2]

    max_err = 0.0
    parts = (1.0, 1j) if field is FieldTag.COMPLEX else (1.0,)
    for j in range(n_layers):
        for k in range(d):
            for l in range(d):
                for unit in parts:
                    layers = [w.copy() for w in stack.layers]
                    layers[j][k, l] += unit * h
                    f_plus = total(layers)
                    layers[j][k, l] -= 2 * unit * h
                    f_minus = total(layers)
                    fd = (f_plus - f_minus) / (2 * h)
                    g = grads[j][k, l]
                    analytic = g.real if unit == 1.0 else g.imag
                    err = abs(analytic - fd) / (1.0 + abs(analytic))
                    max_err = max(max_err, err)
    return GradCheckReport(
        field=field,
        d=d,
        n_layers=n_layers,
        reg_a=a,
        max_rel_err=max_err,
        passed=max_err < 1e-6,
    )


# ---------------------------------------------------------------------------
# Plot-script emission
# ---------------------------------------------------------------------------

_PLOT_TEMPLATE = '''\
#!/usr/bin/env python3
"""Render trajectory plots from {csv_name}.

Generated file: reads the trajectory CSV next to it and writes PNGs.
Columns used: {used_columns}.
"""
import numpy as np
import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt

CSV = {csv_path!r}
data = np.genfromtxt(CSV, delimiter=",", names=True, comments="#")
step = np.atleast_1d(data["step"])


def safe_log10(x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.full(x.shape, np.nan)
    good = np.isfinite(x) & (x > 0)
    out[good] = np.log10(x[good])
    return out


# Paired singular-value curves: product-root sigma_w (solid) vs half-sum (dashed).
fig, ax = plt.subplots(figsize=(8, 5))
colors = plt.rcParams["axes.prop_cycle"].by_key()["color"]
for k in range({d}):
    c = colors[k % len(colors)]
    ax.plot(step, safe_log10(data[f"sigma_w_{{k}}"]), "-", color=c, label=f"sigma_w[{{k}}]")
    ax.plot(step, safe_log10(data[f"half_sum_sv_{{k}}"]), "--", color=c)
ax.set_xlabel("step")
ax.set_ylabel("log10 value")
ax.set_title("singular values of the product root (solid) and half-sum term (dashed)")
ax.legend(fontsize=7)
fig.tight_layout()
fig.savefig({singular_png!r}, dpi=150)

# Extreme layer singular values.
fig, ax = plt.subplots(figsize=(8, 5))
ax.plot(step, safe_log10(data["sig_max"]), label="sig_max")
ax.plot(step, safe_log10(data["sig_min"]), label="sig_min")
ax.set_xlabel("step")
ax.set_ylabel("log10 value")
ax.set_title("extreme singular values over all layers")
ax.legend()
fig.tight_layout()
fig.savefig({extremes_png!r}, dpi=150)

# Smallest singular value of the Hermitian main term.
fig, ax = plt.subplots(figsize=(8, 5))
ax.plot(step, safe_log10(data["main_sv_min"]), label="main_sv_min")
ax.set_xlabel("step")
ax.set_ylabel("log10 value")
ax.set_title("sigma_min of the Hermitian main term")
ax.legend()
fig.tight_layout()
fig.savefig({main_png!r}, dpi=150)
print("wrote", {singular_png!r}, {extremes_png!r}, {main_png!r})
'''


def emit_plots(csv_path: str | Path, script_path: str | Path | None = None) -> Path:
    """Write a standalone plotting script for a trajectory CSV.

    The script references only columns present in the CSV header.  Raises
    MalformedCSVError when the CSV lacks metadata, the documented header, or
    data rows.
    """
    csv_path = Path(csv_path)
    if not csv_path.exists():
        raise MalformedCSVError(f"no such CSV: {csv_path}")
    header = None
    n_rows = 0
    has_meta = False
    with open(csv_path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                has_meta = True
                continue
            if header is None:
                header = line.split(",")
            else:
                n_rows += 1
    if not has_meta or header is None or n_rows == 0:
        raise MalformedCSVError(f"{csv_path}: expected metadata, header and data rows")
    sigma_cols = [c for c in header if c.startswith("sigma_w_")]
    d = len(sigma_cols)
    required = {"step", "sig_max", "sig_min", "main_sv_min"}
    required |= {f"half_sum_sv_{k}" for k in range(d)}
    if not sigma_cols or not required.issubset(header):
        raise MalformedCSVError(f"{csv_path}: missing documented trajectory columns")

    base = csv_path.with_suffix("")
    script_path = Path(script_path) if script_path else csv_path.with_suffix(".plot.py")
    used = ["step", "sig_max", "sig_min", "main_sv_min"]
    used += [f"sigma_w_{k}" for k in range(d)] + [f"half_sum_sv_{k}" for k in range(d)]
    text = _PLOT_TEMPLATE.format(
        csv_name=csv_path.name,
        used_columns=", ".join(used),
        csv_path=str(csv_path),
        d=d,
        singular_png=str(base) + ".singular_values.png",
        extremes_png=str(base) + ".extremes.png",
        main_png=str(base) + ".main_term.png",
    )
    script_path.write_text(text)
    return script_path


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat ``key = value`` format; blank lines and ``#`` comments ignored."""
    out: dict[str, str] = {}
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value'")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def build_config(overrides: dict[str, str], base: RunConfig | None = None) -> RunConfig:
    """Apply flat key=value overrides (config file or CLI) onto a base config.

    Every value that fails to parse or validate raises ConfigError.
    """
    cfg = base if base is not None else RunConfig()
    init = cfg.init
    dyn = cfg.dyn
    fields: dict = {}
    for key, val in overrides.items():
        try:
            if key == "name":
                fields["name"] = val
            elif key == "field":
                fields["field"] = FieldTag.parse(val)
            elif key in ("d", "n_layers", "steps", "record_stride", "seed"):
                fields[key] = int(val)
            elif key == "target":
                fields["target_kind"] = val
            elif key == "sigma1":
                fields["sigma1"] = float(val)
            elif key == "diag":
                fields["diag"] = _parse_floats(val)
            elif key == "eps_conv":
                fields["eps_conv"] = float(val)
            elif key == "det":
                if val not in ("plus", "minus", ""):
                    raise ConfigError("det must be 'plus' or 'minus'")
                fields["det_sign"] = None if val == "" else (+1 if val == "plus" else -1)
            elif key == "init":
                init = replace(init, kind=val)
            elif key == "epsilon":
                init = replace(init, epsilon=float(val))
            elif key == "s_phases":
                init = replace(init, s_phases=tuple(complex(v) for v in val.split(",")))
            elif key == "g_singular_values":
                init = replace(init, g_singular_values=_parse_floats(val))
            elif key == "reg_a":
                dyn = replace(dyn, reg_a=float(val))
            elif key == "eta":
                dyn = replace(dyn, eta=float(val))
            elif key == "step_h":
                dyn = replace(dyn, step_h=float(val))
            elif key == "integrator":
                dyn = replace(dyn, integrator=val)
            elif key == "omit_l_ori":
                dyn = replace(dyn, omit_l_ori=val.lower() in ("1", "true", "yes"))
            else:
                raise ConfigError(f"unknown config key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"{key} = {val}: {exc}") from None
    return replace(cfg, init=init, dyn=dyn, **fields)
