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

import csv
import os
import time as _time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field, replace
from functools import partial, reduce
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .dynamics import (
    DynConfig,
    LayerStack,
    TargetSpec,
    _frobenius,
    _kernel,
    _unembed,
    gradient,
    product,
    reduce_target,
)
# Not called here: the benchmark's tracer wraps these under their names.
from .dynamics import flow_step_rk4, gd_step, loss  # noqa: F401
from .monitors import balance_errors  # noqa: F401
from .ensembles import (
    PRNG_NAME,
    InitScheme,
    ValidatorResult,
    _resolve_phases,
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
from .monitors import SvdTrack, TrajectoryRecord, csv_columns, record_to_csv_row, records
# Not called here: the benchmark's tracer wraps it under this name.
from .monitors import record  # noqa: F401

__all__ = [
    "RunConfig",
    "CONFIG_KEYS",
    "RunSummary",
    "SweepResult",
    "GradCheckReport",
    "DIVERGENCE_GUARD",
    "PRESET_NAMES",
    "preset",
    "run_scenario",
    "run_scenarios",
    "check_distinct_names",
    "make_out_dir",
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
# Fewest seeds a chunk of a split sweep holds.  A GD step's cost is mostly a
# fixed 28-50 us of numpy dispatch (one seed, regularizer off and on),
# against 1.6-5.7 us per seed in the batch (best of 5 runs of 1,500 steps
# at 1 to 128 seeds; 2 vCPUs, one BLAS thread), so each extra chunk adds one
# fixed cost per step and saves wall time only once a chunk's per-seed cost
# outweighs it, at about 10-20 seeds.  32 was set when that was 10-40.
MIN_SWEEP_CHUNK = 32
# Recorded steps a trajectory computes as one block of monitor records: the
# per-record cost levels off well before this, and it bounds the evaluations
# a trajectory holds.
RECORD_BLOCK = 64


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")


class ConfigKey(NamedTuple):
    """A config key's ``RunConfig`` attribute (dotted into ``init``/``dyn``), parser and echo."""

    attr: str
    parse: Callable[[str], object]
    fmt: Callable[[object], str] = str


def _optional_tuple(conv: Callable[[str], object]):
    """Comma-separated values; the empty value is unset (``None``)."""
    return (
        lambda text: None if text == "" else tuple(conv(v) for v in text.split(",")),
        lambda values: "" if values is None else ",".join(repr(v) for v in values),
    )


def _choice(spellings: dict[str, object]):
    """Enumerated values, spelled in any case; a value echoes as its first spelling."""
    echo = {value: text for text, value in reversed(spellings.items())}

    def parse(text: str):
        if text.lower() not in spellings:
            raise ValueError(f"expected one of {', '.join(map(repr, spellings))}")
        return spellings[text.lower()]

    return parse, echo.__getitem__


# The one list of config keys, in echo order: RunConfig.echo and build_config
# both read it, so every echo parses back to the config that wrote it.
CONFIG_KEYS: dict[str, ConfigKey] = {
    "name": ConfigKey("name", str),
    "field": ConfigKey("field", FieldTag.parse, lambda f: f.value),
    "d": ConfigKey("d", int),
    "n_layers": ConfigKey("n_layers", int),
    "target": ConfigKey("target_kind", str),
    "sigma1": ConfigKey("sigma1", float),
    "diag": ConfigKey("diag", *_optional_tuple(float)),
    "init": ConfigKey("init.kind", str),
    "epsilon": ConfigKey("init.epsilon", float),
    "s_phases": ConfigKey("init.s_phases", *_optional_tuple(complex)),
    "g_singular_values": ConfigKey("init.g_singular_values", *_optional_tuple(float)),
    "det": ConfigKey("det_sign", *_choice({"": None, "plus": +1, "minus": -1})),
    "integrator": ConfigKey("dyn.integrator", str),
    "reg_a": ConfigKey("dyn.reg_a", float),
    "eta": ConfigKey("dyn.eta", float),
    "step_h": ConfigKey("dyn.step_h", float),
    "omit_l_ori": ConfigKey("dyn.omit_l_ori", *_choice(
        {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}
    )),
    "steps": ConfigKey("steps", int),
    "record_stride": ConfigKey("record_stride", int),
    "seed": ConfigKey("seed", int),
    "eps_conv": ConfigKey("eps_conv", float),
}


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
    det_sign: int | None = None  # +1 / -1 target for the sign of det W(0) (real field)
    steps: int = 200_000
    record_stride: int = 100
    seed: int = 2024
    eps_conv: float = 1e-8

    def validate(self) -> None:
        """Raise ConfigError unless the config describes a runnable problem.

        The name names the output files, and its echo must parse back.
        """
        name = self.name
        if not name or name != name.strip() or not name.isprintable() or any(
            c in name for c in "/\\#"
        ):
            raise ConfigError(
                f"name must be non-empty, printable, without '/', '\\' or '#', "
                f"and without leading or trailing whitespace, got {name!r}"
            )
        _check_seed(self.seed)
        if self.d < 1:
            raise ConfigError("d must be positive")
        if self.n_layers < 2:
            raise ConfigError("n_layers must be at least 2")
        if self.steps < 1 or self.record_stride < 1:
            raise ConfigError("steps and record_stride must be at least 1")
        # The float tests are written so that NaN fails them.
        if not 0 < self.eps_conv < float("inf"):
            raise ConfigError(f"eps_conv must be finite and positive, got {self.eps_conv}")
        if not 0 <= self.sigma1 < float("inf"):
            raise ConfigError(f"sigma1 must be finite and non-negative, got {self.sigma1}")
        if self.target_kind not in ("identity", "diag", "random"):
            raise ConfigError(f"unknown target kind {self.target_kind!r}")
        if self.target_kind == "diag" and (self.diag is None or len(self.diag) != self.d):
            raise ConfigError("diag target needs exactly d values")
        if self.diag is not None and not all(0 <= v < float("inf") for v in self.diag):
            raise ConfigError("diag values must be finite and non-negative")
        g = self.init.g_singular_values
        if g is not None and len(g) != self.d:
            raise ConfigError(f"g_singular_values needs exactly d = {self.d} values, got {len(g)}")
        try:
            _resolve_phases(self.init, self.n_layers, self.field)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.det_sign is not None:
            if self.det_sign not in (+1, -1):
                raise ConfigError("det_sign must be +1 or -1")
            if self.field is not FieldTag.REAL:
                raise ConfigError("det_sign selection only applies to the real field")
            if self.init.kind == "balanced" and self.d % 2 == 0:
                raise ConfigError("det_sign for balanced init requires odd dimension")

    def echo(self) -> list[str]:
        """Flat key=value lines, the config echo written to every output header."""
        return [
            f"{key} = {k.fmt(reduce(getattr, k.attr.split('.'), self))}"
            for key, k in CONFIG_KEYS.items()
        ]


_PINNED_PRODUCT_SV = (1.0, 0.8, 0.6, 0.5, 0.9)
_NONIDENTITY_DIAG = (2.00, 1.55, 1.10, 0.65, 0.20)
_FIG_H1 = RunConfig(
    name="fig-h1",
    field=FieldTag.REAL,
    d=5,
    n_layers=4,
    target_kind="identity",
    sigma1=1.0,
    init=InitScheme(kind="balanced", epsilon=0.05, g_singular_values=_PINNED_PRODUCT_SV),
    dyn=DynConfig(reg_a=0.0, eta=0.1, integrator="gd"),
    steps=200_000,
    record_stride=100,
)
# Each preset's base config, seed aside; a fig-h family runs as three variants.
_PRESETS = {
    "fig-h1": _FIG_H1,
    "fig-h2": replace(_FIG_H1, name="fig-h2", target_kind="diag", diag=_NONIDENTITY_DIAG),
    "fig-h3": replace(
        _FIG_H1,
        name="fig-h3",
        init=InitScheme(kind="random", epsilon=1.0),
        dyn=DynConfig(reg_a=1.0, eta=0.001, integrator="gd", omit_l_ori=True),
        steps=20_000,
        record_stride=10,
    ),
    # Base config for convergence-probability sweeps over random init.
    "sweep": replace(
        _FIG_H1,
        name="sweep",
        init=InitScheme(kind="random", epsilon=0.15),
        dyn=DynConfig(reg_a=1.0, eta=0.05, integrator="gd"),
        steps=150_000,
        record_stride=1000,
    ),
}
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str, seed: int = 2024) -> list[RunConfig]:
    """Named experiment presets; fig-h1/h2/h3 expand to their three variants."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    base = replace(_PRESETS[name], seed=seed)
    if name == "sweep":
        return [base]
    return [
        replace(base, name=f"{name}-real-detplus", det_sign=+1),
        replace(base, name=f"{name}-real-detminus", det_sign=-1),
        replace(base, name=f"{name}-complex", field=FieldTag.COMPLEX),
    ]


# ---------------------------------------------------------------------------
# Problem construction
# ---------------------------------------------------------------------------


def _substream(seed: int, index: int) -> np.random.Generator:
    """Deterministic named substream of a run seed; rebuildable at will."""
    child = np.random.SeedSequence(seed).spawn(index + 1)[index]
    return np.random.Generator(np.random.Philox(child))


def _build_target(cfg: RunConfig) -> TargetSpec:
    """Target from the config; a random target comes back unreduced."""
    if cfg.target_kind == "identity":
        return TargetSpec.identity(cfg.d, cfg.sigma1)
    if cfg.target_kind == "diag":
        return TargetSpec.diagonal(cfg.diag)
    return TargetSpec(gaussian_matrix(cfg.d, cfg.field, _substream(cfg.seed, 0)), reduced=False)


def prepare_problem(cfg: RunConfig) -> tuple[TargetSpec, LayerStack, float | complex]:
    """Target (reduced), initial stack, and det indicator of the initial product.

    ``det_sign`` is the sign of the product the run starts from, after the
    target reduction, which multiplies ``det W`` by ``det(U_S^H V_S) = +-1``.
    Balanced init meets it by negating ``W_N``: that keeps the stack
    balanced and, for odd d, flips ``det W``, whatever ``s_phases`` the
    stack was built with.  Random init cannot steer the determinant, so it
    scans forward from the seed for a stack whose product has the sign.
    """
    cfg.validate()
    built = _build_target(cfg)
    balanced = cfg.init.kind == "balanced"
    init = balanced_init if balanced else random_init
    scan = 1 if balanced or cfg.det_sign is None else 1000
    for probe in range(cfg.seed, cfg.seed + scan):
        target = built
        stack = init(cfg.d, cfg.n_layers, cfg.init, cfg.field, _substream(probe, 1))
        if not target.reduced:
            target, stack = reduce_target(target.matrix, stack)
        det_w0 = det_sign_or_phase(product(stack))
        if cfg.det_sign is None or det_w0 == cfg.det_sign:
            return target, stack, det_w0
        if balanced:
            if det_w0 == 0.0:
                raise ConfigError("initial product is numerically singular")
            flipped = np.concatenate([stack.layers[:-1], -stack.layers[-1:]])
            return target, LayerStack(flipped), -det_w0
    raise ConfigError("could not find a seed with the requested det sign")


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
    """Per problem in a ``(..., N, m, n)`` layer array: every layer norm within the guard.

    A NaN or Inf entry makes its layer norm NaN or Inf, which fails the test.
    """
    return (_frobenius(w) <= DIVERGENCE_GUARD).all(axis=-1)


def _time_of(cfg: RunConfig, step: int) -> float:
    dt = cfg.dyn.eta if cfg.dyn.integrator == "gd" else cfg.dyn.step_h
    return step * dt


class _Trajectory:
    """One problem's records in a batched run: CSV lines, SVD track, last record.

    Recorded steps are buffered and computed ``RECORD_BLOCK`` at a time, and
    when the problem leaves the batch; ``on_record`` sees them in step order.
    """

    def __init__(self, cfg: RunConfig, on_record=None) -> None:
        self.cfg = cfg
        self.on_record = on_record
        self.target: TargetSpec | None = None
        self.lines: list[str] = []
        self.pending: list[tuple[int, np.ndarray, float, float]] = []
        self.rec: TrajectoryRecord | None = None
        self.track: SvdTrack | None = None

    def start(self, target: TargetSpec) -> None:
        """Take the prepared target and write the CSV header."""
        cfg = self.cfg
        self.target = target
        self.lines = [f"# factorlab trajectory, name = {cfg.name}"]
        self.lines += [f"# {item}" for item in cfg.echo()]
        self.lines.append(f"# prng = {PRNG_NAME}")
        if cfg.target_kind == "random":
            diag = ",".join(repr(float(v)) for v in np.diagonal(target.matrix).real)
            self.lines.append(f"# reduced_target_diag = {diag}")
        self.lines.append(",".join(csv_columns(cfg.d)))

    def add(self, step: int, w: np.ndarray, l_ori: float, l_reg: float) -> None:
        """Buffer a copy of the problem's layers at ``step``, as the kernel holds them, and its losses.

        The kernel reuses its buffers, so what a record reads is copied
        here.  A full buffer is recorded.
        """
        self.pending.append((step, w.copy(), float(l_ori), float(l_reg)))
        if len(self.pending) >= RECORD_BLOCK:
            self.flush()

    def flush(self) -> None:
        """Record the buffered steps as one block; embedded layers are unembedded once for it."""
        if not self.pending:
            return
        steps, ws, l_oris, l_regs = zip(*self.pending)
        self.pending = []
        w = np.stack(ws)
        if self.cfg.field is FieldTag.COMPLEX:
            w = _unembed(w)
        times = [_time_of(self.cfg, step) for step in steps]
        block = records(steps, times, w, l_oris, l_regs, self.target, self.track)
        for rec, track in block:
            self.lines.append(record_to_csv_row(rec, self.cfg.d))
            if self.on_record is not None:
                self.on_record(rec, track)
        self.rec, self.track = block[-1]


def run_scenarios(
    cfgs: list[RunConfig],
    out_dir: str | Path | None = None,
    on_record=None,
) -> list[RunSummary]:
    """Execute configured trajectories, recording monitors every stride.

    Configs that share field, ``d``, ``n_layers``, dynamics, ``steps``,
    ``record_stride`` and ``eps_conv`` step together as one ``_run_chunk``
    batch; each problem's records, CSV and summary are the ones it gets
    alone.  Writes ``<out_dir>/<name>.csv`` and ``<name>.summary.txt`` per
    config when ``out_dir`` is given, and then raises ConfigError before any
    stepping if two configs share a name, ``out_dir`` cannot be made a
    directory or one of these files is a directory (``make_out_dir``); a
    summary's ``wall_time_s`` is the wall time of the batch it ran in.
    ``on_record(i, record, track)`` is invoked for every recorded step of
    ``cfgs[i]``, in step order.

    A run ends when ``l_ori < eps_conv`` (unless ``omit_l_ori``), when its
    budget is spent, or when it fails the divergence guard.  The guard runs
    at step ``k`` whenever ``k`` is a multiple of 25, a record step or the
    last step of the run; a run that fails it is diverged with ``steps_run
    = k``, and its final losses are infinite.
    """
    for cfg in cfgs:
        cfg.validate()
    if out_dir is not None:
        check_distinct_names(cfgs, "their output files would overwrite each other")
        out_dir = make_out_dir(
            out_dir, [f"{c.name}{ext}" for c in cfgs for ext in (".csv", ".summary.txt")]
        )
    batches: dict[tuple, list[int]] = {}
    for i, c in enumerate(cfgs):
        key = (c.field, c.d, c.n_layers, c.dyn, c.steps, c.record_stride, c.eps_conv)
        batches.setdefault(key, []).append(i)
    summaries: list[RunSummary | None] = [None] * len(cfgs)
    for rows in batches.values():
        t0 = _time.perf_counter()
        trajs = [
            _Trajectory(cfgs[i], None if on_record is None else partial(on_record, i))
            for i in rows
        ]
        outcomes = _run_chunk([cfgs[i] for i in rows], trajs)
        csv_paths = [None] * len(rows)
        if out_dir is not None:
            for k, traj in enumerate(trajs):
                csv_paths[k] = str(out_dir / f"{traj.cfg.name}.csv")
                with open(csv_paths[k], "w", newline="\n") as fh:
                    fh.write("\n".join(traj.lines) + "\n")
        wall = _time.perf_counter() - t0
        for i, traj, o, csv_path in zip(rows, trajs, outcomes, csv_paths):
            # A run that did not diverge ends on a recorded step.
            diverged = o.status == "diverged"
            summaries[i] = RunSummary(
                name=cfgs[i].name,
                status=o.status,
                steps_run=o.steps_run,
                converged_step=o.steps_run if o.converged else None,
                final_l_ori=o.final_l_ori,
                final_l_reg=float("inf") if diverged else traj.rec.l_reg,
                final_e_delta=float("inf") if diverged else traj.rec.e_delta,
                det_w0=o.det_w0,
                wall_time_s=wall,
                csv_path=csv_path,
            )
            if out_dir is not None:
                _write_summary(out_dir / f"{cfgs[i].name}.summary.txt", cfgs[i], summaries[i])
    return summaries


def check_distinct_names(cfgs: list[RunConfig], why: str) -> None:
    """Raise ConfigError, saying ``why`` it matters, if two configs share a name."""
    names = [c.name for c in cfgs]
    shared = sorted({n for n in names if names.count(n) > 1})
    if shared:
        raise ConfigError(f"configs share the name {', '.join(map(repr, shared))}: {why}")


def make_out_dir(out_dir: str | Path, files: Iterable[str] = ()) -> Path:
    """Create the output directory ``out_dir`` and its parents where missing.

    Callers make it before any stepping and name the ``files`` they will
    write in it, so that a path that cannot be a directory (an existing
    file, or a path beneath one), or an output file that is an existing
    directory, is a ConfigError raised before the work, not an OSError
    after it.
    """
    path = Path(out_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        reason = exc.strerror or exc
        raise ConfigError(f"cannot make output directory {str(path)!r}: {reason}") from None
    for name in files:
        if (path / name).is_dir():
            raise ConfigError(f"cannot write output file {str(path / name)!r}: it is a directory")
    return path


def run_scenario(
    cfg: RunConfig,
    out_dir: str | Path | None = None,
    on_record=None,
) -> RunSummary:
    """Execute one configured trajectory: ``run_scenarios`` on a batch of one.

    ``on_record(record, track)`` is invoked at every recorded step, which is
    how the test suites observe per-step monitor state.  The divergence
    guard runs at step ``k`` whenever ``k`` is a multiple of 25, a record
    step or the last step of the run; a run that fails it is diverged with
    ``steps_run = k``.
    """
    callback = None if on_record is None else (lambda _, rec, track: on_record(rec, track))
    return run_scenarios([cfg], out_dir, callback)[0]


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


def _run_chunk(
    cfgs: list[RunConfig], trajectories: list[_Trajectory] | None = None
) -> list[SeedOutcome]:
    """Runs of several configs, stepped together.

    ``cfgs`` share field, ``d``, ``n_layers``, dynamics, ``steps``,
    ``record_stride`` and ``eps_conv``; name, seed, target and
    initialization may differ.  This is the one stepping loop: a sweep chunk runs without
    ``trajectories``, and trajectories run with one ``_Trajectory`` per
    config, which records its problem every ``record_stride`` steps and at
    the step its run ends.  It computes the records in blocks of up to
    ``RECORD_BLOCK`` steps, when a block fills and when the problem leaves
    the batch, under the caller's floating-point error state.  All
    problems step in place on one dynamics kernel (``dynamics._Kernel``)
    with either integrator, built once and rebuilt only when problems
    leave.  A problem leaves the batch when it converges (``l_ori <
    eps_conv``, checked every step), exhausts the budget, or diverges.
    Each step measures the squared misfit norms ``sq`` and finishes
    ``l_ori`` from them only on guard and record steps and where the
    smallest ``sq`` is below the kernel's ``sq_bound(eps_conv)``, which no
    ``sq`` of a converging problem reaches (see ``dynamics``); the test
    itself is always the exact ``l_ori < eps_conv``.  The smallest ``sq``
    is taken with ``np.fmin``, so the NaN of a diverging run that the guard
    has not yet retired hides no other problem's convergence.  ``l_reg``
    is computed on record steps only, where records read it.

    The kernel does real arithmetic only: complex problems are stepped as
    their real embeddings (see ``dynamics``), restored to the exact
    embedded form after every step, so a trajectory is bitwise the one
    ``gd_step`` or ``flow_step_rk4`` gives.  The convergence test and the
    outcome read the kernel's halved embedded ``l_ori``, which is the
    complex one.  A record copies the layers and the two losses, and
    unembeds the layers once per block.

    Divergence guard: ``_bounded`` runs on the evaluated layers at step
    ``k`` whenever ``k`` is a multiple of 25, a record step or the last step
    of the run; a problem that fails it is diverged with ``steps_run = k``
    and is not recorded there.  On an embedded layer it measures the top
    ``d`` rows ``[A, -B]``, whose norm has exactly the complex layer norm's
    terms, so the guard bound means the same in both fields.  Stepping
    ignores overflow meanwhile; recording does not.  The kernel acts on
    each problem's matrices alone, so a problem's outcome and records are
    bitwise independent of the batch it runs in.
    """
    cfg = cfgs[0]
    problems = [prepare_problem(c) for c in cfgs]
    if trajectories is not None:
        for traj, (target, _, _) in zip(trajectories, problems):
            traj.start(target)
    kernel = _kernel(
        np.stack([stack.layers for _, stack, _ in problems]),
        np.stack([target.matrix for target, _, _ in problems]),
        cfg.dyn,
    )
    active = np.arange(len(cfgs))  # batch row -> index into cfgs
    outcomes: list[SeedOutcome | None] = [None] * len(cfgs)
    measure_l_ori = not cfg.dyn.omit_l_ori
    # No squared misfit norm is below 0, so without l_ori nothing is near.
    near = kernel.sq_bound(cfg.eps_conv) if measure_l_ori else 0.0
    errors = np.geterr()

    def add_records(rows, leaving=()) -> None:
        l_reg = kernel.l_reg()
        with np.errstate(**errors):
            for i in rows:
                trajectories[active[i]].add(step, kernel.layers[i], l_ori[i], l_reg[i])
            for i in leaving:
                trajectories[active[i]].flush()

    # A diverging run overflows until the guard retires it; that is a
    # documented outcome, not a fault.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.steps + 1):
            sq = kernel.measure()
            last = step == cfg.steps
            record_step = trajectories is not None and step % cfg.record_stride == 0
            cadence = step % 25 == 0 or record_step or last
            if cadence or np.fmin.reduce(sq) < near:
                l_ori = kernel.finish()
                converging = measure_l_ori and np.logical_or.reduce(l_ori < cfg.eps_conv)
            else:
                converging = False
            if cadence or converging:
                ok = _bounded(kernel.layers[..., : cfg.d, :])
                if last or converging or not ok.all():
                    # Some runs end here; off the cadence only they are guarded.
                    converged = (l_ori < cfg.eps_conv) & measure_l_ori
                    bad = ~ok if cadence else ~ok & converged
                    converged &= ok
                    done = bad | converged | last
                    if trajectories is not None:
                        recorded = np.flatnonzero(~bad & (done | record_step))
                        add_records(recorded, leaving=np.flatnonzero(done))
                    for i in np.flatnonzero(done):
                        status = (
                            "diverged" if bad[i] else "converged" if converged[i] else "exhausted"
                        )
                        k = active[i]
                        final = float("inf") if bad[i] else float(l_ori[i])
                        outcomes[k] = SeedOutcome(
                            cfgs[k].seed, status, status == "converged", step, final, problems[k][2]
                        )
                    if done.all():
                        break
                    active, kernel = active[~done], kernel.take(~done)
                elif record_step:
                    add_records(range(len(active)))
            kernel.step()
    return outcomes


def _max_workers() -> int:
    """Sweep workers: ``LAB_THREADS`` if set, at most the CPUs this process may run on."""
    cpus = len(os.sched_getaffinity(0))
    env = os.environ.get("LAB_THREADS")
    if env:
        try:
            return max(1, min(int(env), cpus))
        except ValueError:
            raise ConfigError(f"LAB_THREADS must be an integer, got {env!r}") from None
    return cpus


def _sweep_chunks(items: list, workers: int) -> list[list]:
    """``items`` split in order into even chunks, one per worker at most.

    A split chunk holds at least ``MIN_SWEEP_CHUNK`` items, so fewer than
    ``2 * MIN_SWEEP_CHUNK`` items stay one chunk; no chunk holds more than
    ``MAX_SWEEP_BATCH``, which may call for more chunks than workers.
    """
    n = len(items)
    k = max(1, min(workers, n // MIN_SWEEP_CHUNK), -(-n // MAX_SWEEP_BATCH))
    bounds = [i * n // k for i in range(k + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def sweep_convergence(
    base_cfg: RunConfig,
    n_seeds: int,
    workers: int | None = None,
) -> SweepResult:
    """Independent seeded runs of ``base_cfg``; counts final ``l_ori < eps_conv``.

    Seeds are spawned deterministically from ``base_cfg.seed`` and split, in
    seed order, into even chunks: one per worker at most, each of at least
    ``MIN_SWEEP_CHUNK`` seeds when there are several, and of at most
    ``MAX_SWEEP_BATCH``.  So ``workers`` (at least 1; by default
    ``LAB_THREADS`` or the CPUs this process may run on) is a cap, and a
    sweep of fewer than ``2 * MIN_SWEEP_CHUNK`` seeds runs in this process.
    Each chunk is stepped as one batch; a process pool only spreads chunks
    over workers.  Results are merged in seed order and each seed's outcome
    is independent of the chunking, so the result does not depend on
    ``workers``.  For the real field the result is cross-tabulated by the
    sign of the initial product determinant.
    """
    base_cfg.validate()
    if n_seeds < 1:
        raise ConfigError("n_seeds must be at least 1")
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    cfgs = [
        replace(base_cfg, seed=s, name=f"{base_cfg.name}-seed{i}")
        for i, s in enumerate(_sweep_seeds(base_cfg.seed, n_seeds))
    ]
    workers = workers if workers is not None else _max_workers()
    chunks = _sweep_chunks(cfgs, workers)
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
    out_dir: str | Path | None = None,
) -> list[ValidatorResult]:
    """Run every ensemble validator; optionally write statistics CSVs.

    ``d`` and ``n_samples`` size the CUE uniformity check; ``d`` is also the
    dimension of the other checks but the det=1 circular-real density, which
    runs at dimension 6.  The other sizes are fixed at the acceptance
    configuration: 5000 samples of the circular-real density, 10,000 depth-4
    Gaussian products for the det-sign fraction, 5000 each for the Haar
    sigma-min quantile bound and Haar left-invariance, and 200 for the
    det=-1 zero-mode check.
    """
    _check_seed(seed)
    if d < 1:
        raise ConfigError("dimensions must be positive")
    if n_samples < 100:
        raise ConfigError("n_samples must be at least 100")
    report_file = "rmt_report.csv"
    # Each validator with the file its histogram is written to, if it makes one.
    battery = [
        (validate_cue_uniformity, (d, n_samples), "cue_uniformity.csv"),
        (validate_cre_density, (6, 5000), "cre_det1_density.csv"),
        (validate_product_det_sign, (d, 4, 10_000), None),
        (validate_haar_sigma_min_quantile, (d, 5000), None),
        (validate_haar_invariance, (d, 5000), None),
        (validate_det_minus_zero_mode, (d, 200), None),
    ]
    out = None
    if out_dir is not None:
        out = make_out_dir(out_dir, [report_file] + [f for _, _, f in battery if f is not None])
    streams = [
        np.random.Generator(np.random.Philox(c))
        for c in np.random.SeedSequence(seed).spawn(len(battery))
    ]
    results = [fn(*args, rng) for (fn, args, _), rng in zip(battery, streams)]
    if out is not None:
        report = [("test", "statistic", "rule", "threshold", "verdict", "detail")]
        for (_, _, hist_file), r in zip(battery, results):
            verdict = "pass" if r.passed else "FAIL"
            report.append((r.name, repr(r.statistic), r.rule, repr(r.threshold), verdict, r.detail))
            if hist_file is not None:
                hist_lines = ["bin_lo,bin_hi,empirical,analytic"]
                hist_lines += [
                    ",".join(repr(float(x)) for x in row) for row in r.histogram
                ]
                (out / hist_file).write_text("\n".join(hist_lines) + "\n")
        # Quoted where needed: names and details hold commas.
        with open(out / report_file, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(report)
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


def gradcheck(d: int, n_layers: int, field: FieldTag, a: float, seed: int) -> GradCheckReport:
    """Central finite differences, step 1e-6, of the total loss on every component.

    Perturbs real and imaginary parts separately, compares against the
    analytic gradient with per-component error ``|g - fd| / (1 + |g|)``, and
    passes iff the maximum is below 1e-6.
    """
    if not 1 <= d <= 6:
        raise ConfigError(f"gradcheck needs 1 <= d <= 6, got d = {d}")
    if n_layers < 2:
        raise ConfigError(f"gradcheck needs at least 2 layers, got {n_layers}")
    if not 0 <= a < float("inf"):
        raise ConfigError(f"gradcheck needs a finite regularizer weight a >= 0, got {a}")
    _check_seed(seed)
    rng = _substream(seed, 0)
    sigma = gaussian_matrix(d, field, rng)
    w = np.array([0.6 * gaussian_matrix(d, field, rng) for _ in range(n_layers)])
    cfg = DynConfig(reg_a=a, eta=0.1, integrator="gd")
    h = 1e-6

    grads = gradient(LayerStack(w), TargetSpec(sigma, reduced=False), cfg)

    def total(x: np.ndarray) -> np.ndarray:
        # The loss as ``dynamics.loss`` and the run loop evaluate it: a complex
        # problem as its real embedding, whose halved losses are the complex ones.
        kernel = _kernel(x, np.broadcast_to(sigma, (len(x), d, d)), cfg)
        return kernel.evaluate() + kernel.l_reg()

    # One kernel batch per layer and part: problem m perturbs entry m of the
    # layer.  A problem's loss bits do not depend on the batch it is in.
    basis = np.eye(d * d).reshape(d * d, d, d)
    max_err = 0.0
    for j in range(n_layers):
        for unit in (1.0, 1j) if field is FieldTag.COMPLEX else (1.0,):
            step = np.zeros((d * d, *w.shape), dtype=w.dtype)
            step[:, j] = unit * h * basis
            plus = w + step
            fd = (total(plus) - total(plus - 2 * step)) / (2 * h)
            g = grads[j].reshape(-1)
            analytic = g.real if unit == 1.0 else g.imag
            err = np.abs(analytic - fd) / (1.0 + np.abs(analytic))
            max_err = max(max_err, float(err.max()))
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
    MalformedCSVError when the CSV cannot be read as UTF-8 text or lacks
    metadata, the documented header, or data rows, and ConfigError when the
    script cannot be written.
    """
    csv_path = Path(csv_path)
    header = None
    n_rows = 0
    has_meta = False
    try:
        with open(csv_path, encoding="utf-8") as fh:
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
    except FileNotFoundError:
        raise MalformedCSVError(f"no such CSV: {csv_path}") from None
    except OSError as exc:
        raise MalformedCSVError(f"cannot read CSV {csv_path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise MalformedCSVError(f"{csv_path}: not UTF-8 text") from None
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
    try:
        script_path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write plot script {script_path}: {exc.strerror}") from None
    return script_path


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat ``key = value`` format; blank lines and ``#`` comments ignored."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not UTF-8 text") from None
    out: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value'")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def build_config(overrides: dict[str, str], base: RunConfig | None = None) -> RunConfig:
    """Apply flat key=value overrides (config file or CLI) onto a base config.

    Every value that fails to parse or validate raises ConfigError.
    """
    cfg = base if base is not None else RunConfig()
    fields: dict[str, dict] = {"": {}, "init": {}, "dyn": {}}
    for key, val in overrides.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        part, _, attr = CONFIG_KEYS[key].attr.rpartition(".")
        try:
            fields[part][attr] = CONFIG_KEYS[key].parse(val)
        except ValueError as exc:
            raise ConfigError(f"{key} = {val}: {exc}") from None
    try:
        init, dyn = replace(cfg.init, **fields["init"]), replace(cfg.dyn, **fields["dyn"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return replace(cfg, init=init, dyn=dyn, **fields[""])
