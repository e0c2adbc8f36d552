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
from contextlib import contextmanager, nullcontext
from dataclasses import astuple, dataclass, field as dc_field, fields, replace
from functools import partial, reduce
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .dynamics import DynConfig, LayerStack, TargetSpec, _kernel, gradient, product, reduce_target
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
    "SWEEP_CSV_COLUMNS",
    "sweep_csv_row",
    "GradCheckReport",
    "DIVERGENCE_GUARD",
    "GUARD_EVERY",
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
# The divergence guard runs at least every GUARD_EVERY steps; the steps from
# one multiple of GUARD_EVERY to the next run as one block of the kernel's
# advance, settled once after it.
GUARD_EVERY = 25
# Largest seed batch a sweep steps together: per seed-step cost levels off
# well before this, and it bounds a worker's memory.
MAX_SWEEP_BATCH = 256
# Fewest seeds a chunk of a split sweep holds.  A GD step's cost is mostly a
# fixed 20-34 us of numpy dispatch (one seed, regularizer off and on),
# against 1.5-2.1 us per seed in the batch with the regularizer off and
# 2.4-2.7 us with it on (least-squares fits to the best of 7 and of 9 runs
# of 1,500 steps at 1 to 128 seeds of the balanced fig-h1 family; 2 vCPUs,
# one BLAS thread), so each extra chunk adds one fixed cost per step and
# saves wall time only once a chunk's per-seed cost outweighs it, at about
# 10-15 seeds.  32 was set when that was 10-40.
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

    def __post_init__(self) -> None:
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
        _resolve_phases(self.init, self.n_layers, self.field)
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

    A product that overflows has ``det_w0 = nan``: its run diverges at step
    0 by the guard, but no det sign can be asked of it (ConfigError).
    """
    built = _build_target(cfg)
    balanced = cfg.init.kind == "balanced"
    init = balanced_init if balanced else random_init
    scan = 1 if balanced or cfg.det_sign is None else 1000
    for probe in range(cfg.seed, cfg.seed + scan):
        target = built
        stack = init(cfg.d, cfg.n_layers, cfg.init, cfg.field, _substream(probe, 1))
        if not target.reduced:
            target, stack = reduce_target(target.matrix, stack)
        with np.errstate(over="ignore", invalid="ignore"):
            w0 = product(stack)
        if not np.isfinite(w0).all():
            if cfg.det_sign is not None:
                raise ConfigError("initial product is not finite")
            return target, stack, float("nan")
        det_w0 = det_sign_or_phase(w0)
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
class SeedOutcome:
    """How one run ended, as ``_run_chunk`` settles it.

    Its fields are sweep.csv's columns after the name
    (``SWEEP_CSV_COLUMNS``), and ``RunSummary`` extends it, so a field
    declared here reaches both.
    """

    seed: int
    status: str  # converged | exhausted | diverged
    converged: bool
    steps_run: int
    final_l_ori: float
    det_w0: float | complex


@dataclass(frozen=True)
class RunSummary(SeedOutcome):
    """A trajectory's outcome, with its name, last record's monitors, wall time and CSV path."""

    name: str
    final_l_reg: float
    final_e_delta: float
    wall_time_s: float
    csv_path: str | None

    @property
    def converged_step(self) -> int | None:
        return self.steps_run if self.converged else None


def _time_of(cfg: RunConfig, step: int) -> float:
    dt = cfg.dyn.eta if cfg.dyn.integrator == "gd" else cfg.dyn.step_h
    return step * dt


class _Trajectory:
    """One problem's records in a batched run: CSV lines, SVD track, last record.

    Recorded steps are buffered and computed ``RECORD_BLOCK`` at a time, and
    after the run loop; ``on_record`` sees them in step order.  The layers
    of the buffered steps are copied into ``block``, one array reused for
    every block of records.
    """

    def __init__(self, cfg: RunConfig, on_record=None) -> None:
        self.cfg = cfg
        self.on_record = on_record
        self.target: TargetSpec | None = None
        self.lines: list[str] = []
        self.block = np.empty((RECORD_BLOCK, cfg.n_layers, cfg.d, cfg.d), cfg.field.dtype)
        self.pending: list[tuple[int, float, float]] = []
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

    def add(self, step: int, kernel, row: int, l_ori: float, l_reg: float, kept: int) -> None:
        """Buffer problem ``row`` of ``kernel`` at ``step``: its losses, and the layers of its ``kept``-th kept round copied into the block's next slot.

        A full block is recorded.
        """
        kernel.own_layers(row, out=self.block[len(self.pending)], kept=kept)
        self.pending.append((step, float(l_ori), float(l_reg)))
        if len(self.pending) == RECORD_BLOCK:
            self.flush()

    def flush(self) -> None:
        """Record the buffered steps as one block."""
        if not self.pending:
            return
        steps, l_oris, l_regs = zip(*self.pending)
        self.pending = []
        times = [_time_of(self.cfg, step) for step in steps]
        recs = records(steps, times, self.block[: len(steps)], l_oris, l_regs, self.target, self.track)
        for rec, track in recs:
            self.lines.append(record_to_csv_row(rec, self.cfg.d))
            if self.on_record is not None:
                self.on_record(rec, track)
        self.rec, self.track = recs[-1]


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

    When a run ends: it converges at the first step ``k`` with ``l_ori <
    eps_conv`` (never under ``omit_l_ori``), and it is exhausted at ``k =
    steps``, unless it converged there.  A run's ending is a
    ``SeedOutcome``, which its summary extends.  The divergence
    guard runs at step ``k`` whenever ``k`` is a multiple of
    ``GUARD_EVERY`` (25), a record step, the last step or the step the run
    converges at; a run that fails it is diverged with ``steps_run = k``,
    is not recorded there, and its final losses are infinite.  Every other
    run records the step it ends at.  The batch steps in blocks between
    multiples of ``GUARD_EVERY`` and settles each block once, after it, by
    these rules (``_run_chunk``).
    """
    made = nullcontext()
    if out_dir is not None:
        check_distinct_names(cfgs, "their output files would overwrite each other")
        made = make_out_dir(out_dir, [f"{c.name}{ext}" for c in cfgs for ext in (".csv", ".summary.txt")])
    with made as out_dir:
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
                    **vars(o),
                    name=cfgs[i].name,
                    final_l_reg=float("inf") if diverged else traj.rec.l_reg,
                    final_e_delta=float("inf") if diverged else traj.rec.e_delta,
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


@contextmanager
def make_out_dir(out_dir: str | Path, files: Iterable[str] = ()) -> Iterator[Path]:
    """The output directory ``out_dir``, made with its parents where missing, for the block that writes into it.

    Callers enter it before any stepping and name the ``files`` they will
    write in it, so that a path that cannot be a directory (an existing
    file, or a path beneath one), or an output file that is an existing
    directory, is a ConfigError raised before the work, not an OSError
    after it.  If the block raises, the directories made here are removed
    again, deepest first, while they are empty: a run that fails before it
    writes, such as out of memory, leaves nothing behind.
    """
    path = Path(out_dir)
    try:
        made = [p for p in (path, *path.parents) if not p.exists()]
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        reason = exc.strerror or exc
        raise ConfigError(f"cannot make output directory {str(path)!r}: {reason}") from None
    for name in files:
        if (path / name).is_dir():
            raise ConfigError(f"cannot write output file {str(path / name)!r}: it is a directory")
    try:
        yield path
    except BaseException:
        for p in made:
            try:
                p.rmdir()
            except OSError:  # written into, or not ours to remove
                break
        raise


def run_scenario(
    cfg: RunConfig,
    out_dir: str | Path | None = None,
    on_record=None,
) -> RunSummary:
    """Execute one configured trajectory: ``run_scenarios`` on a batch of one, which says when a run ends.

    ``on_record(record, track)`` is invoked at every recorded step, which is
    how the test suites observe per-step monitor state.
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


# sweep.csv's columns: the swept base config's name, then a seed's outcome.
SWEEP_CSV_COLUMNS = ("name", *(f.name for f in fields(SeedOutcome)))


def sweep_csv_row(name: str, outcome: SeedOutcome) -> tuple:
    """``outcome`` as a sweep.csv row under ``name``, a bool as 0 or 1."""
    return (name, *(int(v) if isinstance(v, bool) else v for v in astuple(outcome)))


@dataclass(frozen=True)
class SweepResult:
    """A sweep's outcomes in seed order."""

    outcomes: tuple[SeedOutcome, ...]

    def tally(self, det: int | None = None) -> tuple[int, int]:
        """``(converged, seeds)`` over every seed, or over the real seeds whose ``det W(0)`` has the sign ``det``.

        A det class holds real seeds only: the cross-tabulation by the sign
        of ``det W(0)`` means nothing for a complex phase, nor for the NaN
        of a product that overflowed.
        """
        counted = [
            o.converged for o in self.outcomes
            if det is None or isinstance(o.det_w0, float) and det * o.det_w0 > 0
        ]
        return sum(counted), len(counted)


def _sweep_seeds(base_seed: int, n: int) -> list[int]:
    children = np.random.SeedSequence(base_seed).spawn(n)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def _run_chunk(
    cfgs: list[RunConfig], trajectories: list[_Trajectory] | None = None
) -> list[SeedOutcome]:
    """Runs of several configs, stepped together; a run ends as ``run_scenarios`` states.

    ``cfgs`` share field, ``d``, ``n_layers``, dynamics, ``steps``,
    ``record_stride`` and ``eps_conv``; name, seed, target and
    initialization may differ.  This is the one stepping loop: a sweep
    chunk runs without ``trajectories``, and trajectories run with one
    ``_Trajectory`` per config.  All problems step in place on one dynamics
    kernel (``dynamics._Kernel``) with either integrator, built once and
    rebuilt only when problems leave.

    The batch steps only through the kernel's ``advance``, in blocks that
    run from one guard step of the cadence to the next: from one multiple
    of ``GUARD_EVERY`` to the next, or to the last step, which is a block
    of one round.  No round tests anything; the block returns every round's
    ``l_ori``, and the layers of each *kept* round (the block's first and
    its record steps) are copied aside before the round runs.

    ``settle`` is the one place that ends runs, by the rule
    ``run_scenarios`` states, and records them, once per block.  It reads
    the kept rounds' ``l_ori`` from the history, runs the divergence guard
    on all their layer norms at once, and compares the whole history with
    ``eps_conv`` at once.  Each problem's kept record rounds up to its end
    go to its trajectory: the kept layers, ``l_ori``, and ``l_reg`` made
    from the kept layers.  A problem that converged on a round that was
    not kept records the kept rounds before it from the batch, as any
    problem does, and is stepped again alone from the block's first kept
    layers to that round (the kernel's ``replay``), keeping only that
    round; settled the same way, the replay ends the run there and records
    it.  The rest of the batch is not rolled back.  Replay gives the
    batch's bits, since the kernel acts on each problem alone.  Everything
    the loop reads of the kernel is in the problems' own field (see
    ``dynamics``).  Stepping ignores overflow; recording does not: the
    records are computed ``RECORD_BLOCK`` at a time and after the stepping
    loop, under the caller's floating-point error state.
    """
    cfg = cfgs[0]
    stride = cfg.record_stride
    problems = [prepare_problem(c) for c in cfgs]
    if trajectories is not None:
        for traj, (target, _, _) in zip(trajectories, problems):
            traj.start(target)
    # A block keeps its first round and its record steps, of which at most
    # ceil((GUARD_EVERY - 1) / stride) follow the first.
    kept = 1 if trajectories is None else min(GUARD_EVERY, 1 + -(-(GUARD_EVERY - 1) // stride))
    kernel = _kernel(
        np.stack([stack.layers for _, stack, _ in problems]),
        np.stack([target.matrix for target, _, _ in problems]),
        cfg.dyn,
        block=GUARD_EVERY,
        kept=kept,
    )
    active = np.arange(len(cfgs))  # batch row -> index into cfgs
    outcomes: list[SeedOutcome | None] = [None] * len(cfgs)
    # No l_ori, NaN included, is below -inf: under omit_l_ori no run converges.
    eps = -np.inf if cfg.dyn.omit_l_ori else cfg.eps_conv
    errors = np.geterr()

    def settle(kernel, ids, start: int, history: np.ndarray, keep: list[int]) -> tuple[np.ndarray | None, list]:
        """End and record the problems ``ids``, the rows of ``kernel``, over the block of ``history`` from step ``start``.

        ``keep`` lists the block's kept rounds.  Returns the mask of the rows whose runs ended
        there, or None when none did, and ``(row, round)`` for each row
        that converged on a round not kept: its kept rounds before that
        round are recorded here, and its replay ends and records it.
        """
        rounds = len(history)
        l_ori = history[keep]
        ok = (kernel.kept_norms(len(keep)) <= DIVERGENCE_GUARD).all(-1)
        met = history < eps
        final = start + rounds - 1 == cfg.steps
        # Unless the block holds the last step, a convergence or a guard
        # failure, every row goes on.
        going = not (final or met.any() or not ok.all())
        quiet = []
        if not going:
            # Each row's ending round, rounds for a row that goes on.  A row
            # converges on its first round that meets eps, unless its guard
            # fails there or before.
            failed = ~ok
            end = np.where(failed.any(0), np.asarray(keep)[failed.argmax(0)], rounds)
            first = np.where(met.any(0), met.argmax(0), rounds)
            np.minimum(end, first, out=end)
            if final:
                np.minimum(end, rounds - 1, out=end)
            for i in np.flatnonzero(end < rounds):
                r = int(end[i])
                if r not in keep:
                    quiet.append((i, r))
                    continue
                slot = keep.index(r)
                status = "diverged" if not ok[slot, i] else "converged" if first[i] == r else "exhausted"
                final_l_ori = float(l_ori[slot, i]) if ok[slot, i] else float("inf")
                k = ids[i]
                outcomes[k] = SeedOutcome(
                    cfgs[k].seed, status, status == "converged", start + r, final_l_ori, problems[k][2]
                )
        if trajectories is not None:
            # Each kept round's recorded rows: on a record step the rows that
            # go on past it, and on any kept round those that end there
            # unless by the guard.
            recorded = []
            for slot, r in enumerate(keep):
                if (start + r) % stride == 0:
                    rows = range(len(ids)) if going else np.flatnonzero((end > r) | (end == r) & ok[slot])
                elif not going:
                    rows = np.flatnonzero((end == r) & ok[slot])
                else:
                    continue
                recorded.append((slot, r, rows))
            if recorded:
                l_oris, l_regs = l_ori.tolist(), kernel.kept_l_reg(len(keep)).tolist()
                with np.errstate(**errors):
                    for slot, r, rows in recorded:
                        for i in rows:
                            trajectories[ids[i]].add(start + r, kernel, i, l_oris[slot][i], l_regs[slot][i], slot)
        return None if going else end < rounds, quiet

    # A diverging run overflows until the guard retires it; that is a
    # documented outcome, not a fault.
    with np.errstate(over="ignore", invalid="ignore"):
        start = 0
        while True:
            # To the next multiple of GUARD_EVERY or the last step, which is
            # a block of its own.
            rounds = min(GUARD_EVERY, cfg.steps - start) or 1
            keep = [0]
            if trajectories is not None:
                keep += range(-start % stride or stride, rounds, stride)
            done, quiet = settle(kernel, active, start, kernel.advance(rounds, keep), keep)
            for i, r in quiet:
                replayed, history = kernel.replay(i, r)
                settle(replayed, active[i : i + 1], start, history, [r])
            if done is not None:
                if done.all():
                    break
                active, kernel = active[~done], kernel.take(~done)
            start += rounds
    for traj in trajectories or ():
        traj.flush()
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
    sign of the initial product determinant.  Fewer than one seed or
    worker, or a ``LAB_THREADS`` that is not an integer, is a ConfigError.
    """
    if n_seeds < 1:
        raise ConfigError("n_seeds must be at least 1")
    if workers is None:
        workers = _max_workers()
    elif workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    cfgs = [replace(base_cfg, seed=s) for s in _sweep_seeds(base_cfg.seed, n_seeds)]
    chunks = _sweep_chunks(cfgs, workers)
    if workers > 1 and len(chunks) > 1:
        # Imported here: most sweeps run one chunk, in this process.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as ex:
            results = list(ex.map(_run_chunk, chunks))
    else:
        results = [_run_chunk(c) for c in chunks]
    return SweepResult(tuple(o for chunk in results for o in chunk))


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
    made = nullcontext()
    if out_dir is not None:
        made = make_out_dir(out_dir, [report_file] + [f for _, _, f in battery if f is not None])
    with made as out:
        results = [fn(*args, _substream(seed, i)) for i, (fn, args, _) in enumerate(battery)]
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
    """A gradient check's largest per-component relative error; it passes below 1e-6."""

    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < 1e-6


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
        return kernel.measure()[0] + kernel.kept_l_reg(1)[0]

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
    return GradCheckReport(max_err)


# ---------------------------------------------------------------------------
# Plot-script emission
# ---------------------------------------------------------------------------

_PLOT_TEMPLATE = '''\
#!/usr/bin/env python3
"""Render trajectory plots from {csv_name}.

Generated file: reads the trajectory CSV and writes PNGs beside it.  Both
are named relative to this script's own directory, so it runs from any
working directory.
Columns used: {used_columns}.
"""
from pathlib import Path

import numpy as np
import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt

HERE = Path(__file__).resolve().parent
CSV = HERE / {csv_path!r}
SINGULAR_PNG = HERE / {singular_png!r}
EXTREMES_PNG = HERE / {extremes_png!r}
MAIN_PNG = HERE / {main_png!r}
# The metadata lines are dropped first: genfromtxt would take the first
# comment line for the column names.
with open(CSV, encoding="utf-8") as fh:
    data = np.genfromtxt([ln for ln in fh if not ln.startswith("#")], delimiter=",", names=True)
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
fig.savefig(SINGULAR_PNG, dpi=150)

# Extreme layer singular values.
fig, ax = plt.subplots(figsize=(8, 5))
ax.plot(step, safe_log10(data["sig_max"]), label="sig_max")
ax.plot(step, safe_log10(data["sig_min"]), label="sig_min")
ax.set_xlabel("step")
ax.set_ylabel("log10 value")
ax.set_title("extreme singular values over all layers")
ax.legend()
fig.tight_layout()
fig.savefig(EXTREMES_PNG, dpi=150)

# Smallest singular value of the Hermitian main term.
fig, ax = plt.subplots(figsize=(8, 5))
ax.plot(step, safe_log10(data["main_sv_min"]), label="main_sv_min")
ax.set_xlabel("step")
ax.set_ylabel("log10 value")
ax.set_title("sigma_min of the Hermitian main term")
ax.legend()
fig.tight_layout()
fig.savefig(MAIN_PNG, dpi=150)
print("wrote", SINGULAR_PNG, EXTREMES_PNG, MAIN_PNG)
'''


def emit_plots(csv_path: str | Path, script_path: str | Path | None = None) -> Path:
    """Write a standalone plotting script for a trajectory CSV.

    The script references only columns present in the CSV header, and names
    the CSV and its PNGs (beside the CSV) by their paths relative to its
    own directory, so it runs from any working directory.  Raises
    MalformedCSVError when the CSV cannot be read as UTF-8 text or lacks
    metadata, the documented header, or data rows, and ConfigError when the
    script path is the CSV's or the script cannot be written.
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
    d = sum(c.startswith("sigma_w_") for c in header)
    used = ["step", "sig_max", "sig_min", "main_sv_min"]
    used += [f"sigma_w_{k}" for k in range(d)] + [f"half_sum_sv_{k}" for k in range(d)]
    if not d or not set(used).issubset(header):
        raise MalformedCSVError(f"{csv_path}: missing documented trajectory columns")

    script_path = Path(script_path) if script_path else csv_path.with_suffix(".plot.py")
    if script_path.resolve() == csv_path.resolve():
        raise ConfigError(f"plot script {script_path} would overwrite the CSV it plots")
    here = script_path.resolve().parent
    csv_rel = os.path.relpath(csv_path.resolve(), here)
    base = csv_rel.removesuffix(csv_path.suffix)
    text = _PLOT_TEMPLATE.format(
        csv_name=csv_path.name,
        used_columns=", ".join(used),
        csv_path=csv_rel,
        d=d,
        singular_png=base + ".singular_values.png",
        extremes_png=base + ".extremes.png",
        main_png=base + ".main_term.png",
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
    init, dyn = replace(cfg.init, **fields["init"]), replace(cfg.dyn, **fields["dyn"])
    return replace(cfg, init=init, dyn=dyn, **fields[""])
