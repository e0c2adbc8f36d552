"""SHA-256 digests of factorlab's outputs, to show that a change keeps every bit.

Usage, from the repository root:

    python3 tools/golden.py           # the cheap subset
    python3 tools/golden.py --full    # the full set

Each writes its block of ``GOLDEN.json`` and keeps the other, and names
the digests that moved against the file it replaces.
``tests/test_golden.py`` compares the subset against the committed
digests; of the full block it checks only that it was made on the same
build.  A change that must keep every bit runs ``--full`` and shows an
unchanged ``GOLDEN.json``.

The subset, a few seconds on one CPU:

- ``fig-h1``: the CSV and summary of each fig-h1 variant at ``epsilon =
  0.3`` and 3,000 steps;
- ``flow``: criterion 2's RK4 runs, 200 steps at record stride 1, in both
  fields;
- ``fig-h3``: the CSV and summary of each fig-h3 variant at 290 steps:
  regularized, under ``omit_l_ori``, recorded every 10 steps, so most
  record steps are not guard steps, and with a last step off the guard
  cadence;
- ``sweep``: the outcomes of the 40-seed ``sweep`` preset at 3,000 steps,
  one line ``seed,status,steps_run,final_l_ori,det_w0`` per seed.

The full set, a few minutes on two CPUs:

- ``fig-h1``: ``factorlab run --preset fig-h1 --steps 30000``;
- ``fig-h2``, ``fig-h3``: ``factorlab run --preset fig-h2`` and ``fig-h3``;
- ``flow``: criterion 2's RK4 runs, 20,000 steps at record stride 1, in
  both fields;
- ``sweep-real``, ``sweep-complex``: the ``sweep.csv`` of ``factorlab
  sweep --preset sweep --seeds 48``, and of the same with ``--field
  complex``;
- ``rmt``: the files of ``factorlab rmt-validate --out``;
- ``criterion-4``: the 600 outcomes of criterion 4's sweeps, one line
  ``field,seed,status,steps_run,final_l_ori`` per seed.

A summary is digested without its ``wall_time_s`` line.  The fig-h1 and
sweep runs converge at steps that are neither guard nor record steps, so
the subset covers the run loop's replay path; ``GOLDEN.json`` keeps those
steps beside the digests.  It also keeps the numpy version and the BLAS
and LAPACK build as ``tools/bench_snapshot.py`` records them: another
build may round differently, so digests are compared only on the build
that made them.  A change that moves bits on purpose regenerates the file
and says which digests moved and why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))

from bench_snapshot import _numpy_build  # noqa: E402
from factorlab import cli  # noqa: E402
from factorlab.dynamics import DynConfig  # noqa: E402
from factorlab.ensembles import InitScheme  # noqa: E402
from factorlab.lab import GUARD_EVERY, RunConfig, preset, run_scenarios, sweep_convergence  # noqa: E402
from factorlab.linalg import FieldTag  # noqa: E402

GOLDEN = ROOT / "GOLDEN.json"
REGENERATE = "python3 tools/golden.py"
REGENERATE_FULL = "python3 tools/golden.py --full"
STEPS = 3_000
# The subset's RK4 runs: criterion 2's, cut to 200 steps and at the default eps_conv.
FIG_H3_STEPS = 290
FLOW = [
    RunConfig(
        name=f"flow-{field.value}", field=field, d=5, n_layers=4, target_kind="identity",
        init=InitScheme(kind="balanced", epsilon=0.05),
        dyn=DynConfig(reg_a=0.0, integrator="flow_rk4", step_h=1e-3),
        steps=200, record_stride=1, seed=3,
    )
    for field in (FieldTag.REAL, FieldTag.COMPLEX)
]


def _configs() -> dict[str, list[RunConfig]]:
    fig_h1 = [replace(c, init=replace(c.init, epsilon=0.3), steps=STEPS) for c in preset("fig-h1")]
    fig_h3 = [replace(c, steps=FIG_H3_STEPS) for c in preset("fig-h3")]
    return {"fig-h1": fig_h1, "flow": FLOW, "fig-h3": fig_h3}


def _quiet(step: int, steps: int, stride: int | None) -> bool:
    """A step the run loop neither guards nor records: it is reached through a replay."""
    return step % GUARD_EVERY != 0 and step != steps and (stride is None or step % stride != 0)


def _files(directory: str | Path, group: str) -> dict[str, bytes]:
    """Every file in ``directory`` as ``group/name``; a summary without its ``wall_time_s`` line."""
    out = {}
    for path in sorted(Path(directory).iterdir()):
        data = path.read_bytes()
        if path.name.endswith(".summary.txt"):
            data = b"".join(line for line in data.splitlines(keepends=True) if not line.startswith(b"wall_time_s ="))
        out[f"{group}/{path.name}"] = data
    return out


def outputs() -> tuple[dict[str, bytes], dict[str, list[int]]]:
    """The subset's outputs by name, and the quiet steps at which its runs converged."""
    out: dict[str, bytes] = {}
    quiet: dict[str, list[int]] = {}
    for group, cfgs in _configs().items():
        with tempfile.TemporaryDirectory() as tmp:
            summaries = run_scenarios(cfgs, out_dir=tmp)
            out.update(_files(tmp, group))
        quiet[group] = [
            s.steps_run
            for cfg, s in zip(cfgs, summaries)
            if s.status == "converged" and _quiet(s.steps_run, cfg.steps, cfg.record_stride)
        ]
    base = replace(preset("sweep")[0], steps=STEPS)
    result = sweep_convergence(base, 40, workers=1)
    out["sweep/outcomes.csv"] = "".join(
        f"{o.seed},{o.status},{o.steps_run},{o.final_l_ori!r},{o.det_w0!r}\n" for o in result.outcomes
    ).encode()
    quiet["sweep"] = [
        o.steps_run for o in result.outcomes if o.converged and _quiet(o.steps_run, base.steps, None)
    ]
    return out, quiet


def _command(args: list[str], group: str) -> dict[str, bytes]:
    """The files ``factorlab ARGS --out DIR`` writes, by ``group/name``; its report is dropped."""
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(args + ["--out", out])
        if code != 0:
            raise SystemExit(f"golden: factorlab {' '.join(args)} exited {code}")
        return _files(out, group)


def full_outputs() -> dict[str, bytes]:
    """The full set's outputs by name."""
    out: dict[str, bytes] = {}
    out.update(_command(["run", "--preset", "fig-h1", "--steps", "30000"], "fig-h1"))
    for name in ("fig-h2", "fig-h3"):
        out.update(_command(["run", "--preset", name], name))
    with tempfile.TemporaryDirectory() as tmp:
        run_scenarios([replace(c, steps=20_000, eps_conv=1e-300) for c in FLOW], out_dir=tmp)
        out.update(_files(tmp, "flow"))
    sweep = ["sweep", "--preset", "sweep", "--seeds", "48"]
    out.update(_command(sweep, "sweep-real"))
    out.update(_command(sweep + ["--field", "complex"], "sweep-complex"))
    out.update(_command(["rmt-validate"], "rmt"))
    base = replace(preset("fig-h1", seed=2024)[0], det_sign=None)
    outcomes = []
    for field, n_seeds in ((FieldTag.REAL, 400), (FieldTag.COMPLEX, 200)):
        result = sweep_convergence(replace(base, field=field), n_seeds)
        outcomes += [f"{field.value},{o.seed},{o.status},{o.steps_run},{o.final_l_ori!r}\n" for o in result.outcomes]
    out["criterion-4/outcomes.csv"] = "".join(outcomes).encode()
    return out


def build() -> dict:
    """The numpy version and BLAS/LAPACK build that the digests hold on."""
    return {"numpy": np.__version__, "numpy_build": _numpy_build()}


def _digests(out: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(out.items())}


def golden() -> dict:
    """The subset's block of ``GOLDEN.json``."""
    out, quiet = outputs()
    return {"command": REGENERATE, **build(), "quiet_convergences": quiet, "digests": _digests(out)}


def golden_full() -> dict:
    """The full set's block of ``GOLDEN.json``, kept under its ``full`` key."""
    return {"command": REGENERATE_FULL, **build(), "digests": _digests(full_outputs())}


def differences(want: dict, got: dict) -> list[str]:
    """What differs from block ``want`` of ``GOLDEN.json`` in block ``got``, one line each; empty when they agree.

    A digest only ``got`` has was added, one only ``want`` has was removed,
    and one whose value changed moved.
    """
    lines = []
    old, new = want["digests"], got["digests"]
    for name in sorted(set(old) | set(new)):
        if name not in old:
            lines.append(f"digest of {name} added")
        elif name not in new:
            lines.append(f"digest of {name} removed")
        elif old[name] != new[name]:
            lines.append(f"digest of {name} moved")
    if want.get("quiet_convergences") != got.get("quiet_convergences"):
        lines.append(f"quiet-step convergences {want.get('quiet_convergences')} -> {got.get('quiet_convergences')}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write the digests of the subset, or of the full set, to GOLDEN.json.")
    parser.add_argument("--full", action="store_true", help="the full set, a few minutes")
    args = parser.parse_args(argv)
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if args.full:
        got = golden_full()
        kept, new = old.get("full"), {**old, "full": got}
    else:
        got = golden()
        kept = old if "digests" in old else None
        new = {**got, **({"full": old["full"]} if "full" in old else {})}
    GOLDEN.write_text(json.dumps(new, indent=2) + "\n")
    moved = ["no earlier digests"] if kept is None else differences(kept, got) or ["none moved"]
    print(f"golden: {len(got['digests'])} digests -> {GOLDEN.name}; " + "; ".join(moved))
    return 0


if __name__ == "__main__":
    sys.exit(main())
