"""SHA-256 digests of a cheap subset of factorlab's outputs, to show that a change keeps every bit.

Usage, from the repository root:

    python3 tools/golden.py

writes ``GOLDEN.json``, which ``tests/test_golden.py`` compares against.

The subset, a few seconds on one CPU:

- ``fig-h1``: the CSV and summary of each fig-h1 variant at ``epsilon =
  0.3`` and 3,000 steps;
- ``flow``: criterion 2's RK4 runs, 200 steps at record stride 1, in both
  fields;
- ``sweep``: the outcomes of the 40-seed ``sweep`` preset at 3,000 steps,
  one line ``seed,status,steps_run,final_l_ori,det_w0`` per seed.

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

import hashlib
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
from factorlab.dynamics import DynConfig  # noqa: E402
from factorlab.ensembles import InitScheme  # noqa: E402
from factorlab.lab import RunConfig, preset, run_scenarios, sweep_convergence  # noqa: E402
from factorlab.linalg import FieldTag  # noqa: E402

GOLDEN = ROOT / "GOLDEN.json"
REGENERATE = "python3 tools/golden.py"
STEPS = 3_000


def _configs() -> dict[str, list[RunConfig]]:
    fig_h1 = [replace(c, init=replace(c.init, epsilon=0.3), steps=STEPS) for c in preset("fig-h1")]
    flow = [
        RunConfig(
            name=f"flow-{field.value}", field=field, d=5, n_layers=4, target_kind="identity",
            init=InitScheme(kind="balanced", epsilon=0.05),
            dyn=DynConfig(reg_a=0.0, integrator="flow_rk4", step_h=1e-3),
            steps=200, record_stride=1, seed=3,
        )
        for field in (FieldTag.REAL, FieldTag.COMPLEX)
    ]
    return {"fig-h1": fig_h1, "flow": flow}


def _quiet(step: int, steps: int, stride: int | None) -> bool:
    """A step the run loop neither guards nor records: it is reached through a replay."""
    return step % 25 != 0 and step != steps and (stride is None or step % stride != 0)


def outputs() -> tuple[dict[str, bytes], dict[str, list[int]]]:
    """The subset's outputs by name, and the quiet steps at which its runs converged."""
    out: dict[str, bytes] = {}
    quiet: dict[str, list[int]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for group, cfgs in _configs().items():
            quiet[group] = []
            for cfg, s in zip(cfgs, run_scenarios(cfgs, out_dir=tmp)):
                summary = (Path(tmp) / f"{cfg.name}.summary.txt").read_text().splitlines(keepends=True)
                out[f"{group}/{cfg.name}.csv"] = (Path(tmp) / f"{cfg.name}.csv").read_bytes()
                out[f"{group}/{cfg.name}.summary.txt"] = "".join(
                    line for line in summary if not line.startswith("wall_time_s =")
                ).encode()
                if s.status == "converged" and _quiet(s.steps_run, cfg.steps, cfg.record_stride):
                    quiet[group].append(s.steps_run)
    base = replace(preset("sweep")[0], steps=STEPS)
    result = sweep_convergence(base, 40, workers=1)
    out["sweep/outcomes.csv"] = "".join(
        f"{o.seed},{o.status},{o.steps_run},{o.final_l_ori!r},{o.det_w0!r}\n" for o in result.outcomes
    ).encode()
    quiet["sweep"] = [
        o.steps_run for o in result.outcomes if o.converged and _quiet(o.steps_run, base.steps, None)
    ]
    return out, quiet


def build() -> dict:
    """The numpy version and BLAS/LAPACK build that the digests hold on."""
    return {"numpy": np.__version__, "numpy_build": _numpy_build()}


def golden() -> dict:
    out, quiet = outputs()
    return {
        "command": REGENERATE,
        **build(),
        "quiet_convergences": quiet,
        "digests": {name: hashlib.sha256(data).hexdigest() for name, data in sorted(out.items())},
    }


def differences(want: dict, got: dict) -> list[str]:
    """What differs between two ``golden()`` results, one line each; empty when they agree."""
    lines = []
    for name in sorted(set(want["digests"]) | set(got["digests"])):
        if want["digests"].get(name) != got["digests"].get(name):
            lines.append(f"digest of {name} moved")
    if want["quiet_convergences"] != got["quiet_convergences"]:
        lines.append(f"quiet-step convergences {want['quiet_convergences']} -> {got['quiet_convergences']}")
    return lines


def main() -> int:
    got = golden()
    GOLDEN.write_text(json.dumps(got, indent=2) + "\n")
    print(f"golden: {len(got['digests'])} digests -> {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
