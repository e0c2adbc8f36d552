"""The benchmark finds every function it wraps and every value it reads.

``perfbench/spans.py`` wraps factorlab functions at the names their callers
look them up by, and the workloads read the initial layers and run summaries
the program produces; a refactor that renames or drops one of them breaks the
benchmark, which tier-1 would not otherwise notice.
"""

import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

from factorlab.dynamics import product
from factorlab.lab import preset, prepare_problem, run_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    patches = _load("spans").PATCHES
    assert patches
    missing = [
        f"factorlab.{module}.{attr}"
        for module, attr, _ in patches
        if not callable(getattr(importlib.import_module(f"factorlab.{module}"), attr, None))
    ]
    assert not missing


def test_values_the_workloads_read(tmp_path):
    cfg = replace(preset("fig-h1", seed=3)[1], steps=40, record_stride=20)
    # The initial layers, as the workloads stack them for the reference.
    _, stack, det_w0 = prepare_problem(cfg)
    w = np.stack(stack.layers)
    assert w.shape == (cfg.n_layers, cfg.d, cfg.d)
    assert np.array_equal(product(stack), w[3] @ w[2] @ w[1] @ w[0])
    assert det_w0 == -1.0

    # The summary fields the workloads parse from a run's summary file.
    s = run_scenario(cfg, out_dir=tmp_path)
    fields = _load("checks").parse_summary((tmp_path / f"{cfg.name}.summary.txt").read_text())
    assert fields["status"] == s.status
    assert int(fields["steps_run"]) == s.steps_run == 40
    assert float(fields["final_l_ori"]) == s.final_l_ori
