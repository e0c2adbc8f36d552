"""Smoke runs of every workload, and the checks rejecting corrupted outputs."""

import contextlib
import io
import json
import shutil
import subprocess
from dataclasses import replace
from pathlib import Path

import pytest

import run
import workloads

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _results(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        assert run.main(argv) == 0
    return [json.loads(line) for line in buf.getvalue().splitlines() if line.startswith("{")]


def test_smoke_every_workload_correct_with_end_to_end_metrics():
    results = _results(["--workload", "all", "--seconds", "0", "--smoke"])
    assert len(results) == len(SPEC["workloads"])
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for r in results:
        assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
        assert {k: v["unit"] for k, v in r["metrics"].items()} == want
        assert all(v["value"] > 0 for v in r["metrics"].values())


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_traced_run_reports_every_per_layer_metric(name):
    (r,) = _results(["--workload", name, "--seconds", "0", "--smoke", "--trace", "1"])
    assert r["correct"] and r["failed"] == 0
    assert {k: v["unit"] for k, v in r["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "fig-h1-run", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def _smoke(cls, tmp_path):
    wl = cls(1, workloads.SMOKE, tmp_path)
    wl.setup()
    rnd = wl.run_round()
    per_op, overall = wl.verify(rnd)
    assert not any(per_op) and not overall
    return wl, rnd


def _set_csv(text: str, column: str, row: int, edit) -> str:
    """``text`` with one cell of data row ``row`` replaced by ``edit(cell)``."""
    lines = text.splitlines()
    first = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    k = lines[first].split(",").index(column)
    cells = lines[first + 1 + row].split(",")
    cells[k] = edit(cells[k])
    lines[first + 1 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _perturb_csv(text: str, column: str, row: int, factor: float) -> str:
    return _set_csv(text, column, row, lambda cell: repr(float(cell) * factor))


def _failed_ops(wl, rnd):
    per_op, overall = wl.verify(rnd)
    return [k for k, p in enumerate(per_op) if p], overall


@pytest.fixture(scope="module")
def fig(tmp_path_factory):
    return _smoke(workloads.FigH1Run, tmp_path_factory.mktemp("fig"))


@pytest.mark.parametrize(
    "run_name, column, row, factor",
    [
        ("fig-h1-real-detplus", "l_ori", 1, 1 + 1e-6),  # off the reference GD
        ("fig-h1-complex", "l_ori", 0, 1 - 1e-6),
        ("fig-h1-real-detminus", "half_sum_sv_4", 2, 1e9),  # left the zero mode
    ],
)
def test_fig_h1_rejects_corrupted_csv(fig, run_name, column, row, factor):
    wl, rnd = fig
    rc, runs = rnd.output
    summary, text = runs[run_name]
    if column == "half_sum_sv_4":  # the zero mode may read exactly 0
        text = _set_csv(text, column, row, lambda cell: "1e-6")
    else:
        text = _perturb_csv(text, column, row, factor)
    bad = dict(runs, **{run_name: (summary, text)})
    failed, _ = _failed_ops(wl, replace(rnd, output=(rc, bad)))
    assert failed == [[c.name for c in wl.cfgs].index(run_name)]


def test_fig_h1_rejects_missing_row_and_unconverged_status(fig):
    wl, rnd = fig
    rc, runs = rnd.output
    summary, text = runs["fig-h1-real-detplus"]
    dropped = "\n".join(text.splitlines()[:-1]) + "\n"
    bad = dict(runs, **{"fig-h1-real-detplus": (summary, dropped)})
    assert _failed_ops(wl, replace(rnd, output=(rc, bad)))[0] == [0]
    bad = dict(runs, **{"fig-h1-complex": (dict(summary, status="exhausted"), runs["fig-h1-complex"][1])})
    assert _failed_ops(wl, replace(rnd, output=(rc, bad)))[0] == [2]
    assert _failed_ops(wl, replace(rnd, output=(3, runs)))[0] == [0, 1, 2]


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    return _smoke(workloads.FlowMonitored, tmp_path_factory.mktemp("flow"))


@pytest.mark.parametrize(
    "column, row, factor",
    [
        ("l_ori", 0, 1 + 1e-9),  # row 0 differs from the reference value
        ("l_ori", 10, 1 + 1e-6),  # l_ori rises along the flow
        ("skew_uv", 10, 1 + 1e-4),  # skew term rises
        ("e_delta", 5, 1e12),  # balance lost
    ],
)
def test_flow_rejects_corrupted_csv(flow, column, row, factor):
    wl, rnd = flow
    (summ, text), other = rnd.output
    bad = [(summ, _perturb_csv(text, column, row, factor)), other]
    assert _failed_ops(wl, replace(rnd, output=bad))[0] == [0]


@pytest.fixture(scope="module")
def balanced(tmp_path_factory):
    return _smoke(workloads.SweepBalanced, tmp_path_factory.mktemp("bal"))


def _with_outcomes(result, fn):
    outcomes = tuple(fn(o) for o in result.outcomes)
    return replace(result, outcomes=outcomes)


def test_sweep_rejects_flipped_det_sign(balanced):
    wl, rnd = balanced
    real, cplx = rnd.output
    flipped = _with_outcomes(real, lambda o: replace(o, det_w0=-o.det_w0) if o.seed == real.outcomes[0].seed else o)
    assert _failed_ops(wl, replace(rnd, output=[flipped, cplx]))[0] == [0]
    rotated = _with_outcomes(cplx, lambda o: replace(o, det_w0=o.det_w0 * 1j))
    failed, _ = _failed_ops(wl, replace(rnd, output=[real, rotated]))
    assert failed == list(range(len(real.outcomes), len(real.outcomes) + len(cplx.outcomes)))


def test_sweep_rejects_converged_det_minus_and_divergence(balanced):
    wl, rnd = balanced
    real, cplx = rnd.output
    k = next(i for i, o in enumerate(real.outcomes) if o.det_w0 < 0)
    target = real.outcomes[k].seed
    conv = _with_outcomes(real, lambda o: replace(o, status="converged", converged=True) if o.seed == target else o)
    assert _failed_ops(wl, replace(rnd, output=[conv, cplx]))[0] == [k]
    div = _with_outcomes(cplx, lambda o: replace(o, status="diverged", converged=False) if o.seed == cplx.outcomes[0].seed else o)
    assert _failed_ops(wl, replace(rnd, output=[real, div]))[0] == [len(real.outcomes)]


def test_sweep_rejects_steps_run_off_the_reference(balanced):
    wl, rnd = balanced
    real, cplx = rnd.output
    shifted = _with_outcomes(cplx, lambda o: replace(o, steps_run=o.steps_run + 40) if o.converged else o)
    failed, _ = _failed_ops(wl, replace(rnd, output=[real, shifted]))
    assert len(failed) == workloads.SMOKE.ref_seeds


def test_sweep_balanced_rejects_low_fractions(balanced):
    wl, rnd = balanced
    real, cplx = rnd.output
    stalled = _with_outcomes(cplx, lambda o: replace(o, status="exhausted", converged=False))
    _, overall = _failed_ops(wl, replace(rnd, output=[real, stalled]))
    assert overall and "complex" in overall[0]
