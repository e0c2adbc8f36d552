"""``tools/bench_snapshot.py`` runs each workload in a process of its own."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_snapshot  # noqa: E402

# A benchmark that echoes, as its result line, the arguments it was given
# but the workload, and the process it ran in.
STUB_RUN = '''
import argparse, json, os
WORKLOAD_NAMES = ("second-alpha", "first-beta", "gamma")
ap = argparse.ArgumentParser()
ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
ap.add_argument("--seed", type=int)
ap.add_argument("--seconds", type=float)
ap.add_argument("--trace", type=int)
args = ap.parse_args()
print("report line")
print(json.dumps({"correct": True, "failed": 0, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "pid": os.getpid()}))
'''


def _stub_checkout(root: Path, body: str) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(body)
    return root


def test_one_process_per_workload_in_names_order(tmp_path):
    checkout = _stub_checkout(tmp_path / "co", STUB_RUN)
    out = tmp_path / "out"
    out.mkdir()
    argv = ["--checkout", str(checkout), "--label", "stub", "--seed", "7", "--seconds", "2.5", "--out", str(out)]
    assert bench_snapshot.main(argv) == 0
    data = json.loads((out / "BENCH_stub.json").read_text())
    results = data["results"]
    # The workload is the tool's to write: the stub does not print it.
    assert [r["workload"] for r in results] == ["second-alpha", "first-beta", "gamma"]
    assert all(list(r)[:3] == ["workload", "correct", "failed"] for r in results)
    assert all((r["seed"], r["seconds"], r["trace"]) == (7, 2.5, 0) for r in results)
    assert len({r["pid"] for r in results}) == 3
    assert data["command"] == [
        "python3", "perfbench/run.py", "--workload", "{workload}", "--seed", "7", "--seconds", "2.5", "--trace", "0"
    ]
    assert data["label"] == "stub" and data["commit"] is None


def test_a_failing_workload_stops_the_snapshot(tmp_path):
    body = STUB_RUN.replace('print("report line")', 'assert args.workload != "first-beta"')
    checkout = _stub_checkout(tmp_path / "co", body)
    with pytest.raises(SystemExit, match="on first-beta"):
        bench_snapshot.snapshot(checkout, 0, 1.0)
