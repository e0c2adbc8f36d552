"""Snapshot of the benchmark on one checkout: every workload's result and the build it ran on.

Usage, from the repository root:

    python3 tools/bench_snapshot.py --checkout . --label mine --seed 7 --seconds 20

Runs ``perfbench/run.py --workload W`` of ``--checkout`` as it is, once for
each name W in that file's ``WORKLOAD_NAMES``, each in a fresh interpreter,
so that each workload's ``peak_rss_mb`` is its own process's peak and not
the running peak of the workloads before it.  It writes
``BENCH_<label>.json`` into ``--out`` (the current directory by default).
The file holds the command, with ``{workload}`` for W, the checkout's
commit, each workload's result line (the JSON object the benchmark prints,
in ``WORKLOAD_NAMES`` order, with ``"workload": W`` put first),
the Python and numpy versions, numpy's BLAS and LAPACK build from
``np.show_config(mode="dicts")`` (without its build-machine directories),
the CPUs this process may run on, and the thread variables it passes on.
The benchmark itself sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` to 1 before numpy loads.

Two snapshots taken on one machine with the same seed and seconds compare
two checkouts; a claim of a gain still needs alternating runs of each.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "LAB_THREADS")
BUILD_KEYS = ("name", "version", "detection method", "openblas configuration")


def _commit(checkout: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _numpy_build() -> dict:
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {lib: {k: v for k, v in info.items() if k in BUILD_KEYS} for lib, info in deps.items()}


def _workload_names(run: Path) -> tuple[str, ...]:
    """``WORKLOAD_NAMES`` as the benchmark file ``run`` assigns it, read without running it."""
    for node in ast.parse(run.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WORKLOAD_NAMES" for t in node.targets
        ):
            return tuple(ast.literal_eval(node.value))
    raise SystemExit(f"bench_snapshot: {run} assigns no WORKLOAD_NAMES")


def snapshot(checkout: Path, seed: int, seconds: float) -> dict:
    run = checkout / "perfbench" / "run.py"
    if not run.is_file():
        raise SystemExit(f"bench_snapshot: no perfbench/run.py under {checkout}")
    args = ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    results = []
    for name in _workload_names(run):
        cmd = [sys.executable, str(run), "--workload", name, *args]
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"bench_snapshot: the benchmark exited with {proc.returncode} on {name}")
        lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
        if len(lines) != 1:
            raise SystemExit(f"bench_snapshot: {name} printed {len(lines)} result lines, not 1")
        results.append({"workload": name, **json.loads(lines[0])})
    return {
        "command": ["python3", "perfbench/run.py", "--workload", "{workload}", *args],
        "commit": _commit(checkout),
        "results": results,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_build": _numpy_build(),
        "machine": platform.machine(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", type=Path, default=Path("."), help="repository root to benchmark")
    ap.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--out", type=Path, default=Path("."), help="directory to write into")
    args = ap.parse_args(argv)

    data = {"label": args.label, **snapshot(args.checkout.resolve(), args.seed, args.seconds)}
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(data, indent=2) + "\n")
    bad = [r for r in data["results"] if not r.get("correct") or r.get("failed")]
    print(f"wrote {path}: {len(data['results'])} workloads, {len(bad)} with failed checks")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
