"""factorlab benchmark: times one workload end to end, or per layer with --trace 1.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig-h1-run --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20   # every workload

The program is imported from ``src/`` of the checkout this file sits in.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  A readable report
goes to standard error.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads; sweep workers inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
MIN_ROUNDS = 2  # untraced rounds, whatever --seconds says

WORKLOAD_NAMES = ("fig-h1-run", "flow-monitored", "sweep-balanced", "sweep-random")


def import_program() -> None:
    """Import factorlab from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "factorlab" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no factorlab sources under {src}")
    sys.path.insert(0, str(src))
    import factorlab
    import factorlab.cli  # noqa: F401

    if Path(factorlab.__file__).resolve().parent != (src / "factorlab").resolve():
        raise SystemExit(f"benchmark: imported factorlab from {factorlab.__file__}, not {src}")


# Run in a fresh interpreter, so that the import can be timed more than once.
IMPORT_PROBE = """import sys, time
sys.path.insert(0, sys.argv[1])
c0 = time.process_time()
import factorlab, factorlab.cli
print(time.process_time() - c0)
"""


def time_import() -> tuple[float, float]:
    """CPU seconds of ``import factorlab`` in a fresh interpreter, and the
    calibration scale over the same seconds."""
    from workloads import Timer

    with Timer() as t:
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
            capture_output=True, text=True, check=True,
        )
    return float(out.stdout), t.scale


def peak_rss_mb() -> float:
    """Largest peak resident size of this process and of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    import calibrate
    import layers
    import workloads
    from spans import Tracer

    sizes = workloads.SMOKE if smoke else workloads.FULL
    wl = workloads.WORKLOADS[name](seed, sizes, OUT_DIR / "work" / name)

    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(time_import())
        with workloads.Timer() as t:
            wl.setup()
        builds.append((t.cpu_s, t.scale))
    setup_raw = statistics.median(c for c, _ in imports) + statistics.median(c for c, _ in builds)
    setup_s = statistics.median(c * k for c, k in imports) + statistics.median(c * k for c, k in builds)

    tracer = Tracer() if trace else None
    plain, traced = [], []
    attempted = failed = 0
    problems: list[str] = []  # every failed check, for the report
    overall: list[str] = []  # workload-level failures: these make the result incorrect
    measured = 0.0  # wall seconds inside rounds; checking them is not counted
    while True:
        # A traced run alternates untraced and traced rounds, both on one
        # sweep worker so that the chunk kernel runs in this process.
        tracing = trace and len(plain) > len(traced)
        if tracing:
            tracer.run_id = len(traced)
            tracer.install(layers.NOTES)
        calibrate.Sampler.enabled = not tracing
        try:
            rnd = wl.run_round(single_worker=trace)
        finally:
            if tracing:
                tracer.uninstall()
        (traced if tracing else plain).append(rnd)
        per_op, bad = wl.verify(rnd)
        attempted += len(per_op)
        failed += sum(1 for p in per_op if p)
        for k, p in enumerate(per_op):
            problems += [f"op {k}: {msg}" for msg in p]
        if len(per_op) != wl.ops_per_round:
            bad = bad + [f"{len(per_op)} operations checked, {wl.ops_per_round} expected"]
        overall += bad
        rnd.output = None  # keep timings only, so memory does not grow with rounds
        measured += rnd.wall_s
        done = len(plain) >= MIN_ROUNDS and (traced or not trace)
        if done and measured + rnd.wall_s > seconds:
            break

    result = {"correct": not overall, "attempted": attempted, "failed": failed}
    for msg in dict.fromkeys(problems + overall):
        print(f"{name}: check failed: {msg}", file=sys.stderr)

    if trace:
        tracer.save(OUT_DIR / f"trace-{name}.npz")
        metrics = layers.per_layer(tracer, traced, plain)
        layers.report(tracer, sys.stderr)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "scaled_cpu_s": (statistics.median(r.scaled_cpu_s for r in plain), "s"),
            "steps_per_scaled_cpu_s": (
                statistics.median(r.steps / r.scaled_cpu_s for r in plain), "steps/s"
            ),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    rounds = len(plain) + len(traced)
    print(f"{name}: {rounds} rounds, {attempted} operations, {failed} failed", file=sys.stderr)
    wall = statistics.median(r.wall_s for r in plain)
    cpu = statistics.median(r.cpu_s for r in plain)
    print(f"  {'wall time per round (not a metric)':40s} {wall:14.6g} s", file=sys.stderr)
    print(f"  {'CPU time per round (not a metric)':40s} {cpu:14.6g} s", file=sys.stderr)
    print(f"  {'set-up CPU time (not a metric)':40s} {setup_raw:14.6g} s", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"  {key:40s} {value:14.6g} {unit}", file=sys.stderr)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-tests")
    args = ap.parse_args(argv)

    import_program()
    sys.path.insert(0, str(BENCH_DIR))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
