"""Per-layer metrics computed from a traced run's spans.

Every metric is reported on every workload; one whose layer the workload
does not reach reads 0.  Counts and times that add up over a run are given
per traced round, so they do not depend on how many rounds fit in a run.
"""

from __future__ import annotations

import statistics

import numpy as np

from spans import NUMPY_FACTORIZATIONS

# Values kept per span from the wrapped call's result.
NOTES = {
    "lab.run_scenario": lambda summary: summary.steps_run,
    "lab.run_chunk": lambda outcomes: (
        sum(o.steps_run for o in outcomes),
        max(o.steps_run for o in outcomes) * len(outcomes),
    ),
}

# Span names timed per call; each gives <name>_us (median), _p99_us and _calls.
PER_CALL = (
    "dynamics.gd_step",
    "dynamics.gradient",
    "dynamics.loss",
    "dynamics.flow_step_rk4",
    "monitors.record",
    "monitors.track_svd",
    "monitors.layer_extremes",
    "monitors.skew_error",
    "monitors.main_term_sigma_min",
    "monitors.balance_errors",
    "monitors.uv_terms",
    "monitors.record_to_csv_row",
    "linalg.svd",
    "linalg.det_sign_or_phase",
    "ensembles.balanced_init",
    "ensembles.random_init",
    "ensembles.haar_unitary",
    "lab.prepare_problem",
)
FACTORIZATIONS = [f"numpy.linalg.{f}" for f in NUMPY_FACTORIZATIONS]
MODULES = ("cli", "lab", "dynamics", "monitors", "linalg", "ensembles", "numpy.linalg")


def _module(span_name: str) -> str:
    return span_name.rsplit(".", 1)[0]


def _dist(values_us) -> tuple[float, float, int]:
    """Median, 99th percentile and count; zeros when there are no values."""
    v = np.asarray(values_us, float)
    if not len(v):
        return 0.0, 0.0, 0
    return float(np.median(v)), float(np.percentile(v, 99)), len(v)


def per_layer(tracer, traced: list, plain: list) -> dict[str, tuple[float, str]]:
    _, dur, _, raised = tracer.columns()
    self_t = tracer.self_times()
    n_rounds = len(traced)
    steps = sum(r.steps for r in traced)
    out: dict[str, tuple[float, str]] = {}

    def put_dist(base: str, values_us) -> None:
        med, p99, n = _dist(values_us)
        out[f"{base}_us"] = (med, "us")
        out[f"{base}_p99_us"] = (p99, "us")
        out[f"{base}_calls"] = (n / n_rounds, "count")

    for name in PER_CALL:
        put_dist(name, dur[tracer.ids(name)] * 1e6)

    def busy(module: str) -> float:
        """Seconds with a span of ``module`` open (outermost spans only)."""
        own = [n for n in tracer.names if _module(n) == module]
        idx = np.concatenate([tracer.ids(n) for n in own]) if own else np.array([], int)
        outer = np.ones(len(idx), bool)
        for n in own:
            outer &= ~tracer.under(idx, n)
        return float(dur[idx[outer]].sum()) / n_rounds

    n_loss = len(tracer.ids("dynamics.loss"))
    out["dynamics.loss_calls_per_step"] = (n_loss / steps if steps else 0.0, "count")
    out["dynamics.busy_s"] = (busy("dynamics"), "s")

    records = tracer.ids("monitors.record")
    out["monitors.busy_s"] = (busy("monitors"), "s")
    guards = np.concatenate([tracer.ids("monitors.skew_error"), tracer.ids("monitors.uv_terms")])
    out["monitors.guard_trips"] = (float(raised[guards].sum()) / n_rounds, "count")
    fact = np.concatenate([tracer.ids(n) for n in FACTORIZATIONS])
    in_record = int(tracer.under(fact, "monitors.record").sum())
    out["monitors.factorizations_per_record"] = (
        in_record / len(records) if len(records) else 0.0, "count",
    )

    runs = [i for i in tracer.ids("lab.run_scenario") if tracer.notes.get(i)]
    put_dist("lab.step_self", [self_t[i] * 1e6 / tracer.notes[i] for i in runs])
    csv = tracer.ids("lab.csv_write")
    out["lab.csv_write_s"] = (float(dur[csv].sum()) / n_rounds, "s")
    out["lab.csv_bytes"] = (tracer.csv_bytes / n_rounds, "B")

    # A chunk's note: (sum of steps_run, longest steps_run x chunk size).
    chunks = [i for i in tracer.ids("lab.run_chunk") if i in tracer.notes and tracer.notes[i][0]]
    put_dist("lab.seed_step", [dur[i] * 1e6 / tracer.notes[i][0] for i in chunks])
    cells = sum(tracer.notes[i][1] for i in chunks)
    seed_steps = sum(tracer.notes[i][0] for i in chunks)
    out["lab.batch_occupancy"] = (seed_steps / cells if cells else 0.0, "ratio")
    sweeps = tracer.ids("lab.sweep_convergence")
    out["lab.sweep_dispatch_s"] = (float(self_t[sweeps].sum()) / n_rounds, "s")

    out["cli.main_self_s"] = (float(self_t[tracer.ids("cli.main")].sum()) / n_rounds, "s")

    # Each traced round against the untraced round just before it, in
    # scaled CPU seconds like the end-to-end metrics: the machine's speed
    # drifts less between neighbours than over the run.  The untraced
    # round's scale serves both, since traced rounds run no calibration.
    overhead = statistics.median((t.cpu_s - p.cpu_s) * p.scale for t, p in zip(traced, plain))
    out["trace.overhead_s"] = (overhead, "s")
    return out


def report(tracer, stream) -> None:
    """Self time per layer, summed over the traced rounds."""
    names, dur, _, _ = tracer.columns()
    self_t = tracer.self_times()
    print("self time per layer (all traced rounds):", file=stream)
    for module in MODULES:
        nids = [i for i, n in enumerate(tracer.names) if _module(n) == module]
        t = float(self_t[np.isin(names, nids)].sum())
        print(f"  {module:14s} {t:10.4f} s", file=stream)
