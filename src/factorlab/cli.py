"""Command-line driver.

Subcommands: ``run`` (one scenario or a preset family), ``sweep``
(convergence probability over seeds), ``rmt-validate`` (random-matrix
statistics battery), ``gradcheck`` (finite-difference gradient check),
``plots`` (emit a plotting script for a trajectory CSV).

Exit codes: 0 ok, 1 config error, 2 diverged, 3 validation failure.  A
usage error (unknown flag, invalid choice, malformed number) is a config
error, and so is a problem too large for memory.  ``LAB_THREADS`` caps
sweep parallelism.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError, FactorLabError, MalformedCSVError
from .lab import (
    CONFIG_KEYS,
    PRESET_NAMES,
    SWEEP_CSV_COLUMNS,
    RunConfig,
    build_config,
    check_distinct_names,
    emit_plots,
    gradcheck,
    make_out_dir,
    parse_config_file,
    preset,
    rmt_validate,
    run_scenarios,
    sweep_convergence,
    sweep_csv_row,
)
# Not called here: the benchmark's tracer wraps it under this name.
from .lab import run_scenario  # noqa: F401
from .linalg import FieldTag

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_VALIDATION = 3


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors as config errors; argparse's own code 2 means diverged."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="flat key=value config file")
    p.add_argument("--preset", choices=PRESET_NAMES, help="named experiment preset")
    p.add_argument("--field", choices=["real", "complex"], help="scalar field")
    p.add_argument("--seed", type=int, help="64-bit base seed")
    p.add_argument("--det", choices=["plus", "minus"], help="initial det(U^T V) sign")
    p.add_argument("--steps", type=int, help="step budget override")
    p.add_argument("--out", type=Path, default=Path("out"), help="output directory")


def _collect_overrides(args: argparse.Namespace) -> dict[str, str]:
    over: dict[str, str] = {}
    if args.config:
        over.update(parse_config_file(args.config))
    if args.field:
        over["field"] = args.field
    if args.seed is not None:
        over["seed"] = str(args.seed)
    if args.det:
        over["det"] = args.det
    if args.steps is not None:
        over["steps"] = str(args.steps)
    return over


def _configs_from_args(args: argparse.Namespace, sweep: bool = False) -> list[RunConfig]:
    """Configs the flags select; a ``sweep`` merges det variants unless ``--det`` is given."""
    over = _collect_overrides(args)
    if args.preset:
        cfgs = preset(args.preset)
        # Narrow the preset family by explicit flags, --field first, then
        # apply overrides; the flags' own keys are spent on the narrowing.
        # A flag keeps the variants that have its value, or gives it to
        # every variant where none has it.
        if args.field:
            field = FieldTag.parse(over.pop("field"))
            cfgs = [c for c in cfgs if c.field is field] or [replace(c, field=field) for c in cfgs]
        if args.det:
            # The real configs left are the wanted det variant, or a preset
            # without det variants, which takes the sign.
            want = CONFIG_KEYS["det"].parse(args.det)
            cfgs = [
                replace(c, det_sign=want) if c.field is FieldTag.REAL else c
                for c in cfgs
                if c.det_sign in (want, None)
            ]
            over.pop("det")
        elif sweep:
            # Leave the det sign to each seed: the real variants become one sweep.
            merged = [replace(c, name=c.name.rsplit("-det", 1)[0], det_sign=None) for c in cfgs]
            cfgs = [c for i, c in enumerate(merged) if c not in merged[:i]]
        return [build_config(over, base=c) for c in cfgs]
    return [build_config(over)]


def _cmd_run(args: argparse.Namespace) -> int:
    worst = EXIT_OK
    for summary in run_scenarios(_configs_from_args(args), out_dir=args.out):
        print(
            f"{summary.name}: {summary.status} after {summary.steps_run} steps, "
            f"l_ori={summary.final_l_ori:.3e}, wall={summary.wall_time_s:.2f}s -> {summary.csv_path}"
        )
        if summary.status == "diverged":
            worst = max(worst, EXIT_DIVERGED)
    return worst


def _share(converged: int, seeds: int) -> str:
    """``converged/seeds (fraction=...)``, the fraction ``n/a`` for a class with no seeds."""
    fraction = f"{converged / seeds:.3f}" if seeds else "n/a"
    return f"{converged}/{seeds} (fraction={fraction})"


def _cmd_sweep(args: argparse.Namespace) -> int:
    bases = _configs_from_args(args, sweep=True)
    check_distinct_names(bases, "their sweep.csv rows could not be told apart")
    # Config echo: each base config's block rebuilds it as a config file.
    comments = [f"# factorlab sweep, seeds = {args.seeds}"]
    for base in bases:
        comments.append(f"# [base {base.name}]")
        comments += [f"# {item}" for item in base.echo()]
    table = [SWEEP_CSV_COLUMNS]
    with make_out_dir(args.out, ["sweep.csv"]) as out:
        for base in bases:
            result = sweep_convergence(base, args.seeds)
            converged, seeds = result.tally()
            print(
                f"sweep({base.name}, field={base.field.value}): {converged}/{seeds} "
                f"converged, fraction={converged / seeds:.3f}"
            )
            plus, minus = result.tally(+1), result.tally(-1)
            if plus[1] or minus[1]:
                print(f"  det>0: {_share(*plus)}; det<0: {_share(*minus)}")
            table += [sweep_csv_row(base.name, o) for o in result.outcomes]
        path = out / "sweep.csv"
        # Quoted where needed: a config name may hold a comma.
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(comments) + "\n")
            csv.writer(fh, lineterminator="\n").writerows(table)
        print(f"  per-seed results -> {path}")
    return EXIT_OK


def _cmd_rmt_validate(args: argparse.Namespace) -> int:
    results = rmt_validate(d=args.d, n_samples=args.samples, seed=args.seed, out_dir=args.out)
    ok = True
    for r in results:
        verdict = "pass" if r.passed else "FAIL"
        print(f"[{verdict}] {r.name}: {r.statistic:.6g} {r.rule} {r.threshold:.6g} ({r.detail})")
        ok = ok and r.passed
    return EXIT_OK if ok else EXIT_VALIDATION


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    ok = True
    for field in (FieldTag.REAL, FieldTag.COMPLEX) if args.field is None else (FieldTag.parse(args.field),):
        report = gradcheck(args.d, args.n_layers, field, args.a, args.seed)
        verdict = "pass" if report.passed else "FAIL"
        print(
            f"[{verdict}] gradcheck d={args.d} N={args.n_layers} field={field.value} "
            f"a={args.a}: max relative error {report.max_rel_err:.3e}"
        )
        ok = ok and report.passed
    return EXIT_OK if ok else EXIT_VALIDATION


def _cmd_plots(args: argparse.Namespace) -> int:
    script = emit_plots(args.csv, args.script)
    print(f"plot script -> {script}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _ArgumentParser(
        prog="factorlab",
        description="Gradient dynamics laboratory for deep matrix factorization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario or a preset family")
    _add_config_flags(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="convergence-probability seed sweep")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--seeds", type=int, default=100, help="number of seeds")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_rmt = sub.add_parser("rmt-validate", help="random-matrix statistics battery")
    p_rmt.add_argument("--d", type=int, default=5, help="dimension of every check but the CRE density")
    p_rmt.add_argument("--samples", type=int, default=2000, help="samples of the CUE uniformity check")
    p_rmt.add_argument("--seed", type=int, default=0)
    p_rmt.add_argument("--out", type=Path, default=None)
    p_rmt.set_defaults(fn=_cmd_rmt_validate)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p_grad.add_argument("--d", type=int, default=4)
    p_grad.add_argument("--n-layers", type=int, default=4)
    p_grad.add_argument("--field", choices=["real", "complex"], default=None)
    p_grad.add_argument("--a", type=float, default=1.0)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(fn=_cmd_gradcheck)

    p_plots = sub.add_parser("plots", help="emit a plotting script for a trajectory CSV")
    p_plots.add_argument("csv", type=Path)
    p_plots.add_argument("--script", type=Path, default=None)
    p_plots.set_defaults(fn=_cmd_plots)

    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MalformedCSVError as exc:
        print(f"malformed CSV: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FactorLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
