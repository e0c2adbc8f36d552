"""Output checks for the benchmark workloads.

Each check takes the program's outputs as data (parsed CSV rows, summary
fields, sweep outcomes) and returns a list of problems, empty when the
output is correct.  The checks compare against the independent reference
in ``reference.py`` or against properties the method must have, never
against a stored copy of earlier output.
"""

from __future__ import annotations

import numpy as np

# Relative tolerance between the program's l_ori and the reference's over
# the first recorded rows: both sum the same terms in a different order, so
# they agree to rounding, amplified a little over a few hundred steps.
REF_RTOL = 1e-9
# Steps by which the reference's first converged step may differ from the
# program's steps_run: rounding differences shift a saddle escape slightly.
REF_STEP_TOL = 0.002


def documented_columns(d: int) -> list[str]:
    """The trajectory CSV header as the README documents it."""
    return (
        "step,time,l_ori,l_reg,e_delta,sig_max,sig_min,skew_err,main_sv_min,det_ind".split(",")
        + [f"sigma_w_{k}" for k in range(d)]
        + [f"half_sum_sv_{k}" for k in range(d)]
        + ["skew_uv"]
    )


def parse_trajectory_csv(text: str) -> tuple[list[str], dict[str, np.ndarray]]:
    """Header and real-valued columns; empty fields (tripped guards) are NaN.

    ``det_ind`` is complex on the complex field and is read as a complex.
    """
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    cells = [ln.split(",") for ln in lines[1:]]
    cols: dict[str, np.ndarray] = {}
    for k, name in enumerate(header):
        conv = complex if name == "det_ind" else float
        cols[name] = np.array([conv(r[k]) if k < len(r) and r[k] else np.nan for r in cells])
    return header, cols


def parse_summary(text: str) -> dict[str, str]:
    """``key = value`` lines of a run summary, up to its ``[config]`` echo."""
    out = {}
    for line in text.splitlines():
        if line.startswith("["):
            break
        if " = " in line:
            key, val = line.split(" = ", 1)
            out[key] = val
    return out


def _rel(a, b) -> np.ndarray:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return np.abs(a - b) / np.maximum(np.abs(b), 1e-300)


def trajectory_shape(header, cols, d: int, stride: int, steps_run: int) -> list[str]:
    """Documented header; one row per stride plus the final row."""
    problems = []
    if header != documented_columns(d):
        problems.append("CSV header differs from the documented columns")
        return problems
    want = list(range(0, steps_run + 1, stride))
    if want[-1] != steps_run:
        want.append(steps_run)
    if len(cols["step"]) != len(want) or np.any(cols["step"] != want):
        problems.append(f"CSV has {len(cols['step'])} rows, expected {len(want)} at stride {stride}")
    return problems


def reference_rows(l_ori_rows, ref_l_ori) -> list[str]:
    """The CSV's first ``len(ref_l_ori)`` l_ori values match the reference."""
    k = len(ref_l_ori)
    got = np.asarray(l_ori_rows[:k])
    if len(got) < k:
        return [f"CSV has fewer than {k} rows to compare with the reference"]
    err = _rel(got, ref_l_ori).max()
    if not err <= REF_RTOL:
        return [f"l_ori of the first {k} rows differs from the reference by {err:.2e} relative"]
    return []


def converged_run(status: str, final_l_ori: float, eps_conv: float) -> list[str]:
    if status != "converged" or not final_l_ori < eps_conv:
        return [f"expected converged with l_ori < {eps_conv}, got {status} at {final_l_ori!r}"]
    return []


def plateau_run(final_l_ori: float, half_sum_min) -> list[str]:
    """det<0 balanced run: stuck on the sigma_1^2/2 plateau, zero half-sum mode."""
    problems = []
    if not final_l_ori >= 0.5 - 1e-6:
        problems.append(f"det<0 run left the plateau: final l_ori {final_l_ori!r}")
    hs = np.asarray(half_sum_min)
    if not np.all(hs < 1e-8):  # NaN (absent value) fails too
        problems.append(f"smallest half-sum singular value reached {np.nanmax(hs):.2e} (>= 1e-8)")
    return problems


def flow_conservation(cols) -> list[str]:
    """Criterion-2 properties of an RK4 flow trajectory recorded every step."""
    problems = []
    e = cols["e_delta"]
    if not np.all(e < 1e-8):
        problems.append(f"balance defect e_delta reached {np.nanmax(e):.2e} (>= 1e-8)")
    for name, tol in (("l_ori", 1e-10), ("skew_uv", 1e-8)):
        x = cols[name]
        rises = np.count_nonzero(~(x[1:] <= x[:-1] + tol * (1 + x[:-1])))
        if rises:
            problems.append(f"{name} rose by more than {tol:g} relative on {rises} rows")
    return problems


def det_sign(det_w0, initial_product: np.ndarray) -> list[str]:
    """Reported det indicator equals the sign (phase) of det of the initial product."""
    det = np.linalg.det(initial_product)
    if np.iscomplexobj(initial_product):
        ok = det != 0 and abs(complex(det_w0) - det / abs(det)) < 1e-9
    else:
        ok = det_w0 == np.sign(det) and det != 0
    return [] if ok else [f"det_w0 {det_w0!r} but det(W(0)) = {det!r}"]


def sweep_seed(status: str, det_w0, initial_product, balanced_real: bool) -> list[str]:
    problems = det_sign(det_w0, initial_product)
    if status == "diverged":
        problems.append("seed diverged")
    if balanced_real and np.real(det_w0) < 0 and status == "converged":
        problems.append("det<0 seed converged under balanced init")
    return problems


def reference_convergence(steps_run, ref_first) -> list[str]:
    """Reference GD reaches l_ori < eps_conv at the reported step, within tolerance."""
    tol = max(1, int(REF_STEP_TOL * steps_run))
    if ref_first < 0 or abs(ref_first - steps_run) > tol:
        return [f"reference converges at step {ref_first}, program reports {steps_run} (tolerance {tol})"]
    return []


def fraction_at_least(label: str, converged: int, total: int, bound: float) -> list[str]:
    if total == 0 or converged / total < bound:
        return [f"{label} fraction {converged}/{total} below {bound}"]
    return []
