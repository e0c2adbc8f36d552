"""Trajectory monitors: every theory-bearing quantity along an optimization run.

Covers the aggregate balance defect, the two four-layer diagnostics built on
``W_2^{-1} W_3^H W_4^H`` (skew error and Hermitian main term), a
continuity-tracked SVD of the product matrix, the ``(U+V)`` / ``(U-V)``
singular-value terms, per-layer extreme singular values, and the assembly of
one CSV row per recorded step.

:func:`record` reuses the evaluation the run loop made of the step's layers
(the loss terms and, with the regularizer on, the balance defects) and does
five factorizations per record: one batched SVD of all layers, one solve for
``W_2^{-1} W_3^H W_4^H``, and the SVDs of the main term, the product and the
half-sum term.

``W_2^{-1}`` is always applied through linear solves.  When ``W_2`` is too
ill-conditioned (condition number >= 1e12) the two diagnostics are reported
as absent rather than aborting the run, so saddle trajectories still produce
records.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    LayerStack,
    TargetSpec,
    _defects,
    _Evaluation,
    _left_product,
    balance_deltas,
)
# Not called here: the benchmark's tracer wraps it under this name.
from .dynamics import loss  # noqa: F401
from .errors import IllConditionedError, NotReducedError, NotUnitaryError
from .linalg import adjoint, det_sign_or_phase, hermitian_eig, svd

__all__ = [
    "SvdTrack",
    "TrajectoryRecord",
    "COND_GUARD",
    "balance_errors",
    "skew_error",
    "main_term_sigma_min",
    "track_svd",
    "uv_terms",
    "eig_sandwich_check",
    "layer_extremes",
    "record",
    "csv_columns",
    "record_to_csv_row",
]

logger = logging.getLogger("factorlab")

COND_GUARD = 1e12


def _defect_size(deltas) -> float:
    """Aggregate Frobenius size of the balance defects: each norm squared, then summed."""
    return float(np.sqrt(sum(np.linalg.norm(dl) ** 2 for dl in deltas)))


def balance_errors(stack: LayerStack) -> tuple[list[np.ndarray], float]:
    """Adjacent balance defects and their aggregate Frobenius size e_delta."""
    deltas = balance_deltas(stack)
    return deltas, _defect_size(deltas)


def _w1_prime(w: np.ndarray, sv2: np.ndarray | None = None) -> np.ndarray:
    """``W_2^{-1} W_3^H W_4^H`` of a ``(4, d, d)`` layer array by linear solve; guards on cond(W_2).

    ``sv2`` are the singular values of ``W_2`` when the caller has them.
    """
    if w.shape[0] != 4:
        raise ValueError("this diagnostic is defined for four-layer stacks")
    w1, w2, w3, w4 = w
    sv = np.linalg.svd(w2, compute_uv=False) if sv2 is None else sv2
    if sv[-1] <= 0 or sv[0] / sv[-1] >= COND_GUARD:
        raise IllConditionedError("W_2 condition number exceeds guard")
    return np.linalg.solve(w2, adjoint(w3) @ adjoint(w4))


def _skew_error(w1: np.ndarray, w1p: np.ndarray) -> float:
    return float(np.linalg.norm(w1 - w1p))


def _main_term_sigma_min(w1: np.ndarray, w1p: np.ndarray) -> float:
    return float(np.linalg.svd(w1 + w1p, compute_uv=False)[-1])


def skew_error(stack: LayerStack) -> float:
    """``||W_1 - W_2^{-1} W_3^H W_4^H||_F``: the unbalanced skew-alignment error."""
    return _skew_error(stack.layers[0], _w1_prime(np.stack(stack.layers)))


def main_term_sigma_min(stack: LayerStack) -> float:
    """``sigma_min(W_1 + W_2^{-1} W_3^H W_4^H)``: the saddle-avoidance certificate."""
    return _main_term_sigma_min(stack.layers[0], _w1_prime(np.stack(stack.layers)))


@dataclass(frozen=True)
class SvdTrack:
    """SVD of the product matrix with per-layer root, aligned for continuity.

    ``w = u @ diag(sigma_w ** n_layers) @ v^H``; when built against a previous
    track, columns are permuted by greedy overlap matching and phase-rotated
    so ``Re(diag(u_prev^H u)) > 0``, preserving the decomposition exactly.
    """

    u: np.ndarray
    sigma_w: np.ndarray
    v: np.ndarray
    n_layers: int
    aligned: bool

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma_w**self.n_layers) @ adjoint(self.v)


def _greedy_match(overlap: np.ndarray) -> np.ndarray:
    """Permutation pi with pi[k] = new column matched to previous column k.

    Picks the globally largest |overlap| first; ties resolved by row-major
    index order (stable), which matches degenerate clusters in index order.
    """
    d = overlap.shape[0]
    order = np.argsort(-overlap, axis=None, kind="stable").tolist()
    perm = np.full(d, -1)
    used_rows = [False] * d
    used_cols = [False] * d
    matched = 0
    for flat in order:
        i, j = divmod(flat, d)
        if not used_rows[i] and not used_cols[j]:
            perm[i] = j
            used_rows[i] = used_cols[j] = True
            matched += 1
            if matched == d:
                break
    return perm


def track_svd(w: np.ndarray, n_layers: int, prev: SvdTrack | None = None) -> SvdTrack:
    """SVD of the product with singular values reported as per-layer roots.

    Without ``prev``: descending order.  With ``prev``: columns permuted and
    phase-fixed to follow the previous track through crossings; each column
    pair ``(u_k, v_k)`` is multiplied by one unit scalar, so the
    reconstruction is untouched.
    """
    r = svd(w)
    u, s, v = r.u, r.s, r.v
    if prev is not None:
        overlap = np.abs(adjoint(prev.u) @ u)
        perm = _greedy_match(overlap)
        u, s, v = u[:, perm], s[perm], v[:, perm]
        z = np.sum(np.conj(prev.u) * u, axis=0)  # diag(prev.u^H @ u)
        mags = np.abs(z)
        phase = np.where(mags > 0, np.conj(z) / np.where(mags > 0, mags, 1.0), 1.0)
        u = u * phase
        v = v * phase
    sigma_w = s ** (1.0 / n_layers)
    return SvdTrack(u=u, sigma_w=sigma_w, v=v, n_layers=n_layers, aligned=prev is not None)


def uv_terms(track: SvdTrack, target: TargetSpec) -> tuple[np.ndarray, float]:
    """Half-sum singular values and the weighted skew term of the tracked SVD.

    Returns ``(half_sum_sv, skew_uv)`` where ``half_sum_sv`` holds the
    descending singular values of ``(U+V) diag(sigma_w) / 2`` and
    ``skew_uv = ||Sigma^(1/2) (U-V) diag(sigma_w)||_F^2``.  Requires a reduced
    target (its diagonal supplies ``Sigma^(1/2)``).
    """
    if not target.reduced:
        raise NotReducedError("uv_terms requires a reduced (diagonal) target")
    sw = track.sigma_w
    half = 0.5 * (track.u + track.v) * sw
    half_sum_sv = np.linalg.svd(half, compute_uv=False)
    root = np.sqrt(np.diagonal(target.matrix).real)
    skew = (track.u - track.v) * sw
    skew_uv = float(np.linalg.norm(skew * root[:, None]) ** 2)
    return half_sum_sv, skew_uv


def eig_sandwich_check(u: np.ndarray, v: np.ndarray, s: np.ndarray) -> bool:
    """Eigenvalue sandwich for ``P = ((U+V)/2) S ((U+V)/2)^H`` against ``S = diag(s)``.

    Checks, for eigenvalues sorted descending and
    ``t = ||((U-V)/2) S ((U-V)/2)^H||_op``:

        lambda_k(P) <= lambda_k(S) <= 2 * (lambda_k(P) + t)   for k < d
        lambda_d(P) <= lambda_d(S) <= lambda_d(P) + t         for k = d

    with absolute-plus-relative tolerance 1e-10.
    """
    d = u.shape[0]
    eye = np.eye(d)
    for name, q in (("u", u), ("v", v)):
        if np.linalg.norm(adjoint(q) @ q - eye) >= 1e-8:
            raise NotUnitaryError(f"eig_sandwich_check: {name} is not unitary")
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise ValueError("s must be non-negative")
    m_plus = 0.5 * (u + v)
    m_minus = 0.5 * (u - v)
    p = (m_plus * s) @ adjoint(m_plus)
    lam_p, _ = hermitian_eig(p)
    lam_s = np.sort(s)[::-1]
    t = float(np.linalg.svd((m_minus * s) @ adjoint(m_minus), compute_uv=False)[0])
    tol = 1e-10 * (1.0 + float(lam_s[0]))
    for k in range(d):
        if lam_p[k] > lam_s[k] + tol:
            return False
        upper = lam_p[k] + t if k == d - 1 else 2.0 * (lam_p[k] + t)
        if lam_s[k] > upper + tol:
            return False
    return True


def _extremes(svs: np.ndarray) -> tuple[float, float]:
    """Largest and smallest entry of per-layer descending singular values ``(N, d)``."""
    return float(svs[:, 0].max()), float(svs[:, -1].min())


def layer_extremes(stack: LayerStack) -> tuple[float, float]:
    """Largest and smallest singular value over all layers."""
    return _extremes(np.linalg.svd(np.stack(stack.layers), compute_uv=False))


@dataclass(frozen=True)
class TrajectoryRecord:
    """One monitored time slice; ``None`` marks a tripped guard (absent value)."""

    step: int
    time: float
    l_ori: float
    l_reg: float
    e_delta: float
    sig_max: float
    sig_min: float
    skew_err: float | None
    main_sv_min: float | None
    det_ind: float | complex
    sigma_w: np.ndarray
    half_sum_sv: np.ndarray | None
    skew_uv: float | None


def record(
    step: int,
    time: float,
    ev: _Evaluation,
    target: TargetSpec,
    prev_track: SvdTrack | None = None,
) -> tuple[TrajectoryRecord, SvdTrack]:
    """Assemble all monitors for one step; returns the record and the new track.

    ``ev`` is the dynamics kernel's evaluation of the step's layers against
    ``target``, the one the run loop steps from: the loss terms come from it,
    and so do the balance defects when the regularizer is on.  A caller
    holding only a stack evaluates it first (``dynamics._evaluate_stack``).

    Guard trips (ill-conditioned ``W_2``, unreduced target) downgrade the
    affected fields to absent instead of raising.  A record makes five
    factorizations: one batched SVD of all layers, one solve for
    ``W_2^{-1} W_3^H W_4^H``, and the main-term, product and half-sum SVDs.
    """
    w = ev.w
    l_ori, l_reg = float(ev.l_ori), float(ev.l_reg)
    e_delta = _defect_size(_defects(w) if ev.deltas is None else ev.deltas)
    svs = np.linalg.svd(w, compute_uv=False)
    sig_max, sig_min = _extremes(svs)

    skew: float | None = None
    main_sv: float | None = None
    if len(w) == 4:
        try:
            w1p = _w1_prime(w, svs[1])
            skew = _skew_error(w[0], w1p)
            main_sv = _main_term_sigma_min(w[0], w1p)
        except IllConditionedError:
            logger.warning("step %d: W_2 ill-conditioned, skew/main-term absent", step)

    # Associated from the left like ``dynamics.product``, not ``ev.suffix[-1]``.
    track = track_svd(_left_product(w), len(w), prev_track)

    half_sum: np.ndarray | None = None
    skew_uv: float | None = None
    try:
        half_sum, skew_uv = uv_terms(track, target)
    except NotReducedError:
        logger.warning("step %d: target not reduced, uv terms absent", step)

    det_ind = det_sign_or_phase(adjoint(track.u) @ track.v)
    rec = TrajectoryRecord(
        step=step,
        time=time,
        l_ori=l_ori,
        l_reg=l_reg,
        e_delta=e_delta,
        sig_max=sig_max,
        sig_min=sig_min,
        skew_err=skew,
        main_sv_min=main_sv,
        det_ind=det_ind,
        sigma_w=track.sigma_w.copy(),
        half_sum_sv=half_sum,
        skew_uv=skew_uv,
    )
    return rec, track


def csv_columns(d: int) -> list[str]:
    """Fixed CSV column order for a dimension-d run."""
    cols = [
        "step",
        "time",
        "l_ori",
        "l_reg",
        "e_delta",
        "sig_max",
        "sig_min",
        "skew_err",
        "main_sv_min",
        "det_ind",
    ]
    cols += [f"sigma_w_{k}" for k in range(d)]
    cols += [f"half_sum_sv_{k}" for k in range(d)]
    cols.append("skew_uv")
    return cols


def _fmt(x: float | complex | None) -> str:
    if x is None:
        return ""
    return repr(x) if isinstance(x, complex) else repr(float(x))


def record_to_csv_row(rec: TrajectoryRecord, d: int) -> str:
    """Serialize one record; absent values become empty fields.

    Numbers are written as the shortest round-trip ``repr`` of a Python int,
    float or complex, never of a numpy scalar (``np.float64(...)``).
    """
    scalars = (
        rec.time,
        rec.l_ori,
        rec.l_reg,
        rec.e_delta,
        rec.sig_max,
        rec.sig_min,
        rec.skew_err,
        rec.main_sv_min,
        rec.det_ind,
    )
    fields = [str(rec.step)] + [_fmt(x) for x in scalars]
    fields += map(repr, rec.sigma_w[:d].tolist())
    if rec.half_sum_sv is None:
        fields += [""] * d
    else:
        fields += map(repr, rec.half_sum_sv[:d].tolist())
    fields.append(_fmt(rec.skew_uv))
    return ",".join(fields)
