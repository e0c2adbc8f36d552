"""Trajectory monitors: every theory-bearing quantity along an optimization run.

Covers the aggregate balance defect, the two four-layer diagnostics built on
``W_2^{-1} W_3^H W_4^H`` (skew error and Hermitian main term), a
continuity-tracked SVD of the product matrix, the ``(U+V)`` / ``(U-V)``
singular-value terms, per-layer extreme singular values, and the assembly of
one CSV row per recorded step.

:func:`records` computes the records of a block of K recorded steps of one
problem, and :func:`record` is a block of one.  They take the steps' layers
in the problem's own field with the loss terms the run loop evaluated
there, compute the balance defects of those layers in that field (one
stacked call for the block), and make each factorization once per block,
not once per record: one SVD of all layers of the K steps, one solve for
``W_2^{-1} W_3^H W_4^H`` on the steps whose ``W_2`` passes the guard, one SVD each of the K main terms, products
and half-sum terms, and one ``slogdet``.  Each is one LAPACK call per
matrix, so a record is bitwise the one its step gets in a block of one.

The tracked SVD's column match comes from one stacked overlap of each
record's ``u`` with the one before it, when that overlap decides every
record's match; a real block's phases are then signs, accumulated over the
block, and its tracks are stacked numpy calls throughout.  What still runs
record by record: a complex block's phases, each of which depends on the
rounded ``u`` before it, and the whole alignment of a block holding an
undecided record, such as one where singular values meet.  Per block, as
stacked numpy calls, run the rest of the tracks (``v``, ``s`` and
``sigma_w`` gathered and phased with the steps' permutations and phases),
the half-sum and weighted skew terms, and the ``U^H V`` products of the
det indicator.

Layout rule: a skew norm sums its matrix in memory order, as
``np.linalg.norm`` does, so it follows the layout of each track's own
arrays.  An aligned track's ``u`` and ``v`` are column-major, as a column
gather leaves them; a run's first track, which nothing precedes, keeps the
SVD's layout, ``u`` row-major and ``v`` the adjoint view of ``v^H``, and its
skew sums row-major.  Building the stacked terms row-major throughout
would move ``skew_uv`` in its last bits.

``W_2^{-1}`` is always applied through linear solves.  When ``W_2`` is too
ill-conditioned (condition number >= 1e12) the two diagnostics are reported
as absent rather than aborting the run, so saddle trajectories still produce
records.  A block logs one warning per guard kind, with its step range and
the number of records the guard tripped in.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from typing import NamedTuple, get_args, get_type_hints

import numpy as np

from .dynamics import LayerStack, TargetSpec, _defects, _frobenius, _left_product
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
    "records",
    "csv_columns",
    "record_to_csv_row",
]

logger = logging.getLogger("factorlab")

COND_GUARD = 1e12


def _defect_size(deltas: np.ndarray) -> np.ndarray:
    """Aggregate Frobenius size of ``(..., N-1, d, d)`` balance defects: each norm squared, then summed.

    ``np.float_power`` squares with libm ``pow``, as ``n ** 2`` on a scalar
    does; ``**`` on an array multiplies, which can round differently.
    """
    sq = np.float_power(_frobenius(deltas), 2)
    return np.sqrt(sum(sq[..., j] for j in range(sq.shape[-1])))


def balance_errors(stack: LayerStack) -> tuple[np.ndarray, float]:
    """Adjacent balance defects ``(N-1, d, d)`` and their aggregate Frobenius size e_delta."""
    deltas = _defects(stack.layers)
    return deltas, float(_defect_size(deltas))


def _diagnostics(
    w: np.ndarray, sv2: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Skew errors and main-term ``sigma_min`` of a ``(K, 4, d, d)`` layer array.

    ``W_2^{-1} W_3^H W_4^H`` is solved for only on the rows whose ``W_2``
    passes the condition guard, since a stacked solve raises on any singular
    matrix.  Returns the guard mask and the two diagnostics of those rows.
    ``sv2`` are the singular values of the ``W_2`` when the caller has them.
    """
    if w.shape[-3] != 4:
        raise ValueError("this diagnostic is defined for four-layer stacks")
    sv = np.linalg.svd(w[:, 1], compute_uv=False) if sv2 is None else sv2
    ok = sv[:, -1] > 0
    ok[ok] = sv[ok, 0] / sv[ok, -1] < COND_GUARD
    w1p = np.linalg.solve(w[ok, 1], adjoint(w[ok, 2]) @ adjoint(w[ok, 3]))
    w1 = w[ok, 0]
    return ok, _frobenius(w1 - w1p), np.linalg.svd(w1 + w1p, compute_uv=False)[:, -1]


def _diagnostics_of(stack: LayerStack) -> tuple[float, float]:
    ok, skew, main = _diagnostics(stack.layers[None])
    if not ok[0]:
        raise IllConditionedError("W_2 condition number exceeds guard")
    return float(skew[0]), float(main[0])


def skew_error(stack: LayerStack) -> float:
    """``||W_1 - W_2^{-1} W_3^H W_4^H||_F``: the unbalanced skew-alignment error."""
    return _diagnostics_of(stack)[0]


def main_term_sigma_min(stack: LayerStack) -> float:
    """``sigma_min(W_1 + W_2^{-1} W_3^H W_4^H)``: the saddle-avoidance certificate."""
    return _diagnostics_of(stack)[1]


class SvdTrack(NamedTuple):
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
    When the first-occurrence maxima of the rows fall in distinct columns
    and no overlap is NaN, that is the match: each row's maximum comes
    before every other cell of its row, and no other row takes its column.
    """
    d = overlap.shape[0]
    first = overlap.argmax(axis=1)
    if len(set(first.tolist())) == d and not np.isnan(overlap.max()):
        return first
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


# A row's largest overlap beats its runner-up by more than this, or the
# block is aligned record by record.  The stacked overlap and the one of the
# aligned ``u`` differ by a few ulps (a d-term dot of unit columns, about
# 1.3e-15 at d = 5), so above it both rows have the same maximum.
_MATCH_MARGIN = 1e-12


def _block_match(overlap: np.ndarray, first: int) -> np.ndarray | None:
    """Every record's greedy match from the stacked ``|U_{i-1}^H U_i|`` of raw SVD ``u``, or None.

    ``overlap[j]`` compares record ``first + j`` with the one before it (the
    block's previous track for ``j = first = 0``).  A record is decided when
    each row's maximum is in its own column and beats the row's runner-up
    by more than ``_MATCH_MARGIN``; then the greedy match against the
    aligned ``u`` is that row maximum, taken through the previous record's
    permutation.  Returns ``(K + 1, d)`` permutations, row 0 the identity of
    the track before the block and row ``i + 1`` record ``i``'s, when every
    record is decided.
    """
    m, d, _ = overlap.shape
    best = overlap.argmax(axis=-1)
    top = np.sort(overlap, axis=-1)[..., -2:]
    if not (np.diff(top) > _MATCH_MARGIN).all() or not (np.sort(best, axis=-1) == np.arange(d)).all():
        return None
    chain = np.empty((m + first + 1, d), np.intp)
    chain[: first + 1] = np.arange(d)
    chain[first + 1 :] = best
    for i in range(first + 1, m + first + 1):
        chain[i] = chain[i][chain[i - 1]]
    return chain


def _gather(x: np.ndarray, perms: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """The columns of each ``x[i]`` permuted by ``perms[i]`` and phased, column-major as a column gather leaves them."""
    # Gathered as rows of x^T, then phased.
    g = x.swapaxes(1, 2)[np.arange(len(x))[:, None], perms]
    np.multiply(g, phases[:, :, None], out=g)
    return g.swapaxes(1, 2)


def _tracks(
    w: np.ndarray, n_layers: int, prev: SvdTrack | None
) -> tuple[list[SvdTrack], np.ndarray, np.ndarray, np.ndarray]:
    """Tracked SVDs of a ``(K, d, d)`` run of products, each following the one before.

    One SVD of all K products, and one stacked overlap of each record's raw
    ``u`` with the one before it.  When that overlap decides every record's
    column match (:func:`_block_match`), the matches are its row maxima.  A
    real phase is then the sign of the matched overlap, accumulated over
    the block, and multiplying by it is exact, so ``u`` is gathered and
    phased for the whole block.  A complex phase depends on the rounded
    ``u`` before it, so it runs record by record: the gather, the diagonal
    of ``prev_u^H u``, the phase and the product.  A block holding an
    undecided record, such as one where singular values meet, aligns every
    record this way and matches it by :func:`_greedy_match` of its overlap
    with the aligned ``u`` before it.  ``v``, ``s`` and ``sigma_w`` are
    gathered and phased for the whole block.  Returns the tracks and their
    ``u``, ``v`` and ``sigma_w`` stacked.

    An aligned track's ``u`` and ``v`` are column-major, as a column gather
    leaves them.  A run's first track (no ``prev``) keeps the SVD's layout:
    ``u`` row-major and ``v`` the adjoint view of ``v^H``.
    """
    r = svd(w)
    k, d = r.s.shape
    first = 1 if prev is None else 0
    before = r.u[:-1] if prev is None else np.concatenate((prev.u[None], r.u[:-1]))
    overlap = adjoint(before) @ r.u[first:]
    chain = _block_match(np.abs(overlap), first)
    if chain is not None and not np.iscomplexobj(overlap):
        perms = chain[1:]
        flips = np.ones((k, d))
        flips[first:] = np.sign(overlap[np.arange(k - first)[:, None], chain[first:-1], perms[first:]])
        phases = np.cumprod(flips, axis=0)
        us = _gather(r.u, perms, phases)
    else:
        # Each u^T in a row-major buffer, so each u has a column gather's strides.
        us = np.empty((k, d, d), r.u.dtype).swapaxes(1, 2)
        perms = np.empty((k, d), np.intp) if chain is None else chain[1:]
        phases = np.empty((k, d), r.u.dtype)
        if prev is None:
            perms[0], phases[0], us[0] = np.arange(d), 1.0, r.u[0]
            prev_u = r.u[0]
        else:
            prev_u = prev.u
        for i in range(first, k):
            c = np.conj(prev_u)
            perm = _greedy_match(np.abs(c.T @ r.u[i])) if chain is None else perms[i]
            u = r.u[i][:, perm]
            z = (c * u).sum(0)  # diag(prev_u^H @ u)
            mags = np.abs(z)
            if mags.all():
                phase = np.conj(z) / mags
            else:
                phase = np.where(mags > 0, np.conj(z) / np.where(mags > 0, mags, 1.0), 1.0)
            prev_u = np.multiply(u, phase, out=us[i])
            perms[i], phases[i] = perm, phase
    sigma_w = r.s[np.arange(k)[:, None], perms] ** (1.0 / n_layers)
    vs = _gather(r.v, perms, phases)
    tracks = [SvdTrack(u, s, v, n_layers, True) for u, s, v in zip(us, sigma_w, vs)]
    if prev is None:
        tracks[0] = SvdTrack(r.u[0], sigma_w[0], r.v[0], n_layers, False)
    return tracks, us, vs, sigma_w


def track_svd(w: np.ndarray, n_layers: int, prev: SvdTrack | None = None) -> SvdTrack:
    """SVD of the product with singular values reported as per-layer roots.

    Without ``prev``: descending order.  With ``prev``: columns permuted and
    phase-fixed to follow the previous track through crossings; each column
    pair ``(u_k, v_k)`` is multiplied by one unit scalar, so the
    reconstruction is untouched.
    """
    return _tracks(w[None], n_layers, prev)[0][0]


def _column_major(t: SvdTrack) -> bool:
    """Whether numpy lays an elementwise result of ``t.u`` and ``t.v`` out column-major.

    It does only where both are, and ``np.linalg.norm`` sums such a result
    in that memory order.
    """
    return all(abs(x.strides[0]) < abs(x.strides[1]) for x in (t.u, t.v))


def _uv_terms(
    u: np.ndarray, v: np.ndarray, sigma_w: np.ndarray, columns: list[bool], target: TargetSpec
) -> tuple[np.ndarray, list[float]]:
    """Half-sum singular values ``(K, d)``, from one SVD, and ``skew_uv`` of K stacked tracks.

    ``u``, ``v`` and ``sigma_w`` are the tracks' arrays stacked, and
    ``columns`` marks the tracks whose own arrays are column-major
    (:func:`_column_major`).  Each skew norm is one dot summed in its
    track's memory order, as ``np.linalg.norm`` of the track's own arrays
    sums it.
    """
    if not target.reduced:
        raise NotReducedError("uv_terms requires a reduced (diagonal) target")
    root = np.sqrt(np.diagonal(target.matrix).real)
    sigma_w = sigma_w[:, None, :]
    halves = 0.5 * (u + v) * sigma_w
    skew = (u - v) * sigma_w * root[:, None]
    skew = np.where(np.array(columns)[:, None, None], skew.swapaxes(1, 2), skew)
    return np.linalg.svd(halves, compute_uv=False), np.float_power(_frobenius(skew), 2).tolist()


def uv_terms(track: SvdTrack, target: TargetSpec) -> tuple[np.ndarray, float]:
    """Half-sum singular values and the weighted skew term of the tracked SVD.

    Returns ``(half_sum_sv, skew_uv)`` where ``half_sum_sv`` holds the
    descending singular values of ``(U+V) diag(sigma_w) / 2`` and
    ``skew_uv = ||Sigma^(1/2) (U-V) diag(sigma_w)||_F^2``.  Requires a reduced
    target (its diagonal supplies ``Sigma^(1/2)``).
    """
    columns = [_column_major(track)]
    half_sum_sv, skew_uv = _uv_terms(track.u[None], track.v[None], track.sigma_w[None], columns, target)
    return half_sum_sv[0], skew_uv[0]


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


def _extremes(svs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest and smallest entry of per-layer descending singular values ``(..., N, d)``."""
    return svs[..., 0].max(axis=-1), svs[..., -1].min(axis=-1)


def layer_extremes(stack: LayerStack) -> tuple[float, float]:
    """Largest and smallest singular value over all layers."""
    hi, lo = _extremes(np.linalg.svd(stack.layers, compute_uv=False))
    return float(hi), float(lo)


class TrajectoryRecord(NamedTuple):
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


def records(
    steps: list[int],
    times: list[float],
    w: np.ndarray,
    l_ori: Sequence[float],
    l_reg: Sequence[float],
    target: TargetSpec,
    prev_track: SvdTrack | None = None,
) -> list[tuple[TrajectoryRecord, SvdTrack]]:
    """Assemble all monitors for a block of K recorded steps of one problem.

    ``w[k]`` holds the ``(N, d, d)`` layers at ``steps[k]``, in the
    problem's own field, and ``l_ori[k]`` and ``l_reg[k]`` the dynamics
    kernel's loss terms there against ``target``, the ones the run loop
    steps from.  The balance defects are computed from the layers, so
    ``e_delta`` is :func:`balance_errors`' value.  ``prev_track`` is the
    track of the step before the block.  Returns ``(record, track)`` per
    step, in step order, each track following the one before.

    Each factorization is made once for the whole block: one SVD of all
    layers (the extremes and ``W_2``'s condition guard), one solve for
    ``W_2^{-1} W_3^H W_4^H`` on the steps that pass the guard, and one SVD
    each of the main terms, the left-associated products and the half-sum
    terms, then one ``slogdet``.  Every matrix gets its own LAPACK call, so
    each record is bitwise the one :func:`record` makes of its step alone.

    Guard trips (ill-conditioned ``W_2``, unreduced target) downgrade the
    affected fields to absent instead of raising, with one warning per
    block and guard kind.
    """
    n = len(steps)
    e_delta = _defect_size(_defects(w)).tolist()
    svs = np.linalg.svd(w, compute_uv=False)
    sig_max, sig_min = (x.tolist() for x in _extremes(svs))
    span = f"steps {steps[0]}-{steps[-1]}"

    skew: list[float | None] = [None] * n
    main_sv: list[float | None] = [None] * n
    if w.shape[1] == 4:
        ok, skew_ok, main_ok = _diagnostics(w, svs[:, 1])
        for k, a, b in zip(np.flatnonzero(ok).tolist(), skew_ok.tolist(), main_ok.tolist()):
            skew[k], main_sv[k] = a, b
        if not ok.all():
            logger.warning(
                "%s: W_2 ill-conditioned in %d of %d records, skew/main-term absent",
                span, n - int(ok.sum()), n,
            )

    # Associated from the left like ``dynamics.product``.
    tracks, u, v, sigma_w = _tracks(_left_product(np.moveaxis(w, 1, 0)), w.shape[1], prev_track)

    half_sum: list[np.ndarray | None] = [None] * n
    skew_uv: list[float | None] = [None] * n
    if target.reduced:
        # Aligned tracks are column-major; a run's first keeps the SVD's layout.
        columns = [True] * n
        columns[0] = prev_track is not None
        hs, skew_uv = _uv_terms(u, v, sigma_w, columns, target)
        half_sum = list(hs)
    else:
        logger.warning("%s: target not reduced, uv terms absent in %d records", span, n)

    # A singular complex matrix reads 0.0, not 0j.
    det_ind = [x or 0.0 for x in det_sign_or_phase(adjoint(u) @ v).tolist()]
    # The records' sigma_w is a copy of the tracks', and the fields go in in their order.
    recs = map(
        TrajectoryRecord, steps, times, map(float, l_ori), map(float, l_reg), e_delta, sig_max, sig_min,
        skew, main_sv, det_ind, sigma_w.copy(), half_sum, skew_uv,
    )
    return list(zip(recs, tracks))


def record(
    step: int,
    time: float,
    stack: LayerStack,
    l_ori: float,
    l_reg: float,
    target: TargetSpec,
    prev_track: SvdTrack | None = None,
) -> tuple[TrajectoryRecord, SvdTrack]:
    """Assemble all monitors for one step: :func:`records` on a block of one.

    ``l_ori`` and ``l_reg`` are the loss terms at ``stack``, as
    :func:`dynamics.loss` gives them: the kernel does real arithmetic only,
    so a complex stack's are its embedding's, halved.  The monitors
    themselves read ``stack`` in its own field.  Returns the record and the
    new track.  Each of the block's factorizations (the layer SVD, the
    solve, the main-term, product and half-sum SVDs and the ``slogdet``) is
    made once per block, here for this step alone.
    """
    return records([step], [time], stack.layers[None], [l_ori], [l_reg], target, prev_track)[0]


# The CSV columns are the record's fields in order.  A field is an int, a
# number or absent, or an array of d values in columns ``<name>_0`` to
# ``<name>_{d-1}``.
_CSV_FIELDS = tuple(
    (name, "int" if t is int else "array" if np.ndarray in (t, *get_args(t)) else "number")
    for name, t in get_type_hints(TrajectoryRecord).items()
)


def csv_columns(d: int) -> list[str]:
    """Fixed CSV column order for a dimension-d run."""
    cols: list[str] = []
    for name, kind in _CSV_FIELDS:
        cols += [f"{name}_{k}" for k in range(d)] if kind == "array" else [name]
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
    cells: list[str] = []
    for (_, kind), x in zip(_CSV_FIELDS, rec):
        if kind == "number":
            cells.append(_fmt(x))
        elif kind == "int":
            cells.append(str(x))
        elif x is None:
            cells += [""] * d
        else:
            cells += map(repr, x[:d].tolist())
    return ",".join(cells)
