"""Tests for the trajectory monitors."""

import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from factorlab import monitors
from factorlab.dynamics import (
    DynConfig,
    LayerStack,
    TargetSpec,
    _kernel,
    _left_product,
    gd_step,
    loss,
    product,
)
from factorlab.ensembles import InitScheme, balanced_init, gaussian_matrix, haar_unitary, make_rng
from factorlab.errors import IllConditionedError, NotReducedError, NotUnitaryError
from factorlab.lab import prepare_problem, preset
from factorlab.linalg import FieldTag, adjoint, det_sign_or_phase, norms, svd
from factorlab.monitors import (
    SvdTrack,
    TrajectoryRecord,
    _block_match,
    _greedy_match,
    _tracks,
    balance_errors,
    eig_sandwich_check,
    layer_extremes,
    main_term_sigma_min,
    record,
    record_to_csv_row,
    records,
    csv_columns,
    skew_error,
    track_svd,
    uv_terms,
)

FIELDS = (FieldTag.REAL, FieldTag.COMPLEX)


def record_stack(step, time, stack, target, cfg, prev_track=None):
    """``record`` for a caller that holds only a stack: its losses, then the record."""
    return record(step, time, stack, *loss(stack, target, cfg)[:2], target, prev_track)


class TestBalanceErrors:
    def test_balanced_init_is_balanced(self):
        st = balanced_init(5, 4, InitScheme(kind="balanced", epsilon=0.05), FieldTag.REAL, make_rng(1))
        _, e = balance_errors(st)
        assert e < 1e-12 * 5 * 0.05**2

    def test_direct_example(self):
        st = LayerStack((np.eye(2), 2.0 * np.eye(2)))
        deltas, e = balance_errors(st)
        np.testing.assert_allclose(deltas[0], -3.0 * np.eye(2))
        assert abs(e - 3.0 * np.sqrt(2)) < 1e-12

    def test_deltas_hermitian(self):
        rng = make_rng(2)
        st = LayerStack(tuple(gaussian_matrix(4, FieldTag.COMPLEX, rng) for _ in range(4)))
        deltas, _ = balance_errors(st)
        for dl in deltas:
            assert np.linalg.norm(dl - adjoint(dl)) < 1e-14 * (1 + np.linalg.norm(dl))


class TestSkewError:
    def test_scaled_identity_stack(self):
        for c in (0.5, 2.0):
            st = LayerStack(tuple(c * np.eye(3) for _ in range(4)))
            assert skew_error(st) < 1e-12

    def test_direct_example(self):
        st = LayerStack((2.0 * np.eye(3), np.eye(3), np.eye(3), np.eye(3)))
        assert abs(skew_error(st) - np.sqrt(3)) < 1e-12

    def test_triangle_bound_on_balanced_init(self):
        st = balanced_init(5, 4, InitScheme(kind="balanced", epsilon=0.05), FieldTag.COMPLEX, make_rng(3))
        w1 = st.layers[0]
        w1p = np.linalg.solve(st.layers[1], adjoint(st.layers[2]) @ adjoint(st.layers[3]))
        val = skew_error(st)
        assert np.isfinite(val)
        assert val <= np.linalg.norm(w1) + np.linalg.norm(w1p) + 1e-12

    def test_matches_explicit_inverse_assembly(self):
        rng = make_rng(4)
        st = LayerStack(tuple(gaussian_matrix(4, FieldTag.COMPLEX, rng) for _ in range(4)))
        direct = np.linalg.norm(
            st.layers[0] - np.linalg.inv(st.layers[1]) @ adjoint(st.layers[2]) @ adjoint(st.layers[3])
        )
        assert abs(skew_error(st) - direct) < 1e-12 * (1 + direct)

    def test_ill_conditioned_guard(self):
        st = LayerStack((np.eye(3), np.zeros((3, 3)), np.eye(3), np.eye(3)))
        with pytest.raises(IllConditionedError):
            skew_error(st)

    def test_depth_guard(self):
        st = LayerStack((np.eye(2), np.eye(2)))
        with pytest.raises(ValueError):
            skew_error(st)


class TestMainTerm:
    def test_scaled_identity(self):
        st = LayerStack(tuple(1.5 * np.eye(4) for _ in range(4)))
        assert abs(main_term_sigma_min(st) - 3.0) < 1e-12

    def test_nonnegative_and_cross_checked(self):
        rng = make_rng(5)
        st = LayerStack(tuple(gaussian_matrix(5, FieldTag.REAL, rng) for _ in range(4)))
        val = main_term_sigma_min(st)
        assembled = st.layers[0] + np.linalg.inv(st.layers[1]) @ adjoint(st.layers[2]) @ adjoint(st.layers[3])
        assert val >= 0.0
        assert abs(val - norms(assembled).sigma_min) < 1e-10 * (1 + val)

    def test_balanced_detminus_is_singular(self):
        # exact balance with negative product determinant forces a zero mode
        rng = make_rng(6)
        for _ in range(20):
            st = balanced_init(5, 4, InitScheme(kind="balanced", epsilon=0.5), FieldTag.REAL, rng)
            if np.linalg.det(product(st)) < 0:
                assert main_term_sigma_min(st) < 1e-10
                return
        raise AssertionError("no negative-determinant draw in 20 tries")


class TestTrackSvd:
    def test_identity(self):
        tr = track_svd(np.eye(5), 4)
        np.testing.assert_allclose(tr.sigma_w, np.ones(5))
        assert not tr.aligned

    def test_quartic_roots(self):
        tr = track_svd(np.diag([16.0, 81.0]), 4)
        np.testing.assert_allclose(tr.sigma_w, [3.0, 2.0])

    def test_reconstruction_preserved_by_alignment(self):
        rng = make_rng(7)
        w1 = gaussian_matrix(5, FieldTag.COMPLEX, rng)
        w2 = w1 + 1e-3 * gaussian_matrix(5, FieldTag.COMPLEX, rng)
        t1 = track_svd(w1, 4)
        t2 = track_svd(w2, 4, prev=t1)
        assert np.linalg.norm(t2.reconstruct() - w2) < 1e-8 * (1 + np.linalg.norm(w2))
        assert t2.aligned

    def test_continuity_small_step(self):
        rng = make_rng(8)
        w1 = gaussian_matrix(5, FieldTag.REAL, rng)
        w2 = w1 + 1e-5 * gaussian_matrix(5, FieldTag.REAL, rng)
        t1 = track_svd(w1, 4)
        t2 = track_svd(w2, 4, prev=t1)
        overlaps = np.sum(np.conj(t1.u) * t2.u, axis=0)
        assert np.all(overlaps.real > 0.9)
        # permutation is the identity: sigma_w stays descending
        assert np.all(np.diff(t2.sigma_w) <= 1e-12)

    def test_crossing_keeps_identity(self):
        # two singular values cross between steps; tracking follows the columns
        u = np.eye(2)
        t1 = track_svd(np.diag([2.0, 1.0]), 1, prev=None)
        t2 = track_svd(np.diag([0.9, 1.8]), 1, prev=t1)
        np.testing.assert_allclose(t2.sigma_w, [0.9, 1.8])


def _full_scan_greedy(overlap: np.ndarray) -> np.ndarray:
    """Every cell, largest first and ties in row-major order, taken if row and column are free."""
    d = len(overlap)
    perm = np.full(d, -1)
    rows: set[int] = set()
    cols: set[int] = set()
    for _, i, j in sorted((-overlap[i, j], i, j) for i in range(d) for j in range(d)):
        if i not in rows and j not in cols:
            perm[i] = j
            rows.add(i)
            cols.add(j)
    return perm


@hst.composite
def _overlaps(draw) -> np.ndarray:
    # Few distinct values, so that most matrices hold tied overlaps.
    d = draw(hst.integers(1, 6))
    values = hst.sampled_from([0.0, 0.25, 0.5, 1.0]) | hst.floats(0.0, 1.0)
    return np.array(draw(hst.lists(values, min_size=d * d, max_size=d * d))).reshape(d, d)


class TestGreedyMatch:
    @settings(max_examples=200, deadline=None)
    @given(_overlaps())
    @example(np.eye(5))
    @example(np.ones((4, 4)))
    @example(np.full((3, 3), 0.5) + np.diag([0.0, 0.5, 0.0]))
    def test_matches_full_scan(self, overlap):
        perm = _greedy_match(overlap)
        np.testing.assert_array_equal(perm, _full_scan_greedy(overlap))
        assert sorted(perm) == list(range(len(overlap)))


class TestBlockMatch:
    @pytest.mark.parametrize("offset, decided", [(1e-14, False), (1e-9, True)])
    def test_margin(self, offset, decided):
        # u turns a plane of the previous u = I by pi/4 + offset, so two of
        # its rows' top two overlaps differ by about 1.4 offset.
        c, s = np.cos(np.pi / 4 + offset), np.sin(np.pi / 4 + offset)
        u = np.eye(5)
        u[:2, :2] = [[c, -s], [s, c]]
        chain = _block_match(np.abs(u)[None], 0)
        if decided:
            np.testing.assert_array_equal(chain, [np.arange(5), _greedy_match(np.abs(u))])
            assert chain[1].tolist() == [1, 0, 2, 3, 4]
        else:
            assert chain is None


class TestUvTerms:
    def test_aligned(self):
        q = haar_unitary(4, FieldTag.COMPLEX, make_rng(9))
        sw = np.array([2.0, 1.0, 0.5, 0.1])
        from factorlab.monitors import SvdTrack

        tr = SvdTrack(u=q, sigma_w=sw, v=q, n_layers=4, aligned=False)
        half, skew = uv_terms(tr, TargetSpec.identity(4))
        np.testing.assert_allclose(half, sw, atol=1e-12)
        assert skew < 1e-24

    def test_anti_aligned(self):
        q = haar_unitary(4, FieldTag.REAL, make_rng(10))
        sw = np.array([2.0, 1.0, 0.5, 0.1])
        from factorlab.monitors import SvdTrack

        tr = SvdTrack(u=q, sigma_w=sw, v=-q, n_layers=4, aligned=False)
        half, skew = uv_terms(tr, TargetSpec.identity(4))
        np.testing.assert_allclose(half, np.zeros(4), atol=1e-12)
        assert skew > 0

    def test_columnwise_expansion_oracle(self):
        # with identity target: skew_uv = sum_k sigma_w_k^2 ||u_k - v_k||^2
        rng = make_rng(11)
        u = haar_unitary(5, FieldTag.COMPLEX, rng)
        v = haar_unitary(5, FieldTag.COMPLEX, rng)
        sw = np.abs(rng.standard_normal(5))
        from factorlab.monitors import SvdTrack

        tr = SvdTrack(u=u, sigma_w=sw, v=v, n_layers=4, aligned=False)
        _, skew = uv_terms(tr, TargetSpec.identity(5))
        expected = sum(
            sw[k] ** 2 * np.linalg.norm(u[:, k] - v[:, k]) ** 2 for k in range(5)
        )
        assert abs(skew - expected) < 1e-10 * (1 + expected)

    def test_requires_reduced(self):
        from factorlab.monitors import SvdTrack

        q = np.eye(3)
        tr = SvdTrack(u=q, sigma_w=np.ones(3), v=q, n_layers=4, aligned=False)
        with pytest.raises(NotReducedError):
            uv_terms(tr, TargetSpec(np.ones((3, 3)), reduced=False))


class TestEigSandwich:
    def test_aligned(self):
        q = haar_unitary(5, FieldTag.COMPLEX, make_rng(12))
        s = np.abs(make_rng(13).standard_normal(5))
        assert eig_sandwich_check(q, q, s)

    def test_anti_aligned(self):
        q = haar_unitary(5, FieldTag.REAL, make_rng(14))
        s = np.abs(make_rng(15).standard_normal(5))
        assert eig_sandwich_check(q, -q, s)

    def test_random_instances(self):
        rng = make_rng(16)
        for k in range(100):
            field = FIELDS[k % 2]
            u = haar_unitary(5, field, rng)
            v = haar_unitary(5, field, rng)
            s = np.abs(rng.standard_normal(5))
            assert eig_sandwich_check(u, v, s)

    def test_not_unitary_rejected(self):
        with pytest.raises(NotUnitaryError):
            eig_sandwich_check(np.diag([2.0, 1.0]), np.eye(2), np.ones(2))


class TestLayerExtremes:
    def test_identity_layers(self):
        st = LayerStack(tuple(np.eye(3) for _ in range(4)))
        assert layer_extremes(st) == (1.0, 1.0)

    def test_direct(self):
        st = LayerStack((np.diag([2.0, 1.0]), np.diag([3.0, 0.5])))
        assert layer_extremes(st) == (3.0, 0.5)


class TestRecord:
    def _cfg(self):
        return DynConfig(reg_a=1.0, eta=0.1)

    def test_balanced_step0(self):
        st = balanced_init(5, 4, InitScheme(kind="balanced", epsilon=0.05), FieldTag.REAL, make_rng(17))
        rec, tr = record_stack(0, 0.0, st, TargetSpec.identity(5), self._cfg(), None)
        assert rec.e_delta < 1e-12
        assert rec.l_reg < 1e-24
        assert rec.skew_err is not None and rec.main_sv_min is not None
        assert rec.half_sum_sv is not None and rec.skew_uv is not None
        assert rec.det_ind in (1.0, -1.0)

    def test_zero_stack_absent_flags(self):
        st = LayerStack(tuple(np.zeros((4, 4)) for _ in range(4)))
        rec, _ = record_stack(0, 0.0, st, TargetSpec.identity(4), self._cfg(), None)
        assert rec.skew_err is None and rec.main_sv_min is None
        row = record_to_csv_row(rec, 4)
        assert ",," in row  # absent fields serialize empty

    def test_determinism(self):
        rng = make_rng(18)
        st = LayerStack(tuple(gaussian_matrix(4, FieldTag.COMPLEX, rng) for _ in range(4)))
        r1, _ = record_stack(3, 0.3, st, TargetSpec.identity(4), self._cfg(), None)
        r2, _ = record_stack(3, 0.3, st, TargetSpec.identity(4), self._cfg(), None)
        assert record_to_csv_row(r1, 4) == record_to_csv_row(r2, 4)

    def test_csv_row_absent_fields_and_complex_det(self):
        # numpy scalars and arrays in, shortest round-trip reprs of Python numbers out
        rec = TrajectoryRecord(
            step=1200,
            time=np.float64(1.2000000000000002),
            l_ori=np.float64(0.49999999999999994),
            l_reg=0.0,
            e_delta=np.float64(3.1e-17),
            sig_max=np.float64(1.0488088481701516),
            sig_min=np.float64(1e-300),
            skew_err=None,
            main_sv_min=None,
            det_ind=complex(0.6, -0.8),
            sigma_w=np.array([1.25, 0.1 + 0.2, 5e-324, 7.0, 2.0 / 3.0]),
            half_sum_sv=None,
            skew_uv=None,
        )
        assert record_to_csv_row(rec, 5) == (
            "1200,1.2000000000000002,0.49999999999999994,0.0,3.1e-17,1.0488088481701516,"
            "1e-300,,,(0.6-0.8j),1.25,0.30000000000000004,5e-324,7.0,0.6666666666666666,"
            ",,,,,"
        )

    def test_csv_columns_are_the_documented_header(self):
        assert ",".join(csv_columns(5)) == (
            "step,time,l_ori,l_reg,e_delta,sig_max,sig_min,skew_err,main_sv_min,det_ind,"
            "sigma_w_0,sigma_w_1,sigma_w_2,sigma_w_3,sigma_w_4,"
            "half_sum_sv_0,half_sum_sv_1,half_sum_sv_2,half_sum_sv_3,half_sum_sv_4,skew_uv"
        )

    def test_csv_row_shape(self):
        st = balanced_init(5, 4, InitScheme(kind="balanced", epsilon=0.05), FieldTag.REAL, make_rng(19))
        rec, _ = record_stack(0, 0.0, st, TargetSpec.identity(5), self._cfg(), None)
        cols = csv_columns(5)
        row = record_to_csv_row(rec, 5)
        assert len(row.split(",")) == len(cols)
        assert cols[0] == "step" and cols[-1] == "skew_uv"

    @pytest.mark.parametrize("field", FIELDS)
    def test_tracks_the_left_associated_product(self, field):
        # The tracked SVD is of ``dynamics.product``, ((W_4 W_3) W_2) W_1, not
        # of the kernel's right-associated W_4 (W_3 (W_2 W_1)): the two differ
        # in the last bits, and trajectory CSVs are pinned to the first.
        st = LayerStack(tuple(gaussian_matrix(5, field, make_rng(21)) for _ in range(4)))
        w1, w2, w3, w4 = st.layers
        assert not np.array_equal(w4 @ (w3 @ (w2 @ w1)), product(st))
        _, track = record_stack(0, 0.0, st, TargetSpec.identity(5), self._cfg(), None)
        want = track_svd(product(st), 4)
        assert np.array_equal(track.sigma_w, want.sigma_w) and np.array_equal(track.u, want.u)

    def test_track_passes_through_gd(self):
        # records along a short GD run stay finite and tracked
        st = balanced_init(5, 4, InitScheme(kind="balanced", epsilon=0.05), FieldTag.REAL, make_rng(20))
        target = TargetSpec.identity(5)
        cfg = DynConfig(reg_a=0.0, eta=0.1)
        track = None
        for step in range(20):
            rec, track = record_stack(step, step * 0.1, st, target, cfg, track)
            st = gd_step(st, target, cfg)
        assert track.aligned


@hst.composite
def _record_blocks(draw):
    """One problem's stacks and losses at K steps near each other, some with a rank-deficient W_2."""
    field = draw(hst.sampled_from(FIELDS))
    n = draw(hst.sampled_from([3, 4]))
    k = draw(hst.integers(1, 6))
    rng = make_rng(draw(hst.integers(0, 2**32 - 1)))
    d = 4
    base = [gaussian_matrix(d, field, rng) for _ in range(n)]
    drift = [gaussian_matrix(d, field, rng) for _ in range(n)]
    trips = draw(hst.lists(hst.booleans(), min_size=k + 1, max_size=k + 1))
    stacks = []
    for j, trip in enumerate(trips):
        layers = [b + 0.02 * j * dr for b, dr in zip(base, drift)]
        if trip:
            layers[1][:, -1] = 0.0
        stacks.append(LayerStack(tuple(layers)))
    if draw(hst.booleans()):
        target = TargetSpec(gaussian_matrix(d, field, rng), reduced=False)
    else:
        target = TargetSpec.diagonal(np.abs(rng.standard_normal(d)))
    cfg = DynConfig(reg_a=draw(hst.sampled_from([0.0, 1.0])))
    losses = [loss(st, target, cfg)[:2] for st in stacks]
    # The step before the block gives the track the block follows, or none.
    prev = record(9, 0.9, stacks[0], *losses[0], target, None)[1] if draw(hst.booleans()) else None
    return stacks[1:], losses[1:], target, prev, trips[1:]


class TestRecords:
    @settings(max_examples=80, deadline=None)
    @given(_record_blocks())
    def test_block_equals_sequential_records(self, block):
        stacks, losses, target, prev, trips = block
        steps = list(range(10, 10 + len(stacks)))
        times = [0.1 * s for s in steps]
        l_ori, l_reg = zip(*losses)
        got = records(steps, times, np.stack([st.layers for st in stacks]), l_ori, l_reg, target, prev)
        assert len(got) == len(stacks)
        track = prev
        for (rec, tr), step, time, st, (lo, lr), trip in zip(got, steps, times, stacks, losses, trips):
            want, track = record(step, time, st, lo, lr, target, track)
            assert record_to_csv_row(rec, 4) == record_to_csv_row(want, 4)
            for name in ("u", "v", "sigma_w"):
                assert np.array_equal(getattr(tr, name), getattr(track, name))
            assert tr.aligned == track.aligned
            assert (rec.skew_err is None) == (st.depth != 4 or trip)
            assert (rec.half_sum_sv is None) == (not target.reduced)

    def test_guard_warnings_once_per_block(self, caplog):
        target = TargetSpec(np.eye(4), reduced=False)
        zero = LayerStack(tuple(np.zeros((4, 4)) for _ in range(4)))
        clean = balanced_init(4, 4, InitScheme(kind="balanced", epsilon=0.3), FieldTag.REAL, make_rng(22))
        cfg = DynConfig(reg_a=1.0)
        stacks = (zero, clean, zero, clean, zero)
        l_ori, l_reg, _ = zip(*(loss(st, target, cfg) for st in stacks))
        w = np.stack([st.layers for st in stacks])
        with caplog.at_level(logging.WARNING, logger="factorlab"):
            block = records([10, 11, 12, 13, 14], [0.0] * 5, w, l_ori, l_reg, target)
        assert [rec.skew_err is None for rec, _ in block] == [True, False, True, False, True]
        assert all(rec.half_sum_sv is None and rec.skew_uv is None for rec, _ in block)
        assert [r.getMessage() for r in caplog.records] == [
            "steps 10-14: W_2 ill-conditioned in 3 of 5 records, skew/main-term absent",
            "steps 10-14: target not reduced, uv terms absent in 5 records",
        ]


# ---------------------------------------------------------------------------
# The record path as it was before the block path: tracks aligned record by
# record, the uv terms and the det indicator built track by track.  The
# block path must reproduce its every bit.  The greedy match is the full
# scan, which ``_greedy_match`` equals, shortcut or not.
# ---------------------------------------------------------------------------


def _ref_tracks(w, n_layers, prev):
    r = svd(w)
    tracks = []
    for u, s, v in zip(r.u, r.s, r.v):
        if prev is not None:
            overlap = np.abs(adjoint(prev.u) @ u)
            perm = _full_scan_greedy(overlap)
            u, s, v = u[:, perm], s[perm], v[:, perm]
            z = np.sum(np.conj(prev.u) * u, axis=0)  # diag(prev.u^H @ u)
            mags = np.abs(z)
            phase = np.where(mags > 0, np.conj(z) / np.where(mags > 0, mags, 1.0), 1.0)
            u = u * phase
            v = v * phase
        sigma_w = s ** (1.0 / n_layers)
        prev = SvdTrack(u=u, sigma_w=sigma_w, v=v, n_layers=n_layers, aligned=prev is not None)
        tracks.append(prev)
    return tracks


def _ref_uv_terms(tracks, target):
    root = np.sqrt(np.diagonal(target.matrix).real)
    halves, skew_uv = [], []
    for t in tracks:
        halves.append(0.5 * (t.u + t.v) * t.sigma_w)
        skew = (t.u - t.v) * t.sigma_w
        skew_uv.append(float(np.linalg.norm(skew * root[:, None]) ** 2))
    return np.linalg.svd(np.stack(halves), compute_uv=False), skew_uv


def _ref_det_ind(tracks):
    return det_sign_or_phase(np.stack([adjoint(t.u) @ t.v for t in tracks])).tolist()


def _run_layers(cfg, records, stride=1):
    """``(records, N, d, d)`` layers of a preset problem at every ``stride``-th step of its dynamics, as the run loop steps them."""
    target, stack, _ = prepare_problem(cfg)
    kernel = _kernel(stack.layers[None], target.matrix[None], cfg.dyn, block=stride)
    out = []
    for _ in range(records):
        out.append(kernel.own_layers(0))
        kernel.advance(stride)
    return target, np.stack(out)


def _blocks_against_reference(target, layers, fresh, track=None):
    """Records of 64-step blocks and the reference's; a block in ``fresh`` opens without a track, the first otherwise follows ``track``."""
    ref_track = track
    for i, start in enumerate(range(0, len(layers), 64)):
        w = layers[start : start + 64]
        if i in fresh:
            track = ref_track = None
        steps = list(range(start, start + len(w)))
        zeros = [0.0] * len(w)
        got = records(steps, zeros, w, zeros, zeros, target, track)
        want = _ref_tracks(_left_product(np.moveaxis(w, 1, 0)), w.shape[1], ref_track)
        halves, skew_uv = _ref_uv_terms(want, target)
        det_ind = _ref_det_ind(want)
        for k, ((rec, tr), ref) in enumerate(zip(got, want)):
            for name in ("u", "v", "sigma_w"):
                assert getattr(tr, name).tobytes() == getattr(ref, name).tobytes(), (steps[k], name)
            assert tr.aligned == ref.aligned
            assert rec.sigma_w.tobytes() == ref.sigma_w.tobytes()
            assert rec.half_sum_sv.tobytes() == halves[k].tobytes(), steps[k]
            assert repr(rec.skew_uv) == repr(skew_uv[k]), steps[k]
            assert repr(rec.det_ind) == repr(det_ind[k] or 0.0), steps[k]
        track, ref_track = got[-1][1], want[-1]


class TestBlockPathBits:
    """Records of blocks of 64 match the record-by-record reference bit for bit."""

    @pytest.mark.parametrize("variant", [0, 2], ids=["real", "complex"])
    @pytest.mark.parametrize(
        "integrator, steps", [pytest.param("flow_rk4", 256, id="rk4"), pytest.param("gd", 200, id="gd")]
    )
    def test_matches_reference(self, integrator, steps, variant):
        cfg = preset("fig-h1", seed=11)[variant]
        cfg = replace(cfg, dyn=replace(cfg.dyn, integrator=integrator, step_h=0.1))
        target, layers = _run_layers(cfg, steps)
        _blocks_against_reference(target, layers, fresh={0, 2})

    @staticmethod
    def _count_greedy(monkeypatch):
        """The calls of ``_greedy_match``, which only the record-by-record alignment makes."""
        calls = []

        def greedy(overlap):
            calls.append(1)
            return _greedy_match(overlap)

        monkeypatch.setattr(monitors, "_greedy_match", greedy)
        return calls

    def test_undecided_stretch(self, monkeypatch):
        # fig-h1's det<0 run, recorded every 100 steps as the preset records
        # it.  On records 64-127 four singular values of W have met at 1,
        # where its SVD's u turns freely, and rows' maxima collide, so that
        # block is aligned record by record; the block before it is decided.
        target, layers = _run_layers(preset("fig-h1", seed=2024)[1], 128, stride=100)
        calls = self._count_greedy(monkeypatch)
        _blocks_against_reference(target, layers, fresh={0})
        assert len(calls) == 64

    @pytest.mark.parametrize("field", FIELDS)
    def test_exact_ties(self, monkeypatch, field):
        # Identity and zero products have u = I; against a previous u of
        # +-1/2 entries every overlap ties, and greedy takes them in index order.
        d = 4
        half = 0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], field.dtype)
        prev = SvdTrack(u=half, sigma_w=np.ones(d), v=half, n_layers=4, aligned=True)
        eye, zero = np.eye(d, dtype=field.dtype), np.zeros((d, d), field.dtype)
        layers = np.array([[m] * 4 for m in (eye, zero, eye, eye, zero, zero, eye, zero)])
        calls = self._count_greedy(monkeypatch)
        _blocks_against_reference(TargetSpec.identity(d), layers, fresh=set(), track=prev)
        assert len(calls) == len(layers)


class _Calls:
    """numpy as ``monitors`` sees it, noting the name of every function called through it."""

    def __init__(self):
        self.names = []

    def __getattr__(self, name):
        fn = getattr(np, name)
        if not callable(fn) or isinstance(fn, type):  # a dtype such as np.intp passes through
            return fn

        def call(*args, **kwargs):
            self.names.append(name)
            return fn(*args, **kwargs)

        return call


class TestTrackCalls:
    @pytest.mark.parametrize("opens", [False, True], ids=["follows", "opens"])
    def test_decided_real_block_calls_do_not_grow_with_k(self, monkeypatch, opens):
        # A decided real block aligns all its records in stacked calls, so
        # its numpy calls are the same at any K.
        cfg = preset("fig-h1", seed=11)[0]
        cfg = replace(cfg, dyn=replace(cfg.dyn, integrator="flow_rk4", step_h=0.1))
        target, layers = _run_layers(cfg, 65)
        w = _left_product(np.moveaxis(layers, 1, 0))
        prev = None if opens else _tracks(w[:1], 4, None)[0][0]
        spy = _Calls()
        monkeypatch.setattr(monitors, "np", spy)
        names = []
        for k in (8, 64):
            spy.names.clear()
            _tracks(w[1 : 1 + k], 4, prev)
            names.append(list(spy.names))
        assert names[0] == names[1]
