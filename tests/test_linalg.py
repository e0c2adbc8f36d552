"""Tests for the field-generic linear algebra layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab.errors import (
    NonFiniteError,
    NotHermitianError,
    NotPSDError,
    PreconditionViolatedError,
    RankDeficientError,
    SingularError,
)
from factorlab.linalg import (
    FieldTag,
    adjoint,
    det_sign_or_phase,
    hermitian_eig,
    inverse_perturbation_residual,
    norms,
    polar_right,
    sqrt_perturbation_bound,
    sqrt_psd,
    svd,
)

RNG = np.random.default_rng(20240811)


def rand_matrix(d, field, rng=RNG, scale=1.0):
    if field is FieldTag.COMPLEX:
        return scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) * np.sqrt(0.5)
    return scale * rng.standard_normal((d, d))


FIELDS = (FieldTag.REAL, FieldTag.COMPLEX)


class TestAdjoint:
    @pytest.mark.parametrize("field", FIELDS)
    def test_stack_matches_per_matrix(self, field):
        stack = np.stack([rand_matrix(4, field) for _ in range(3)])
        out = adjoint(stack)
        assert out.shape == (3, 4, 4)
        for m, a in zip(stack, out):
            np.testing.assert_array_equal(a, m.conj().T)
            assert adjoint(m).strides == m.conj().T.strides


class TestSvd:
    def test_identity(self):
        r = svd(np.eye(3))
        np.testing.assert_allclose(r.s, [1, 1, 1])

    def test_diagonal(self):
        r = svd(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(r.s, [2.0, 1.0])

    def test_reconstruction_complex(self):
        m = rand_matrix(5, FieldTag.COMPLEX)
        r = svd(m)
        resid = np.linalg.norm(r.reconstruct() - m)
        assert resid < 1e-10 * (1 + np.linalg.norm(m))

    def test_descending(self):
        for field in FIELDS:
            s = svd(rand_matrix(6, field)).s
            assert np.all(np.diff(s) <= 0)
            assert np.all(s >= 0)

    def test_nonfinite_rejected(self):
        m = np.eye(3)
        m[0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            svd(m)

    def test_unitarity_of_factors(self):
        m = rand_matrix(5, FieldTag.COMPLEX)
        r = svd(m)
        eye = np.eye(5)
        assert np.linalg.norm(adjoint(r.u) @ r.u - eye) < 1e-12
        assert np.linalg.norm(adjoint(r.v) @ r.v - eye) < 1e-12

    def test_singular_values_match_gram_eigenvalues(self):
        # sqrt of eigenvalues of m^H m equals the singular values
        for field in FIELDS:
            m = rand_matrix(5, field)
            s = svd(m).s
            lam, _ = hermitian_eig(adjoint(m) @ m)
            np.testing.assert_allclose(s, np.sqrt(np.clip(lam, 0, None)), rtol=1e-8)


class TestHermitianEig:
    def test_diagonal(self):
        lam, _ = hermitian_eig(np.diag([3.0, -1.0]))
        np.testing.assert_allclose(lam, [3.0, -1.0])

    def test_zero(self):
        lam, _ = hermitian_eig(np.zeros((4, 4)))
        np.testing.assert_allclose(lam, np.zeros(4))

    def test_trace_oracle(self):
        a = rand_matrix(5, FieldTag.COMPLEX)
        h = a + adjoint(a)
        lam, q = hermitian_eig(h)
        assert abs(np.trace(h).real - lam.sum()) < 1e-10 * (1 + abs(lam).sum())
        resid = np.linalg.norm(h @ q - q @ np.diag(lam))
        assert resid < 1e-10 * (1 + np.linalg.norm(h))

    def test_not_hermitian_rejected(self):
        with pytest.raises(NotHermitianError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPolarRight:
    def test_isometry(self):
        q0, _ = np.linalg.qr(RNG.standard_normal((4, 4)))
        s, q = polar_right(q0)
        np.testing.assert_allclose(s, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(q, q0, atol=1e-12)

    def test_psd_input(self):
        m = np.diag([2.0, 5.0])
        s, q = polar_right(m)
        np.testing.assert_allclose(s, m, atol=1e-12)
        np.testing.assert_allclose(q, np.eye(2), atol=1e-12)

    def test_reconstruction(self):
        for field in FIELDS:
            m = rand_matrix(5, field)
            s, q = polar_right(m)
            assert np.linalg.norm(s @ q - m) < 1e-10 * (1 + np.linalg.norm(m))
            assert np.linalg.norm(adjoint(q) @ q - np.eye(5)) < 1e-12
            # s is the PSD square root of m m^H
            np.testing.assert_allclose(s @ s, m @ adjoint(m), atol=1e-10 * (1 + norms(m).op ** 2))

    def test_idempotent(self):
        m = rand_matrix(4, FieldTag.COMPLEX)
        s, q = polar_right(m)
        s2, q2 = polar_right(s @ q)
        assert np.linalg.norm(s2 - s) < 1e-10 * (1 + np.linalg.norm(s))
        assert np.linalg.norm(q2 - q) < 1e-10

    def test_rank_deficient_rejected(self):
        m = np.diag([1.0, 0.0])
        with pytest.raises(RankDeficientError):
            polar_right(m)


class TestSqrtPsd:
    def test_identity(self):
        np.testing.assert_allclose(sqrt_psd(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_squaring_oracle(self):
        a = rand_matrix(5, FieldTag.COMPLEX)
        h = a @ adjoint(a)
        r = sqrt_psd(h)
        assert np.linalg.norm(r @ r - h) < 1e-10 * (1 + np.linalg.norm(h))

    def test_small_negative_clamped(self):
        h = np.diag([1.0, -1e-14])
        r = sqrt_psd(h)
        assert r[1, 1] == 0.0

    def test_not_psd_rejected(self):
        with pytest.raises(NotPSDError):
            sqrt_psd(np.diag([1.0, -0.5]))


class TestSqrtPerturbationBound:
    def test_zero_perturbation(self):
        x = np.diag([2.0, 3.0])
        lhs, rhs, holds = sqrt_perturbation_bound(x, np.zeros((2, 2)))
        assert lhs == 0.0 and rhs == 0.0 and holds

    def test_scalar_case(self):
        # x = 4I, delta = 0.5I: direct scalar evaluation
        lhs, rhs, holds = sqrt_perturbation_bound(4.0 * np.eye(2), 0.5 * np.eye(2))
        assert abs(lhs - abs(2.0 - np.sqrt(4.5))) < 1e-12
        assert abs(rhs - 0.5 / (2.0 * np.sqrt(3.5))) < 1e-12
        assert holds

    def test_precondition_rejected(self):
        with pytest.raises(PreconditionViolatedError):
            sqrt_perturbation_bound(np.eye(2), 2.0 * np.eye(2))

    def test_random_instances(self):
        # trimmed version of the acceptance property suite
        rng = np.random.default_rng(5)
        for k in range(100):
            field = FIELDS[k % 2]
            d = int(rng.integers(2, 9))
            a = rand_matrix(d, field, rng)
            delta = rand_matrix(d, field, rng, scale=0.3)
            delta = 0.5 * (delta + adjoint(delta))
            dop = norms(delta).op
            x = a @ adjoint(a) + (dop + 0.5) * np.eye(d)
            _, _, holds = sqrt_perturbation_bound(x, delta)
            assert holds


class TestInversePerturbation:
    def test_zero_perturbation(self):
        assert inverse_perturbation_residual(np.eye(3), np.zeros((3, 3))) < 1e-14

    def test_commuting_scalars(self):
        r = inverse_perturbation_residual(np.eye(2), 0.1 * np.eye(2))
        assert r < 1e-14

    def test_random_instances(self):
        rng = np.random.default_rng(6)
        for k in range(100):
            field = FIELDS[k % 2]
            x = rand_matrix(5, field, rng) + 2.0 * np.eye(5)
            delta = rand_matrix(5, field, rng, scale=0.2)
            r = inverse_perturbation_residual(x, delta)
            bound = 1e-10 * (1 + norms(np.linalg.inv(x)).op ** 3 * norms(delta).op ** 2)
            assert r < bound

    def test_singular_rejected(self):
        with pytest.raises(SingularError):
            inverse_perturbation_residual(np.diag([1.0, 0.0]), np.zeros((2, 2)))


class TestNorms:
    def test_identity(self):
        n = norms(np.eye(4))
        assert (n.fro, n.op, n.sigma_min) == (2.0, 1.0, 1.0)

    def test_zero(self):
        n = norms(np.zeros((3, 3)))
        assert (n.fro, n.op, n.sigma_min) == (0.0, 0.0, 0.0)

    def test_diagonal(self):
        n = norms(np.diag([3.0, 4.0]))
        np.testing.assert_allclose([n.fro, n.op, n.sigma_min], [5.0, 4.0, 3.0])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 8), st.booleans(), st.integers(0, 2**32 - 1))
    def test_ordering_property(self, d, cplx, seed):
        rng = np.random.default_rng(seed)
        m = rand_matrix(d, FieldTag.COMPLEX if cplx else FieldTag.REAL, rng)
        n = norms(m)
        assert n.sigma_min <= n.op + 1e-12
        assert n.op <= n.fro + 1e-12
        assert n.fro <= np.sqrt(d) * n.op + 1e-12


class TestDetSignOrPhase:
    def test_identity(self):
        assert det_sign_or_phase(np.eye(5)) == 1.0

    def test_reflection(self):
        assert det_sign_or_phase(np.diag([-1.0, 1, 1, 1, 1])) == -1.0

    def test_constructed_haar_reflection(self):
        # Haar orthogonal with a forced -1 eigenvalue has determinant -1
        q0, _ = np.linalg.qr(RNG.standard_normal((5, 5)))
        if np.linalg.det(q0) > 0:
            q0 = q0 @ np.diag([-1.0, 1, 1, 1, 1])
        assert det_sign_or_phase(q0) == -1.0

    def test_complex_phase(self):
        m = np.diag([1j, 1.0, 1.0]).astype(complex)
        z = det_sign_or_phase(m)
        assert isinstance(z, complex)
        assert abs(z - 1j) < 1e-12

    def test_numerically_singular(self):
        assert det_sign_or_phase(np.zeros((3, 3))) == 0.0


class TestSharedSpectrum:
    def test_rrh_spectrum_equality(self):
        # I - RR^H and I - R^H R share a real spectrum (trimmed property run)
        rng = np.random.default_rng(7)
        for k in range(50):
            field = FIELDS[k % 2]
            r = rand_matrix(4, field, rng)
            a = np.eye(4) - r @ adjoint(r)
            b = np.eye(4) - adjoint(r) @ r
            ea = np.sort_complex(np.linalg.eigvals(a))
            eb = np.sort_complex(np.linalg.eigvals(b))
            assert np.max(np.abs(ea.imag)) < 1e-12 * (1 + np.abs(ea).max())
            assert np.max(np.abs(ea - eb)) < 1e-10 * (1 + np.abs(ea).max())
