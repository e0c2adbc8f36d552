"""Field-generic dense linear algebra: decompositions, norms, perturbation bounds.

All operations are pure functions on square numpy arrays.  A matrix "over the
real field" is a float64 array, "over the complex field" a complex128 array;
the :class:`FieldTag` enum names the two cases.  Tolerances are
absolute-plus-relative, ``tol * (1 + scale)``, so they behave sensibly both
for matrices of norm ~0.05 and ~2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    NonFiniteError,
    NotHermitianError,
    NotPSDError,
    PreconditionViolatedError,
    SingularError,
)

__all__ = [
    "FieldTag",
    "SvdResult",
    "adjoint",
    "svd",
    "hermitian_eig",
    "sqrt_psd",
    "sqrt_perturbation_bound",
    "inverse_perturbation_residual",
    "norms",
    "det_sign_or_phase",
]


class FieldTag(enum.Enum):
    """Scalar field of a matrix: the reals or the complexes."""

    REAL = "real"
    COMPLEX = "complex"

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.complex128 if self is FieldTag.COMPLEX else np.float64)

    @staticmethod
    def parse(name: str) -> "FieldTag":
        try:
            return FieldTag(name.lower())
        except ValueError:
            raise ValueError(f"unknown field {name!r}, expected 'real' or 'complex'") from None


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix in a ``(..., d, d)`` stack."""
    return m.conj().swapaxes(-1, -2)


def _check_finite(m: np.ndarray, who: str) -> None:
    if not np.all(np.isfinite(m)):
        raise NonFiniteError(f"{who}: input contains NaN/Inf")


def _check_square(m: np.ndarray, who: str, stack: bool = False) -> None:
    """A square matrix, or with ``stack`` also a ``(..., d, d)`` stack of them."""
    if m.ndim < 2 or (m.ndim > 2 and not stack) or m.shape[-1] != m.shape[-2]:
        what = "a square matrix or a stack of them" if stack else "a square matrix"
        raise ValueError(f"{who}: expected {what}, got shape {m.shape}")


@dataclass(frozen=True)
class SvdResult:
    """SVD ``m = u @ diag(s) @ adjoint(v)`` with ``s`` non-negative descending.

    Of a ``(..., d, d)`` stack, the fields are stacked the same way.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s[..., None, :]) @ adjoint(self.v)


def svd(m: np.ndarray) -> SvdResult:
    """Full SVD of a square matrix or a ``(..., d, d)`` stack, singular values descending.

    One LAPACK call per matrix, so each matrix of a stack gets the bits it
    gets alone.  Raises NonFiniteError if ``m`` contains NaN/Inf.
    """
    _check_square(m, "svd", stack=True)
    _check_finite(m, "svd")
    u, s, vh = np.linalg.svd(m)
    return SvdResult(u=u, s=s, v=adjoint(vh))


def hermitian_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(eigenvalues, q)`` with ``h @ q ~= q @ diag(eigenvalues)``.
    Raises NotHermitianError if ``norm(h - h^H)`` exceeds ``1e-10 * (1 + norm(h))``.
    """
    _check_square(h, "hermitian_eig")
    _check_finite(h, "hermitian_eig")
    hn = np.linalg.norm(h)
    if np.linalg.norm(h - adjoint(h)) > 1e-10 * (1.0 + hn):
        raise NotHermitianError("hermitian_eig: matrix is not Hermitian within tolerance")
    w, q = np.linalg.eigh(h)
    return w[::-1].copy(), q[:, ::-1].copy()


def sqrt_psd(h: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix.

    Eigenvalues in ``[-1e-10 * op_norm, 0)`` are clamped to 0 (round-off on Gram
    matrices); anything more negative raises NotPSDError.
    """
    w, q = hermitian_eig(h)
    scale = max(abs(w[0]), abs(w[-1]))
    if w[-1] < -1e-10 * scale:
        raise NotPSDError(f"sqrt_psd: eigenvalue {w[-1]} below PSD tolerance")
    w = np.clip(w, 0.0, None)
    return (q * np.sqrt(w)) @ adjoint(q)


def sqrt_perturbation_bound(x: np.ndarray, delta: np.ndarray) -> tuple[float, float, bool]:
    """Evaluate the matrix-square-root perturbation inequality on a Hermitian pair.

    For Hermitian ``x`` with ``x > norm_op(delta) * I`` (margin 1e-10), returns
    ``(lhs, rhs, holds)`` where ``lhs = norm_op(sqrt(x) - sqrt(x + delta))`` and
    ``rhs = norm_op(delta) / (2 * sqrt(lambda_min(x) - norm_op(delta)))``.
    """
    wx, _ = hermitian_eig(x)
    dop = norms(delta).op
    gap = wx[-1] - dop
    if gap < 1e-10:
        raise PreconditionViolatedError(
            f"sqrt_perturbation_bound: need lambda_min(x) > norm_op(delta), margin {gap}"
        )
    lhs = norms(sqrt_psd(x) - sqrt_psd(x + delta)).op
    rhs = 0.0 if dop == 0.0 else dop / (2.0 * np.sqrt(gap))
    return lhs, rhs, bool(lhs <= rhs + 1e-12)


def inverse_perturbation_residual(x: np.ndarray, delta: np.ndarray) -> float:
    """Frobenius residual of the second-order inverse-perturbation identity.

    Returns ``norm_F((x+delta)^-1 - (x^-1 - x^-1 delta x^-1)
    - x^-1 delta x^-1 delta (x+delta)^-1)``; exact algebra gives zero, so the
    result is pure round-off.  Raises SingularError if either inverse fails
    (``sigma_min <= 1e-12 * sigma_max``).
    """
    for name, a in (("x", x), ("x+delta", delta + x)):
        sv = np.linalg.svd(a, compute_uv=False)
        if sv[-1] <= 1e-12 * sv[0]:
            raise SingularError(f"inverse_perturbation_residual: {name} is numerically singular")
    xinv = np.linalg.inv(x)
    xdinv = np.linalg.inv(x + delta)
    resid = xdinv - (xinv - xinv @ delta @ xinv) - xinv @ delta @ xinv @ delta @ xdinv
    return float(np.linalg.norm(resid))


@dataclass(frozen=True)
class MatrixNorms:
    fro: float
    op: float
    sigma_min: float


def norms(m: np.ndarray) -> MatrixNorms:
    """Frobenius norm, operator norm and smallest singular value."""
    _check_square(m, "norms")
    _check_finite(m, "norms")
    s = np.linalg.svd(m, compute_uv=False)
    return MatrixNorms(fro=float(np.linalg.norm(m)), op=float(s[0]), sigma_min=float(s[-1]))


def det_sign_or_phase(m: np.ndarray) -> float | complex | np.ndarray:
    """Sign of the determinant (real field) or its unit phase (complex field).

    Returns 0 when the determinant magnitude underflows (< 1e-300), signalling
    a numerically singular matrix, rather than raising.  Of a
    ``(..., d, d)`` stack it returns the array of each matrix's value.
    """
    _check_square(m, "det_sign_or_phase", stack=True)
    _check_finite(m, "det_sign_or_phase")
    sign, logabs = np.linalg.slogdet(m)
    sign = np.where(np.isfinite(logabs) & (logabs >= np.log(1e-300)), sign, 0)
    if m.ndim > 2:
        return sign
    if sign == 0:
        return 0.0
    return complex(sign) if np.iscomplexobj(m) else float(sign)
