"""Random matrix sampling and circular-ensemble statistics.

Provides Gaussian and Haar sampling over both fields, the two weight
initialization schemes (independent scaled Gaussians, and the balanced scheme
built from one shared Gaussian conjugated by independent Haar factors), the
one-point eigenangle densities of the circular unitary and circular real
ensembles, and Monte-Carlo validators for all of the above.

Randomness is deterministic and splittable: every sampler takes a
``numpy.random.Generator``.  Use :func:`make_rng` to build one from a 64-bit
seed (Philox, counter-based); substreams are derived with ``Generator.spawn``
so adding layers or samplers never perturbs earlier draws.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .dynamics import LayerStack
from .errors import ConfigError, NotUnitaryError
from .linalg import FieldTag, adjoint, norms, sqrt_psd

__all__ = [
    "PRNG_NAME",
    "InitScheme",
    "make_rng",
    "gaussian_matrix",
    "haar_unitary",
    "balanced_init",
    "random_init",
    "main_term_seed_stat",
    "cue_density",
    "cre_density_det1",
    "eigenangles",
    "ValidatorResult",
    "validate_cue_uniformity",
    "validate_cre_density",
    "validate_haar_invariance",
    "validate_haar_sigma_min_quantile",
    "validate_det_minus_zero_mode",
    "validate_product_det_sign",
]

PRNG_NAME = "numpy Philox (counter-based, 64-bit seed, substreams via SeedSequence spawn)"


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator for ``seed``; identical seed, identical stream."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


@dataclass(frozen=True)
class InitScheme:
    """Weight initialization description.

    ``kind`` is ``"balanced"`` (shared Gaussian conjugated by Haar factors,
    exactly balanced at step 0) or ``"random"`` (independent scaled
    Gaussians).  ``s_phases``, when given, are per-layer unit-modulus scalars
    (signs over the reals); ``g_singular_values`` pins the singular values of
    the shared Gaussian in the balanced scheme, which pins the initial
    singular values of the product matrix to ``epsilon * g_singular_values``.
    """

    kind: str = "balanced"
    epsilon: float = 0.05
    s_phases: tuple[complex, ...] | None = None
    g_singular_values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("balanced", "random"):
            raise ConfigError(f"unknown init kind {self.kind!r}")
        # Written so that NaN fails every test.
        if not 0 < self.epsilon < float("inf"):
            raise ConfigError(f"epsilon must be finite and positive, got {self.epsilon}")
        if self.s_phases is not None:
            for s in self.s_phases:
                if not abs(abs(s) - 1.0) <= 1e-12:
                    raise ConfigError("every s_phase must have modulus 1")
        if self.g_singular_values is not None:
            if not all(0 <= v < float("inf") for v in self.g_singular_values):
                raise ConfigError("g_singular_values must be finite and non-negative")


def gaussian_matrix(d: int, field: FieldTag, rng: np.random.Generator) -> np.ndarray:
    """d x d Gaussian ensemble: unit-variance entries, E|entry|^2 = 1.

    Real field: entries N(0,1).  Complex field: real and imaginary parts
    independently N(0, 1/2).
    """
    if field is FieldTag.COMPLEX:
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return z * np.sqrt(0.5)
    return rng.standard_normal((d, d))


def haar_unitary(d: int, field: FieldTag, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary (complex) or orthogonal (real) matrix.

    QR of a Gaussian matrix alone is not Haar; the Q factor is fixed up by
    rotating each column so the R diagonal is positive real.
    """
    g = gaussian_matrix(d, field, rng)
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _resolve_phases(scheme: InitScheme, n_layers: int, field: FieldTag) -> np.ndarray:
    if scheme.s_phases is None:
        s = np.ones(n_layers, dtype=field.dtype)
    else:
        if len(scheme.s_phases) != n_layers:
            raise ConfigError("s_phases length must equal the number of layers")
        s = np.asarray(scheme.s_phases, dtype=complex)
        if field is FieldTag.REAL:
            if np.any(np.abs(s.imag) > 1e-12) or np.any(np.abs(np.abs(s.real) - 1) > 1e-12):
                raise ConfigError("real field requires s_phases in {+1, -1}")
            s = s.real
    return s


def balanced_init(
    d: int,
    n_layers: int,
    scheme: InitScheme,
    field: FieldTag,
    rng: np.random.Generator,
) -> LayerStack:
    """Balanced Gaussian initialization.

    Draws one shared Gaussian ``G`` and ``n_layers + 1`` independent Haar
    factors ``Q_0..Q_N``, then sets ``W_j = s_j * eps * Q_j G Q_{j-1}^H`` for
    odd ``j`` and ``W_j = s_j * eps * Q_j G^H Q_{j-1}^H`` for even ``j``
    (1-based).  Adjacent layers are exactly balanced at construction and each
    layer is marginally an eps-scaled Gaussian ensemble.

    If ``scheme.g_singular_values`` is set, ``G`` is rebuilt as
    ``Q_G diag(values) P_G^H`` with fresh Haar ``Q_G, P_G``, pinning the
    product's initial singular values while preserving balance.
    """
    if scheme.kind != "balanced":
        raise ValueError("balanced_init requires a scheme with kind='balanced'")
    if n_layers < 2:
        raise ValueError("need at least two layers")
    s = _resolve_phases(scheme, n_layers, field)
    eps = scheme.epsilon

    # One substream per random object: layer count never shifts earlier draws.
    streams = rng.spawn(n_layers + 4)
    g = gaussian_matrix(d, field, streams[0])
    if scheme.g_singular_values is not None:
        vals = np.asarray(scheme.g_singular_values, dtype=float)
        if vals.shape != (d,):
            raise ValueError("g_singular_values must hold d values")
        qg = haar_unitary(d, field, streams[1])
        pg = haar_unitary(d, field, streams[2])
        g = (qg * vals) @ adjoint(pg)
    qs = [haar_unitary(d, field, streams[3 + k]) for k in range(n_layers + 1)]

    cores = (g, adjoint(g))
    return LayerStack(np.array([
        s[j] * eps * (qs[j + 1] @ cores[j % 2] @ adjoint(qs[j])) for j in range(n_layers)
    ]))


def random_init(
    d: int,
    n_layers: int,
    scheme: InitScheme,
    field: FieldTag,
    rng: np.random.Generator,
) -> LayerStack:
    """Independent eps-scaled Gaussian layers."""
    if scheme.kind != "random":
        raise ValueError("random_init requires a scheme with kind='random'")
    if n_layers < 2:
        raise ValueError("need at least two layers")
    streams = rng.spawn(n_layers)
    return LayerStack(np.array([scheme.epsilon * gaussian_matrix(d, field, st) for st in streams]))


def main_term_seed_stat(w: np.ndarray) -> float:
    """sigma_min(w + (w w^H)^(1/2)): the seed statistic deciding saddle escape."""
    return norms(w + sqrt_psd(w @ adjoint(w))).sigma_min


def cue_density(theta: float, d: int) -> float:
    """One-point eigenangle density of the circular unitary ensemble: d / (2 pi)."""
    if d < 1:
        raise ValueError("d must be positive")
    return d / (2.0 * np.pi)


def cre_density_det1(theta: float, d: int) -> float:
    """One-point eigenangle density of the determinant-1 circular real ensemble.

    ``(1/2pi) * (d - 1 + (-1)^d * sin((d-1)|theta|) / sin|theta|)`` on
    ``(-pi, pi]``, continuously extended at the removable points
    ``theta = k pi``.  For odd ``d`` the deterministic +1 eigenvalue is not
    part of the density.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    t = abs(float(theta))
    sign = -1.0 if d % 2 else 1.0
    st = np.sin(t)
    if abs(st) < 1e-9:
        # limit of sin((d-1)t)/sin(t) at t -> 0 is d-1, at t -> pi is (d-1)*(-1)^d
        ratio = (d - 1.0) if t < np.pi / 2 else (d - 1.0) * sign
    else:
        ratio = np.sin((d - 1) * t) / st
    return float((d - 1 + sign * ratio) / (2.0 * np.pi))


def eigenangles(q: np.ndarray) -> np.ndarray:
    """Arguments of the eigenvalues of a unitary/orthogonal matrix, in (-pi, pi]."""
    if np.linalg.norm(adjoint(q) @ q - np.eye(q.shape[0])) >= 1e-8:
        raise NotUnitaryError("eigenangles: matrix is not unitary within 1e-8")
    lam = np.linalg.eigvals(q)
    if np.any(np.abs(np.abs(lam) - 1.0) >= 1e-8):
        raise NotUnitaryError("eigenangles: eigenvalue modulus deviates from 1")
    return np.angle(lam)


# ---------------------------------------------------------------------------
# Monte-Carlo validators.  Each returns a ValidatorResult; thresholds are
# chosen so the false-alarm rate at the stated sample sizes is negligible.
# ---------------------------------------------------------------------------

# Histogram bins of the eigenangle density checks.
_BINS = 20


# A validator passes iff ``statistic <rule> threshold``.
_RULES = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class ValidatorResult:
    name: str
    statistic: float
    rule: str  # one of _RULES
    threshold: float
    detail: str = ""
    histogram: tuple[tuple[float, float, float, float], ...] | None = None
    """Optional histogram rows (bin_lo, bin_hi, empirical, analytic)."""

    @property
    def passed(self) -> bool:
        return _RULES[self.rule](self.statistic, self.threshold)


def validate_cue_uniformity(d: int, n_samples: int, rng: np.random.Generator) -> ValidatorResult:
    """Chi-squared test of pooled CUE eigenangles against the flat density."""
    from scipy import stats  # deferred: importing it costs more than the rest of factorlab
    angles = np.concatenate(
        [eigenangles(haar_unitary(d, FieldTag.COMPLEX, rng)) for _ in range(n_samples)]
    )
    counts, edges = np.histogram(angles, bins=_BINS, range=(-np.pi, np.pi))
    expected = len(angles) / _BINS
    chi2 = float(np.sum((counts - expected) ** 2) / expected)
    crit = float(stats.chi2.ppf(1 - 1e-3, df=_BINS - 1))
    hist = tuple(
        (float(edges[i]), float(edges[i + 1]),
         counts[i] / (len(angles) * (edges[i + 1] - edges[i])) * d,
         cue_density(0.5 * (edges[i] + edges[i + 1]), d))
        for i in range(_BINS)
    )
    return ValidatorResult(
        name=f"cue_uniformity(d={d}, n={n_samples})",
        statistic=chi2,
        rule="<",
        threshold=crit,
        detail=f"chi2 over {_BINS} bins, dof={_BINS - 1}, p=0.001 critical value",
        histogram=hist,
    )


def validate_cre_density(d: int, n_samples: int, rng: np.random.Generator) -> ValidatorResult:
    """L1 distance between det=1 CRE eigenangle histogram and the analytic density.

    Samples Haar orthogonal matrices, reflects the det=-1 ones into det=+1 by
    flipping one column (Haar-invariant), and for odd ``d`` drops the angle
    nearest 0 in each sample (the deterministic +1 eigenvalue).
    """
    refl = np.ones(d)
    refl[0] = -1.0
    pooled = []
    for _ in range(n_samples):
        q = haar_unitary(d, FieldTag.REAL, rng)
        if np.linalg.det(q) < 0:
            q = q * refl
        ang = eigenangles(q)
        if d % 2 == 1:
            ang = np.delete(ang, np.argmin(np.abs(ang)))
        pooled.append(ang)
    angles = np.concatenate(pooled)
    n_free = d - 1 if d % 2 == 1 else d
    counts, edges = np.histogram(angles, bins=_BINS, range=(-np.pi, np.pi))
    width = edges[1] - edges[0]
    # Compare as probability densities (both normalized to mass 1).
    emp = counts / (len(angles) * width)
    ana = np.array(
        [cre_density_det1(0.5 * (edges[i] + edges[i + 1]), d) for i in range(_BINS)]
    ) / n_free
    l1 = float(np.sum(np.abs(emp - ana)) * width)
    hist = tuple(
        (float(edges[i]), float(edges[i + 1]), float(emp[i] * n_free), float(ana[i] * n_free))
        for i in range(_BINS)
    )
    return ValidatorResult(
        name=f"cre_det1_density(d={d}, n={n_samples})",
        statistic=l1,
        rule="<",
        threshold=0.05,
        detail=f"L1 distance over {_BINS} bins, probability-normalized",
        histogram=hist,
    )


def validate_haar_invariance(
    d: int, n_samples: int, rng: np.random.Generator
) -> ValidatorResult:
    """Two-sample KS test: Re tr(U0 Q) must match Re tr(Q) for fixed unitary U0."""
    from scipy import stats  # deferred: importing it costs more than the rest of factorlab
    streams = rng.spawn(3)
    u0 = haar_unitary(d, FieldTag.COMPLEX, streams[0])
    x = np.array(
        [np.trace(u0 @ haar_unitary(d, FieldTag.COMPLEX, streams[1])).real
         for _ in range(n_samples)]
    )
    y = np.array(
        [np.trace(haar_unitary(d, FieldTag.COMPLEX, streams[2])).real
         for _ in range(n_samples)]
    )
    res = stats.ks_2samp(x, y)
    return ValidatorResult(
        name=f"haar_left_invariance(d={d}, n={n_samples})",
        statistic=float(res.pvalue),
        rule=">",
        threshold=1e-3,
        detail=f"two-sample KS statistic {res.statistic:.4f}; pass iff p-value > 0.001",
    )


def validate_haar_sigma_min_quantile(
    d: int, n_samples: int, rng: np.random.Generator
) -> ValidatorResult:
    """Check Pr(sigma_min(I + Q) >= pi * delta / d) >= 1 - delta - 0.02 for CUE Q.

    The bound is checked at delta = 0.1 and delta = 0.3.
    """
    eye = np.eye(d)
    smin = np.array(
        [np.linalg.svd(eye + haar_unitary(d, FieldTag.COMPLEX, rng), compute_uv=False)[-1]
         for _ in range(n_samples)]
    )
    worst_margin = np.inf
    details = []
    for delta in (0.1, 0.3):
        frac = float(np.mean(smin >= np.pi * delta / d))
        margin = frac - (1.0 - delta - 0.02)
        worst_margin = min(worst_margin, margin)
        details.append(f"delta={delta}: frac={frac:.4f} (need >= {1 - delta - 0.02:.3f})")
    return ValidatorResult(
        name=f"haar_sigma_min_quantile(d={d}, n={n_samples})",
        statistic=float(worst_margin),
        rule=">=",
        threshold=0.0,
        detail="; ".join(details),
    )


def validate_det_minus_zero_mode(
    d: int, n_samples: int, rng: np.random.Generator
) -> ValidatorResult:
    """Every real Haar sample with det = -1 must have main_term_seed_stat ~ 0."""
    worst = 0.0
    n_minus = 0
    for _ in range(n_samples):
        q = haar_unitary(d, FieldTag.REAL, rng)
        if np.linalg.det(q) < 0:
            n_minus += 1
            worst = max(worst, main_term_seed_stat(q))
    return ValidatorResult(
        name=f"det_minus_zero_mode(d={d}, n={n_samples})",
        statistic=worst,
        rule="<=",
        threshold=1e-10,
        detail=f"{n_minus} det=-1 samples; max sigma_min(Q + sqrt(QQ^T))",
    )


def validate_product_det_sign(
    d: int, n_layers: int, n_samples: int, rng: np.random.Generator
) -> ValidatorResult:
    """Fraction of det(W_N...W_1) > 0 over real Gaussian stacks: |fraction - 0.5| <= 0.015."""
    positive = 0
    for _ in range(n_samples):
        w = gaussian_matrix(d, FieldTag.REAL, rng)
        for _ in range(n_layers - 1):
            w = gaussian_matrix(d, FieldTag.REAL, rng) @ w
        if np.linalg.det(w) > 0:
            positive += 1
    frac = positive / n_samples
    return ValidatorResult(
        name=f"product_det_sign(d={d}, N={n_layers}, n={n_samples})",
        statistic=abs(frac - 0.5),
        rule="<=",
        threshold=0.015,
        detail=f"fraction {frac!r}; binomial 3-sigma band around 1/2",
    )
