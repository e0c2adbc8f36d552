"""Gradient dynamics laboratory for deep matrix factorization.

Simulates gradient descent and gradient flow for products of square weight
matrices fitted to a target, over the real and complex fields, with exactly
balanced or independent Gaussian initialization, and monitors the quantities
that govern saddle avoidance: balance defects, the skew-alignment error, the
Hermitian main term, and the continuity-tracked singular values of the
product matrix.  A random-matrix validation battery checks the sampling
statistics the initialization schemes rely on.
"""

from .dynamics import (
    DynConfig,
    LayerStack,
    TargetSpec,
    flow_step_rk4,
    gd_step,
    gradient,
    loss,
    product,
    reduce_target,
)
from .ensembles import (
    InitScheme,
    balanced_init,
    cre_density_det1,
    cue_density,
    eigenangles,
    gaussian_matrix,
    haar_unitary,
    main_term_seed_stat,
    make_rng,
    random_init,
)
from .lab import (
    RunConfig,
    gradcheck,
    preset,
    rmt_validate,
    run_scenario,
    sweep_convergence,
)
from .linalg import (
    FieldTag,
    det_sign_or_phase,
    hermitian_eig,
    norms,
    sqrt_psd,
    svd,
)
from .monitors import (
    balance_errors,
    eig_sandwich_check,
    layer_extremes,
    main_term_sigma_min,
    record,
    records,
    skew_error,
    track_svd,
    uv_terms,
)

__version__ = "0.1.0"
