"""Linear-algebra substrate: SPD validation/repair, norms, shrinkage, batching.

The dense/sparse MNA solver choice (:func:`resolve_mna_backend`) is
re-exported from :mod:`repro.linalg.backends`.
"""

from repro.linalg.backends import resolve_mna_backend
from repro.linalg.batched import (
    as_spd_stack,
    cholesky_batched,
    cholesky_batched_safe,
    clip_eigenvalues_batched,
    jitter_spd_batched,
    logdet_batched,
    mahalanobis_sq_batched,
    solve_batched,
    solve_triangular_batched,
    spd_factor,
    symmetrize_batched,
    whitened_eigh_batched,
)
from repro.linalg.norms import (
    condition_number,
    frobenius_norm,
    log_det_spd,
    relative_difference,
    spectral_norm,
    vector_2norm,
)
from repro.linalg.shrinkage import (
    diagonal_shrinkage,
    ledoit_wolf,
    oas,
    sample_covariance,
    shrink_towards,
)
from repro.linalg.validation import (
    as_matrix,
    as_samples,
    assert_spd,
    cholesky_safe,
    clip_eigenvalues,
    inv_spd,
    is_spd,
    is_symmetric,
    jitter_spd,
    nearest_spd,
    solve_spd,
    symmetrize,
)

__all__ = [
    "resolve_mna_backend",
    "as_matrix",
    "as_samples",
    "as_spd_stack",
    "assert_spd",
    "cholesky_batched",
    "cholesky_batched_safe",
    "cholesky_safe",
    "clip_eigenvalues",
    "clip_eigenvalues_batched",
    "condition_number",
    "diagonal_shrinkage",
    "frobenius_norm",
    "inv_spd",
    "is_spd",
    "is_symmetric",
    "jitter_spd",
    "jitter_spd_batched",
    "ledoit_wolf",
    "log_det_spd",
    "logdet_batched",
    "mahalanobis_sq_batched",
    "nearest_spd",
    "oas",
    "relative_difference",
    "sample_covariance",
    "shrink_towards",
    "solve_batched",
    "solve_spd",
    "solve_triangular_batched",
    "spd_factor",
    "spectral_norm",
    "symmetrize",
    "symmetrize_batched",
    "whitened_eigh_batched",
    "vector_2norm",
]
