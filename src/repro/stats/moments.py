"""Sample-moment computations shared by every estimator.

These implement the building blocks of the paper's equations:

* Eq. (10): sample mean ``Xbar``.
* Eq. (11): MLE covariance ``S / n``.
* Eq. (26): scatter matrix ``S = sum (X_i - Xbar)(X_i - Xbar)^T``.

plus sample standardization and the :class:`MomentSummary` marginal
skewness/kurtosis diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import DimensionError, InsufficientDataError
from repro.linalg.validation import as_samples, assert_spd, symmetrize

__all__ = [
    "sample_mean",
    "scatter_matrix",
    "mle_covariance",
    "unbiased_covariance",
    "correlation_from_covariance",
    "standardize_samples",
    "MomentSummary",
    "summarize",
]


def sample_mean(x) -> np.ndarray:
    """Sample mean vector ``Xbar`` (Eq. 10)."""
    return as_samples(x).mean(axis=0)


def scatter_matrix(x) -> np.ndarray:
    """Centred scatter matrix ``S`` (Eq. 26). Symmetric PSD by construction."""
    samples = as_samples(x)
    centered = samples - samples.mean(axis=0)
    return symmetrize(centered.T @ centered)


def mle_covariance(x) -> np.ndarray:
    """Maximum-likelihood covariance ``S / n`` (Eq. 11)."""
    samples = as_samples(x)
    return scatter_matrix(samples) / samples.shape[0]


def unbiased_covariance(x) -> np.ndarray:
    """Bessel-corrected covariance ``S / (n - 1)``."""
    samples = as_samples(x)
    n = samples.shape[0]
    if n < 2:
        raise InsufficientDataError("unbiased covariance requires at least 2 samples")
    return scatter_matrix(samples) / (n - 1)


def correlation_from_covariance(cov) -> np.ndarray:
    """Convert a covariance matrix to a correlation matrix.

    Raises if any variance on the diagonal is non-positive, because a
    correlation matrix is undefined for degenerate dimensions.
    """
    cov_arr = symmetrize(np.asarray(cov, dtype=float))
    variances = np.diag(cov_arr)
    if np.any(variances <= 0.0):
        raise DimensionError("covariance has non-positive diagonal entries")
    inv_std = 1.0 / np.sqrt(variances)
    corr = symmetrize(cov_arr * np.outer(inv_std, inv_std))
    np.fill_diagonal(corr, 1.0)
    return corr


def standardize_samples(x) -> np.ndarray:
    """Whiten samples to zero mean and unit per-dimension variance."""
    samples = as_samples(x)
    std = samples.std(axis=0, ddof=0)
    if np.any(std == 0.0):
        raise InsufficientDataError("cannot standardize a constant dimension")
    return (samples - samples.mean(axis=0)) / std


@dataclass(frozen=True)
class MomentSummary:
    """First two moments plus per-dimension marginal skewness/kurtosis.

    The marginal shape statistics are diagnostic only — the paper's model
    uses mean and covariance; skewness/excess-kurtosis quantify how far the
    workload departs from joint Gaussianity (Sec. 1 caveat).
    """

    mean: np.ndarray
    covariance: np.ndarray
    n_samples: int
    skewness: np.ndarray = field(repr=False)
    excess_kurtosis: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        """Number of performance metrics ``d``."""
        return self.mean.shape[0]

    @property
    def correlation(self) -> np.ndarray:
        """Correlation matrix implied by :attr:`covariance`."""
        return correlation_from_covariance(self.covariance)

    def validate(self) -> "MomentSummary":
        """Assert internal consistency (SPD covariance, matching shapes)."""
        if self.covariance.shape != (self.dim, self.dim):
            raise DimensionError(
                f"covariance shape {self.covariance.shape} does not match mean dim {self.dim}"
            )
        assert_spd(self.covariance, "covariance")
        return self


def summarize(x) -> MomentSummary:
    """Compute a :class:`MomentSummary` from an ``(n, d)`` sample matrix."""
    samples = as_samples(x)
    n = samples.shape[0]
    if n < 2:
        raise InsufficientDataError("moment summary requires at least 2 samples")
    mean = samples.mean(axis=0)
    centered = samples - mean
    std = centered.std(axis=0, ddof=0)
    std_safe = np.where(std == 0.0, 1.0, std)
    z = centered / std_safe
    skewness = (z**3).mean(axis=0)
    kurtosis = (z**4).mean(axis=0) - 3.0
    return MomentSummary(
        mean=mean,
        covariance=mle_covariance(samples),
        n_samples=n,
        skewness=skewness,
        excess_kurtosis=kurtosis,
    )
