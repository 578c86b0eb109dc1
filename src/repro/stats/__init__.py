"""Probability substrate: Gaussian, Wishart, normal-Wishart, moments, GOF tests."""

from repro.stats.distances import (
    bhattacharyya_gaussian,
    hellinger_gaussian,
    kl_gaussian,
    symmetric_kl,
    wasserstein2_gaussian,
)
from repro.stats.gof import (
    GofResult,
    henze_zirkler,
    mardia_kurtosis,
    mardia_skewness,
    marginal_moment_check,
)
from repro.stats.moments import (
    MomentSummary,
    correlation_from_covariance,
    mle_covariance,
    sample_mean,
    scatter_matrix,
    standardize_samples,
    summarize,
    unbiased_covariance,
)
from repro.stats.multigamma import log_wishart_normalizer, multigamma, multigammaln
from repro.stats.multivariate_gaussian import (
    MultivariateGaussian,
    gaussian_loglik,
    gaussian_loglik_batch,
)
from repro.stats.normal_wishart import MapEstimate, NormalWishart
from repro.stats.suffstats import SufficientStats, merge_all
from repro.stats.wishart import InverseWishart, Wishart

__all__ = [
    "GofResult",
    "InverseWishart",
    "MapEstimate",
    "MomentSummary",
    "MultivariateGaussian",
    "NormalWishart",
    "SufficientStats",
    "Wishart",
    "bhattacharyya_gaussian",
    "correlation_from_covariance",
    "gaussian_loglik",
    "gaussian_loglik_batch",
    "hellinger_gaussian",
    "kl_gaussian",
    "henze_zirkler",
    "log_wishart_normalizer",
    "mardia_kurtosis",
    "mardia_skewness",
    "marginal_moment_check",
    "merge_all",
    "mle_covariance",
    "multigamma",
    "multigammaln",
    "sample_mean",
    "scatter_matrix",
    "standardize_samples",
    "summarize",
    "symmetric_kl",
    "unbiased_covariance",
    "wasserstein2_gaussian",
]
