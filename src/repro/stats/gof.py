"""Multivariate normality diagnostics.

The paper assumes the joint metric distribution is Gaussian (Sec. 1, 3.1)
while conceding real AMS metrics "may not be accurately modeled as a jointly
Gaussian distribution".  These tests let a user *measure* that assumption on
their own data before trusting the fused moments:

* Mardia's multivariate skewness and kurtosis tests (1970),
* the Henze–Zirkler test (1990),
* univariate marginal Shapiro-style moment checks.

Each returns a :class:`GofResult` with the statistic, an asymptotic p-value
and the decision at a chosen significance level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import InsufficientDataError
from repro.linalg.validation import as_samples, cholesky_safe
from repro.stats.moments import mle_covariance

__all__ = [
    "GofResult",
    "mardia_skewness",
    "mardia_kurtosis",
    "henze_zirkler",
    "marginal_moment_check",
]


@dataclass(frozen=True)
class GofResult:
    """Outcome of a goodness-of-fit test."""

    name: str
    statistic: float
    p_value: float
    alpha: float = 0.05

    @property
    def reject_normality(self) -> bool:
        """True when the test rejects joint normality at level ``alpha``."""
        return self.p_value < self.alpha


def _mahalanobis_products(x) -> np.ndarray:
    """Matrix of pairwise products ``(x_i - xbar)^T S^{-1} (x_j - xbar)``."""
    samples = as_samples(x)
    n = samples.shape[0]
    if n < samples.shape[1] + 2:
        raise InsufficientDataError(
            "normality tests need n > d + 1 samples for an invertible covariance"
        )
    centered = samples - samples.mean(axis=0)
    from scipy.linalg import solve_triangular

    chol = cholesky_safe(mle_covariance(samples))
    w = solve_triangular(chol, centered.T, lower=True).T  # whitened rows
    return w @ w.T


def mardia_skewness(x, alpha: float = 0.05) -> GofResult:
    """Mardia's multivariate skewness test.

    ``b_{1,d} = mean_{ij} g_ij^3``; under normality ``n b/6`` is chi-square
    with ``d(d+1)(d+2)/6`` degrees of freedom.
    """
    samples = as_samples(x)
    n, d = samples.shape
    g = _mahalanobis_products(samples)
    b1 = float(np.mean(g**3))
    statistic = n * b1 / 6.0
    dof = d * (d + 1) * (d + 2) / 6.0
    from scipy import stats as sps

    p = float(sps.chi2.sf(statistic, dof))
    return GofResult("mardia_skewness", statistic, p, alpha)


def mardia_kurtosis(x, alpha: float = 0.05) -> GofResult:
    """Mardia's multivariate kurtosis test.

    ``b_{2,d} = mean_i g_ii^2``; under normality it is asymptotically normal
    with mean ``d(d+2)`` and variance ``8 d (d+2) / n``.
    """
    samples = as_samples(x)
    n, d = samples.shape
    g = _mahalanobis_products(samples)
    b2 = float(np.mean(np.diag(g) ** 2))
    expected = d * (d + 2)
    std = math.sqrt(8.0 * d * (d + 2) / n)
    statistic = (b2 - expected) / std
    from scipy import stats as sps

    p = float(2.0 * sps.norm.sf(abs(statistic)))
    return GofResult("mardia_kurtosis", statistic, p, alpha)


def henze_zirkler(x, alpha: float = 0.05) -> GofResult:
    """Henze–Zirkler multivariate normality test.

    Uses the standard smoothing parameter
    ``beta = ((n (2d + 1)) / 4)^{1/(d+4)} / sqrt(2)`` and the lognormal
    approximation to the null distribution of the HZ statistic.
    """
    samples = as_samples(x)
    n, d = samples.shape
    g = _mahalanobis_products(samples)
    dii = np.diag(g)
    # Pairwise squared Mahalanobis distances D_ij = g_ii + g_jj - 2 g_ij.
    dij = dii[:, None] + dii[None, :] - 2.0 * g
    beta = (n * (2.0 * d + 1.0) / 4.0) ** (1.0 / (d + 4.0)) / math.sqrt(2.0)
    b2 = beta * beta
    term1 = float(np.sum(np.exp(-b2 / 2.0 * dij))) / n
    term2 = (
        2.0
        * (1.0 + b2) ** (-d / 2.0)
        * float(np.sum(np.exp(-b2 / (2.0 * (1.0 + b2)) * dii)))
    )
    hz = term1 - term2 + n * (1.0 + 2.0 * b2) ** (-d / 2.0)

    # Lognormal approximation of the null (Henze & Zirkler 1990).
    wb = (1.0 + b2) * (1.0 + 3.0 * b2)
    a = 1.0 + 2.0 * b2
    mu = 1.0 - a ** (-d / 2.0) * (
        1.0 + d * b2 / a + d * (d + 2.0) * b2**2 / (2.0 * a**2)
    )
    si2 = (
        2.0 * (1.0 + 4.0 * b2) ** (-d / 2.0)
        + 2.0
        * a ** (-d)
        * (1.0 + 2.0 * d * b2**2 / a**2 + 3.0 * d * (d + 2.0) * b2**4 / (4.0 * a**4))
        - 4.0
        * wb ** (-d / 2.0)
        * (1.0 + 3.0 * d * b2**2 / (2.0 * wb) + d * (d + 2.0) * b2**4 / (2.0 * wb**2))
    )
    si2 = max(si2, 1e-12)
    pmu = math.log(math.sqrt(mu**4 / (si2 + mu**2)))
    psi = math.sqrt(max(math.log((si2 + mu**2) / mu**2), 1e-12))
    from scipy import stats as sps

    p = float(sps.lognorm.sf(hz, psi, scale=math.exp(pmu)))
    return GofResult("henze_zirkler", float(hz), p, alpha)


def marginal_moment_check(x, alpha: float = 0.05) -> list:
    """Jarque–Bera-style marginal normality check per dimension.

    Returns one :class:`GofResult` per column, letting users spot *which*
    performance metric drives a joint-normality rejection.
    """
    samples = as_samples(x)
    n, d = samples.shape
    if n < 8:
        raise InsufficientDataError("marginal moment check needs at least 8 samples")
    from scipy import stats as sps

    results = []
    for j in range(d):
        col = samples[:, j]
        std = col.std(ddof=0)
        if std == 0.0:
            results.append(GofResult(f"marginal_dim{j}", float("inf"), 0.0, alpha))
            continue
        z = (col - col.mean()) / std
        skew = float(np.mean(z**3))
        kurt = float(np.mean(z**4) - 3.0)
        jb = n / 6.0 * (skew**2 + kurt**2 / 4.0)
        p = float(sps.chi2.sf(jb, 2))
        results.append(GofResult(f"marginal_dim{j}", jb, p, alpha))
    return results
