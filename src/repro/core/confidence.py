"""Credible intervals and regions for the fused moments.

The paper reports only the MAP point estimate; the normal-Wishart posterior
carries full uncertainty, and in the small-n regime that uncertainty is the
difference between "the yield is 92 %" and "the yield is 92 +/- 6 %".

Closed-form marginals of the normal-Wishart posterior used here:

* ``mu_j`` marginally follows a scaled Student-t:
  ``(mu_j - mu_n_j) / sqrt(s_jj / (kappa_n * (v_n - d + 1)))``
  is t-distributed with ``v_n - d + 1`` dof, where ``s = T_n^{-1}``;
* ``Sigma_jj`` marginally follows an inverse-gamma / scaled inverse
  chi-square: ``Sigma_jj ~ s_jj / chi2(v_n - d + 1)``.

(Marginalisation references: Gelman et al., *Bayesian Data Analysis*,
Sec. 3.6 — the multivariate normal with unknown mean and covariance.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.exceptions import DimensionError, HyperParameterError
from repro.linalg.validation import inv_spd, solve_spd
from repro.stats.normal_wishart import NormalWishart

__all__ = [
    "CredibleSummary",
    "mean_credible_region",
    "mean_region_contains",
    "posterior_credible_summary",
]


@dataclass(frozen=True)
class CredibleSummary:
    """Per-dimension equal-tailed credible intervals for mean and variance."""

    level: float
    mean_point: np.ndarray
    mean_lower: np.ndarray
    mean_upper: np.ndarray
    var_point: np.ndarray
    var_lower: np.ndarray
    var_upper: np.ndarray

    @property
    def dim(self) -> int:
        """Number of metrics."""
        return self.mean_point.shape[0]

    def mean_interval(self, j: int) -> Tuple[float, float]:
        """Interval for ``mu_j``."""
        return float(self.mean_lower[j]), float(self.mean_upper[j])

    def variance_interval(self, j: int) -> Tuple[float, float]:
        """Interval for ``Sigma_jj``."""
        return float(self.var_lower[j]), float(self.var_upper[j])


def posterior_credible_summary(
    posterior: NormalWishart, level: float = 0.95
) -> CredibleSummary:
    """Closed-form marginal credible intervals from a NW posterior.

    Parameters
    ----------
    posterior:
        The posterior returned by
        :meth:`repro.core.bmf.BMFEstimator.posterior` (or any
        :class:`NormalWishart`).
    level:
        Credible mass, e.g. ``0.95``.
    """
    if not 0.0 < level < 1.0:
        raise HyperParameterError(f"level must lie in (0, 1), got {level}")
    d = posterior.dim
    dof = posterior.v0 - d + 1.0
    if dof <= 0.0:
        raise HyperParameterError(
            f"marginal dof v0 - d + 1 = {dof} must be positive"
        )
    from scipy import stats as sps

    s = inv_spd(posterior.T0, "T0")
    s_diag = np.diag(s)
    tail = (1.0 - level) / 2.0

    # Mean marginals: scaled Student-t.
    scale = np.sqrt(s_diag / (posterior.kappa0 * dof))
    t_crit = float(sps.t.ppf(1.0 - tail, dof))
    mean_point = posterior.mu0.copy()
    mean_lower = mean_point - t_crit * scale
    mean_upper = mean_point + t_crit * scale

    # Variance marginals: Sigma_jj ~ s_jj / chi2(dof).
    chi_lo = float(sps.chi2.ppf(1.0 - tail, dof))
    chi_hi = float(sps.chi2.ppf(tail, dof))
    var_lower = s_diag / chi_lo
    var_upper = s_diag / chi_hi
    # Point value: the MAP covariance diagonal.
    var_point = np.diag(posterior.map_estimate().covariance)

    return CredibleSummary(
        level=level,
        mean_point=mean_point,
        mean_lower=mean_lower,
        mean_upper=mean_upper,
        var_point=var_point,
        var_lower=var_lower,
        var_upper=var_upper,
    )


def mean_credible_region(
    posterior: NormalWishart, level: float = 0.95
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Joint credible ellipsoid for the mean vector.

    The marginal posterior of ``mu`` is multivariate-t; the set
    ``{mu : (mu - mu_n)^T M^{-1} (mu - mu_n) <= r2}`` with
    ``M = T_n^{-1} / (kappa_n * dof)`` and
    ``r2 = d * F_{d, dof}(level)`` contains ``level`` posterior mass.

    Returns ``(center, shape_matrix, radius_sq)``; a point ``mu`` is inside
    iff its Mahalanobis-squared distance under ``shape_matrix`` is at most
    ``radius_sq``.
    """
    if not 0.0 < level < 1.0:
        raise HyperParameterError(f"level must lie in (0, 1), got {level}")
    d = posterior.dim
    dof = posterior.v0 - d + 1.0
    if dof <= 0.0:
        raise HyperParameterError(
            f"marginal dof v0 - d + 1 = {dof} must be positive"
        )
    from scipy import stats as sps

    shape = inv_spd(posterior.T0, "T0") / (posterior.kappa0 * dof)
    radius_sq = d * float(sps.f.ppf(level, d, dof))
    return posterior.mu0.copy(), shape, radius_sq


def mean_region_contains(
    center: np.ndarray, shape: np.ndarray, radius_sq: float, points
) -> np.ndarray:
    """Membership test for the ellipsoid from :func:`mean_credible_region`."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != center.shape[0]:
        raise DimensionError(
            f"points have {pts.shape[1]} columns, expected {center.shape[0]}"
        )
    diff = pts - center
    solve = solve_spd(shape, diff.T, "shape").T
    maha = np.sum(diff * solve, axis=1)
    return maha <= radius_sq
