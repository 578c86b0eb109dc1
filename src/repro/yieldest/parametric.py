"""Parametric yield from estimated multivariate moments.

Given the fused late-stage Gaussian ``N(mu, Sigma)`` and an axis-aligned
spec box, the parametric yield is the multivariate normal box probability

    Y = P( lower <= X <= upper ),  X ~ N(mu, Sigma).

Two evaluation paths are provided:

* :func:`gaussian_box_probability` — scipy's Genz quasi-Monte-Carlo
  ``mvn`` integrator (`scipy.stats.multivariate_normal.cdf` machinery),
  accurate to ~1e-4 for the d=5 problems here;
* :class:`YieldEstimator` — the user-facing object tying an estimate (from
  MLE or BMF) to a spec set, with Monte-Carlo confirmation and per-spec
  marginal yields for debugging which metric limits the total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.estimators import MomentEstimate
from repro.exceptions import DimensionError
from repro.stats.multivariate_gaussian import MultivariateGaussian
from repro.yieldest.specs import SpecificationSet

__all__ = [
    "gaussian_box_probability",
    "gaussian_box_probabilities",
    "YieldReport",
    "YieldEstimator",
]

#: Seeds the generator each frozen distribution gets, which Genz's QMC
#: integrator draws from: a box probability depends on its arguments alone.
_QMC_SEED = 20150607


def gaussian_box_probability(mean, covariance, lower, upper) -> float:
    """``P(lower <= X <= upper)`` for ``X ~ N(mean, covariance)``.

    Uses scipy's Genz quasi-Monte-Carlo integrator via the frozen
    ``multivariate_normal.cdf`` with ``lower_limit``; infinite bounds are
    supported.  The integrator is seeded from one module constant, so the
    same arguments give the same bits in every process.  The result is
    clipped to ``[0, 1]`` to absorb integrator jitter.
    """
    mean_arr = np.atleast_1d(np.asarray(mean, dtype=float))
    lower_arr = np.broadcast_to(np.asarray(lower, dtype=float), mean_arr.shape).copy()
    upper_arr = np.broadcast_to(np.asarray(upper, dtype=float), mean_arr.shape).copy()
    if np.any(lower_arr >= upper_arr):
        raise DimensionError("every lower bound must be below its upper bound")
    cov_arr = np.asarray(covariance, dtype=float)
    # Standardize per dimension: AMS metrics span many orders of magnitude
    # (gain ~1e4, power ~1e-4), making the raw covariance numerically
    # indefinite for scipy's PSD check.  Box probabilities are invariant
    # under diagonal scaling, so integrate in the standardized space.
    stds = np.sqrt(np.diag(cov_arr))
    if np.any(stds <= 0.0):
        raise DimensionError("covariance has non-positive diagonal entries")
    inv = 1.0 / stds
    cov_std = cov_arr * np.outer(inv, inv)
    lower_arr = (lower_arr - mean_arr) * inv
    upper_arr = (upper_arr - mean_arr) * inv
    mean_arr = np.zeros_like(mean_arr)
    from scipy import stats as sps

    dist = sps.multivariate_normal(
        mean=mean_arr, cov=cov_std, allow_singular=True, seed=np.random.default_rng(_QMC_SEED)
    )
    if _cdf_supports_lower_limit():
        prob = float(dist.cdf(upper_arr, lower_limit=lower_arr))
    else:  # pragma: no cover - legacy scipy path
        prob = float(_mvnun(lower_arr, upper_arr, mean_arr, cov_std))
    return min(max(prob, 0.0), 1.0)


def gaussian_box_probabilities(means, covariances, lower, upper) -> np.ndarray:
    """Box probabilities for a whole bank of Gaussians at once.

    ``means`` is ``(k, d)`` and ``covariances`` ``(k, d, d)``; the shared
    spec box is broadcast across the bank.  The per-dimension
    standardization of :func:`gaussian_box_probability` is vectorized over
    all ``k`` members; only the Genz integrator itself (which scipy exposes
    one distribution at a time) runs per member.  Each entry equals the
    scalar function evaluated on the corresponding ``(mean, covariance)``.
    """
    means_arr = np.atleast_2d(np.asarray(means, dtype=float))
    covs = np.asarray(covariances, dtype=float)
    n, d = means_arr.shape
    if covs.shape != (n, d, d):
        raise DimensionError(
            f"covariances shape {covs.shape} does not match means shape {means_arr.shape}"
        )
    lower_arr = np.broadcast_to(np.asarray(lower, dtype=float), (d,))
    upper_arr = np.broadcast_to(np.asarray(upper, dtype=float), (d,))
    if np.any(lower_arr >= upper_arr):
        raise DimensionError("every lower bound must be below its upper bound")
    variances = np.diagonal(covs, axis1=1, axis2=2)
    if np.any(variances <= 0.0):
        raise DimensionError("covariance has non-positive diagonal entries")
    inv = 1.0 / np.sqrt(variances)
    # Mirror the scalar expression order (cov * outer(inv, inv)) so each
    # member reproduces gaussian_box_probability bit-for-bit.
    cov_std = covs * (inv[:, :, None] * inv[:, None, :])
    lower_std = (lower_arr - means_arr) * inv
    upper_std = (upper_arr - means_arr) * inv
    zero_mean = np.zeros(d)
    has_lower_limit = _cdf_supports_lower_limit()
    probs = np.empty(n)
    from scipy import stats as sps

    for k in range(n):
        seed = np.random.default_rng(_QMC_SEED)
        dist = sps.multivariate_normal(zero_mean, cov_std[k], allow_singular=True, seed=seed)
        if has_lower_limit:
            prob = float(dist.cdf(upper_std[k], lower_limit=lower_std[k]))
        else:  # pragma: no cover - legacy scipy path
            prob = float(_mvnun(lower_std[k], upper_std[k], zero_mean, cov_std[k]))
        probs[k] = min(max(prob, 0.0), 1.0)
    return probs


def _cdf_supports_lower_limit() -> bool:
    import inspect

    from scipy import stats as sps

    try:
        sig = inspect.signature(sps.multivariate_normal.cdf)
    except (TypeError, ValueError):  # pragma: no cover - old scipy
        return False
    return "lower_limit" in sig.parameters


def _mvnun(lower, upper, mean, cov):  # pragma: no cover - legacy scipy path
    from scipy.stats import mvn

    value, _info = mvn.mvnun(lower, upper, mean, cov)
    return value


@dataclass(frozen=True)
class YieldReport:
    """Parametric yield plus per-metric marginal yields."""

    total_yield: float
    marginal_yields: Dict[str, float]
    method: str

    def limiting_metric(self) -> str:
        """The metric with the lowest marginal yield."""
        return min(self.marginal_yields, key=self.marginal_yields.get)


class YieldEstimator:
    """Parametric yield evaluation for a fused moment estimate.

    Parameters
    ----------
    specs:
        The acceptance box; its column order must match the estimate's
        metric order.
    """

    def __init__(self, specs: SpecificationSet) -> None:
        self.specs = specs

    # ------------------------------------------------------------------
    def from_estimate(self, estimate: MomentEstimate) -> YieldReport:
        """Yield implied by a :class:`MomentEstimate` (plug-in Gaussian)."""
        return self.from_moments(estimate.mean, estimate.covariance, estimate.method)

    def from_moments(self, mean, covariance, method: str = "moments") -> YieldReport:
        """Yield from explicit mean/covariance."""
        mean_arr = np.atleast_1d(np.asarray(mean, dtype=float))
        if mean_arr.shape[0] != self.specs.dim:
            raise DimensionError(
                f"estimate has {mean_arr.shape[0]} metrics, specs expect {self.specs.dim}"
            )
        cov_arr = np.asarray(covariance, dtype=float)
        total = gaussian_box_probability(
            mean_arr, cov_arr, self.specs.lower_bounds, self.specs.upper_bounds
        )
        from scipy import stats as sps

        marginals: Dict[str, float] = {}
        for j, spec in enumerate(self.specs.specs):
            sigma_j = float(np.sqrt(cov_arr[j, j]))
            marg = sps.norm.cdf(spec.upper, mean_arr[j], sigma_j) - sps.norm.cdf(
                spec.lower, mean_arr[j], sigma_j
            )
            marginals[spec.name] = float(min(max(marg, 0.0), 1.0))
        return YieldReport(total_yield=total, marginal_yields=marginals, method=method)

    # ------------------------------------------------------------------
    def monte_carlo(
        self,
        mean,
        covariance,
        n_samples: int = 100_000,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Monte-Carlo confirmation of the box probability.

        Slower than the Genz integrator but assumption-free; used by the
        tests to validate :func:`gaussian_box_probability`.
        """
        gaussian = MultivariateGaussian(mean, covariance)
        samples = gaussian.sample(n_samples, rng)
        return self.specs.empirical_yield(samples)
