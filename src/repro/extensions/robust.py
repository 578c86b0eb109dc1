"""Robustified BMF: outlier-resistant fusion for contaminated late-stage data.

Silicon measurements occasionally contain gross outliers (probe-contact
faults, mis-binned dies).  The Gaussian likelihood of Eq. (9) is highly
sensitive to them, and with only ~10 late-stage samples a single bad die
can dominate the scatter matrix ``S`` of Eq. (26).

:class:`RobustBMFEstimator` screens the late-stage samples with a
Mahalanobis gate measured against the *early-stage* prior distribution —
the one distribution we can trust before seeing late data — then runs the
standard BMF flow on the surviving rows.  With no outliers it converges to
the plain estimator (the gate keeps everything), which the tests verify.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.bmf import BMFEstimator
from repro.core.estimators import MomentEstimate, MomentEstimator
from repro.core.hypergrid import HyperParameterGrid
from repro.core.prior import PriorKnowledge
from repro.exceptions import InsufficientDataError
from repro.stats.multivariate_gaussian import MultivariateGaussian

__all__ = ["RobustBMFEstimator", "mahalanobis_gate"]


def mahalanobis_gate(
    prior: PriorKnowledge, samples, quantile: float = 0.999, inflate: float = 4.0
) -> Tuple[np.ndarray, np.ndarray]:
    """Split samples into (kept, rejected) by prior Mahalanobis distance.

    The gate radius is the chi-square ``quantile`` of dimension ``d``
    applied to the prior covariance inflated by ``inflate`` — generous on
    purpose: the late-stage distribution is *similar* to the prior, not
    equal, and false rejections are costlier than false keeps when samples
    are scarce.
    """
    if not 0.5 < quantile < 1.0:
        raise ValueError(f"quantile must lie in (0.5, 1), got {quantile}")
    if inflate <= 0.0:
        raise ValueError(f"inflate must be > 0, got {inflate}")
    data = np.atleast_2d(np.asarray(samples, dtype=float))
    gaussian = MultivariateGaussian(prior.mean, prior.covariance * inflate)
    maha = gaussian.mahalanobis_sq(data)
    from scipy import stats as sps

    radius = float(sps.chi2.ppf(quantile, prior.dim))
    keep = maha <= radius
    return data[keep], data[~keep]


class RobustBMFEstimator(MomentEstimator):
    """BMF with a prior-based outlier gate in front (ablation/extension).

    Parameters mirror :class:`~repro.core.bmf.BMFEstimator` — including
    optional pinned ``(kappa0, v0)``, which the pipeline passes after
    resolving them — plus extra knobs controlling the gate.  ``min_kept`` guards
    against the gate eating so many samples that the fusion becomes
    prior-only — if fewer survive, the gate is bypassed entirely and a
    plain BMF estimate is returned.
    """

    name = "robust_bmf"

    def __init__(
        self,
        prior: PriorKnowledge,
        quantile: float = 0.999,
        inflate: float = 4.0,
        min_kept: int = 4,
        grid: Optional[HyperParameterGrid] = None,
        n_folds: int = 4,
        kappa0: Optional[float] = None,
        v0: Optional[float] = None,
    ) -> None:
        self.prior = prior
        self.quantile = float(quantile)
        self.inflate = float(inflate)
        if min_kept < 2:
            raise InsufficientDataError(f"min_kept must be >= 2, got {min_kept}")
        self.min_kept = int(min_kept)
        self.grid = grid
        self.n_folds = n_folds
        self.kappa0 = None if kappa0 is None else float(kappa0)
        self.v0 = None if v0 is None else float(v0)
        #: Number of rows rejected by the gate in the last estimate call.
        self.last_rejected: int = 0

    def estimate(
        self, samples, rng: Optional[np.random.Generator] = None
    ) -> MomentEstimate:
        """Gate the samples, then run the standard BMF flow on survivors."""
        data = self._check(samples)
        kept, rejected = mahalanobis_gate(
            self.prior, data, self.quantile, self.inflate
        )
        if kept.shape[0] < self.min_kept:
            kept, rejected = data, data[:0]
        self.last_rejected = int(rejected.shape[0])
        inner = BMFEstimator(
            self.prior,
            kappa0=self.kappa0,
            v0=self.v0,
            grid=self.grid,
            n_folds=self.n_folds,
        )
        estimate = inner.estimate(kept, rng=rng)
        info = dict(estimate.info)
        info["rejected"] = self.last_rejected
        return MomentEstimate(
            mean=estimate.mean,
            covariance=estimate.covariance,
            n_samples=data.shape[0],
            method=self.name,
            info=info,
        )
