"""Reference [7]'s single-metric BMF, kept as the d = 1 oracle.

Gu et al. (DAC 2013) fuse early-stage knowledge into the mean and
variance of one Gaussian metric through a normal-gamma prior over
``(mu, lambda = 1/sigma^2)``.  The paper's normal-Wishart is its
d-dimensional form: with ``v0 = 2 alpha0`` and ``Sigma_E = var_e``,
Eq. 31–32 at ``d = 1`` is the normal-gamma joint mode.  ``src/`` keeps
Eq. 31–32 once (``map_moments_stack``, and the ``univariate-bmf``
registry name builds pinned d = 1 BMF); this module is the independent
scalar recursion the tests check it against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.exceptions import HyperParameterError, InsufficientDataError


@dataclass(frozen=True)
class NormalGammaPrior:
    """Normal-gamma prior ``NG(mu, lambda | mu0, kappa0, alpha0, beta0)``.

    ``mu | lambda ~ N(mu0, (kappa0 lambda)^{-1})`` and
    ``lambda ~ Gamma(alpha0, rate=beta0)``.  The joint mode over
    ``(mu, lambda)`` is ``(mu0, (alpha0 - 1/2) / beta0)`` for
    ``alpha0 > 1/2``.
    """

    mu0: float
    kappa0: float
    alpha0: float
    beta0: float

    def __post_init__(self) -> None:
        if self.kappa0 <= 0.0:
            raise HyperParameterError(f"kappa0 must be > 0, got {self.kappa0}")
        if self.alpha0 <= 0.5:
            raise HyperParameterError(
                f"alpha0 must exceed 1/2 for a proper joint mode, got {self.alpha0}"
            )
        if self.beta0 <= 0.0:
            raise HyperParameterError(f"beta0 must be > 0, got {self.beta0}")

    @classmethod
    def from_early_stage(
        cls, mean_e: float, var_e: float, kappa0: float, alpha0: float
    ) -> "NormalGammaPrior":
        """Anchor the prior mode at the early-stage ``(mean, variance)``.

        The joint mode of ``lambda`` is ``(alpha0 - 1/2)/beta0``; setting it
        to the early precision ``1/var_e`` gives
        ``beta0 = (alpha0 - 1/2) * var_e`` — the scalar twin of Eq. (20).
        """
        if var_e <= 0.0:
            raise HyperParameterError(f"early variance must be > 0, got {var_e}")
        beta0 = (alpha0 - 0.5) * var_e
        return cls(mu0=float(mean_e), kappa0=kappa0, alpha0=alpha0, beta0=beta0)

    def mode(self) -> Tuple[float, float]:
        """Joint mode ``(mu_M, lambda_M)``."""
        return self.mu0, (self.alpha0 - 0.5) / self.beta0

    def posterior(self, samples) -> "NormalGammaPrior":
        """Exact conjugate update after observing scalar samples."""
        data = np.atleast_1d(np.asarray(samples, dtype=float)).ravel()
        n = data.size
        if n == 0:
            raise InsufficientDataError("posterior update needs at least one sample")
        xbar = float(data.mean())
        ss = float(np.sum((data - xbar) ** 2))
        kappa_n = self.kappa0 + n
        mu_n = (self.kappa0 * self.mu0 + n * xbar) / kappa_n
        alpha_n = self.alpha0 + n / 2.0
        beta_n = (
            self.beta0
            + ss / 2.0
            + self.kappa0 * n * (xbar - self.mu0) ** 2 / (2.0 * kappa_n)
        )
        return NormalGammaPrior(mu0=mu_n, kappa0=kappa_n, alpha0=alpha_n, beta0=beta_n)

    def map_mean_variance(self, samples) -> Tuple[float, float]:
        """MAP ``(mean, variance)`` after fusing ``samples`` (reference [7])."""
        mu_map, lambda_map = self.posterior(samples).mode()
        return mu_map, 1.0 / lambda_map
