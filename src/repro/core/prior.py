"""Early-stage prior knowledge container (Sec. 3.2, Eq. 17–21).

:class:`PriorKnowledge` carries the early-stage mean vector and covariance
matrix and knows how to materialise the normal-Wishart prior whose mode
coincides with them for any candidate hyper-parameter pair ``(kappa0, v0)``.
Keeping the early-stage moments separate from the hyper-parameters mirrors
the paper's flow: the moments are *data* (measured once from abundant
early-stage samples), the hyper-parameters are *credibility knobs* selected
later by cross validation.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Tuple

import numpy as np

from repro.exceptions import DimensionError, InsufficientDataError
from repro.linalg.batched import SPDFactor, spd_factor
from repro.linalg.validation import as_samples, assert_spd, inv_spd
from repro.stats.moments import mle_covariance, sample_mean
from repro.stats.normal_wishart import NormalWishart

__all__ = ["PriorKnowledge"]

#: Live priors built by :meth:`PriorKnowledge.shared`, keyed by the class
#: and the float64 bytes, shapes and sample count they were built from.
#: Weak values: an entry lasts exactly as long as something holds its prior.
_SHARED: "weakref.WeakValueDictionary[Tuple[Any, ...], PriorKnowledge]" = (
    weakref.WeakValueDictionary()
)


@dataclass(frozen=True)
class PriorKnowledge:
    """Early-stage moments ``(mu_E, Sigma_E)`` used to anchor the prior.

    Attributes
    ----------
    mean:
        Early-stage mean vector ``mu_E`` (Eq. 17/19).
    covariance:
        Early-stage covariance ``Sigma_E``; its inverse is the precision
        ``Lambda_E`` of Eq. (18)/(20).
    n_samples:
        How many early-stage samples produced the moments (0 when supplied
        analytically); recorded for reporting only.
    """

    mean: np.ndarray
    covariance: np.ndarray
    n_samples: int = 0

    def __post_init__(self) -> None:
        # A private copy: a caller reusing its buffer must not move the prior.
        mean = np.array(self.mean, dtype=float, ndmin=1)
        if mean.ndim != 1:
            raise DimensionError("prior mean must be 1-D")
        if not np.isfinite(mean).all():
            raise DimensionError("prior mean contains non-finite entries")
        cov = assert_spd(self.covariance, "prior covariance")
        if cov.shape != (mean.shape[0], mean.shape[0]):
            raise DimensionError(
                f"prior covariance shape {cov.shape} does not match mean dim {mean.shape[0]}"
            )
        # Read-only, so the cached ``whitening`` factor cannot go stale.
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    def __setstate__(self, state) -> None:
        # Unpickled arrays come back writeable; keep both moments frozen.
        self.__dict__.update(state)
        self.mean.flags.writeable = False
        self.covariance.flags.writeable = False

    # ------------------------------------------------------------------
    @classmethod
    def from_samples(cls, early_samples) -> "PriorKnowledge":
        """Measure ``(mu_E, Sigma_E)`` from an early-stage sample matrix.

        The early stage is assumed data-rich (e.g. thousands of cheap
        schematic-level simulations), so the plain MLE moments are used.
        """
        samples = as_samples(early_samples)
        n, d = samples.shape
        if n < d + 1:
            raise InsufficientDataError(
                f"need at least d + 1 = {d + 1} early samples for an "
                f"invertible covariance, got {n}"
            )
        return cls(
            mean=sample_mean(samples),
            covariance=mle_covariance(samples),
            n_samples=n,
        )

    @classmethod
    def shared(cls, mean, covariance, n_samples: int = 0) -> "PriorKnowledge":
        """The one live prior built from these moments, validated once.

        For constructors that receive raw arrays (a wire ``create``, a
        replayed WAL record, a restored checkpoint): many sessions fuse
        against few distinct early-stage moments, so equal inputs return
        the same read-only object instead of re-running every check.  The
        key is the inputs' ``float64`` bytes and shapes plus
        ``n_samples``, read at call time, so a caller that later reuses
        its buffer does not move the prior; a miss runs the normal
        constructor, so invalid moments raise every time and are never
        kept.  Entries vanish once no session holds their prior.
        """
        mean = np.asarray(mean, dtype=float)
        covariance = np.asarray(covariance, dtype=float)
        n_samples = int(n_samples)
        key = (
            cls,
            mean.shape,
            mean.tobytes(),
            covariance.shape,
            covariance.tobytes(),
            n_samples,
        )
        prior = _SHARED.get(key)
        if prior is None:
            prior = _SHARED.setdefault(key, cls(mean, covariance, n_samples))
        return prior

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Number of performance metrics ``d``."""
        return self.mean.shape[0]

    @property
    def precision(self) -> np.ndarray:
        """Early-stage precision matrix ``Lambda_E = Sigma_E^{-1}`` (Eq. 18)."""
        return inv_spd(self.covariance, "covariance")

    @cached_property
    def whitening(self) -> SPDFactor:
        """Cholesky factorisation of ``Sigma_E``, computed once per prior.

        Every cross-validated estimate whitens its fold scatters against
        it (:meth:`~repro.linalg.batched.SPDFactor.whitened_eigh`).
        """
        return spd_factor(self.covariance)

    def to_normal_wishart(self, kappa0: float, v0: float) -> NormalWishart:
        """Normal-Wishart prior of Eq. (21) for hyper-parameters ``(kappa0, v0)``.

        The returned prior peaks at ``(mu_E, Lambda_E)`` by construction
        (Eq. 15–20).
        """
        return NormalWishart.from_early_stage(self.mean, self.covariance, kappa0, v0)

    def min_v0(self) -> float:
        """Smallest admissible ``v0`` (must strictly exceed ``d``, Eq. 20)."""
        return float(self.dim)
