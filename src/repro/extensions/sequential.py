"""Sequential (streaming) Bayesian moment fusion.

Post-silicon validation collects measurements die by die; waiting for the
full batch before fusing wastes information.  Because the normal-Wishart
posterior touches the data only through the additive sufficient
statistics ``(n, Xbar, S)``, updates can be applied incrementally with
O(d^2) state.

:class:`SequentialBMF` is a thin consumer of
:class:`repro.stats.suffstats.SufficientStats` — the same accumulator
the serving layer (:mod:`repro.serving`) builds sessions on — and
computes the running MAP estimate after every observed sample via
:func:`repro.core.bmf.map_moments_from_stats`.  Because the batch
estimator funnels through that exact arithmetic, streaming matches the
one-shot result to floating-point rounding, which the tests verify.  It
also offers a simple stopping rule: stop measuring once the estimate
movement falls below a tolerance for ``patience`` consecutive dies.

(The previous revision chained full normal-Wishart posterior objects,
inverting two ``(d, d)`` matrices per die; the accumulator path is both
cheaper — no inversions until an estimate is asked for — and shares one
code path with the batch estimator instead of a parallel recursion.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.bmf import map_moments_from_stats
from repro.core.estimators import MomentEstimate, MomentEstimator
from repro.core.prior import PriorKnowledge
from repro.exceptions import DimensionError, HyperParameterError
from repro.linalg.norms import frobenius_norm, vector_2norm
from repro.stats.suffstats import SufficientStats

__all__ = ["SequentialBMF", "SequentialBMFEstimator", "SequentialState"]


@dataclass(frozen=True)
class SequentialState:
    """Running MAP estimate after ``n_observed`` samples."""

    n_observed: int
    mean: np.ndarray
    covariance: np.ndarray
    mean_step: float
    cov_step: float


class SequentialBMF:
    """Incremental BMF with fixed hyper-parameters.

    Parameters
    ----------
    prior:
        Early-stage knowledge.
    kappa0, v0:
        Hyper-parameters; sequential mode keeps them fixed (re-running the
        CV after every die would defeat the streaming purpose — re-select
        periodically from the accumulated batch if needed).
    """

    def __init__(self, prior: PriorKnowledge, kappa0: float, v0: float) -> None:
        if kappa0 <= 0.0:
            raise HyperParameterError(f"kappa0 must be > 0, got {kappa0}")
        if v0 <= prior.dim:
            raise HyperParameterError(f"v0 must exceed d = {prior.dim}, got {v0}")
        self.prior = prior
        self.kappa0 = float(kappa0)
        self.v0 = float(v0)
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget all observed samples and restart from the prior."""
        self._stats: SufficientStats = SufficientStats.empty(self.prior.dim)
        self._last_mean: Optional[np.ndarray] = None
        self._last_cov: Optional[np.ndarray] = None
        self.history: List[SequentialState] = []

    @property
    def n_observed(self) -> int:
        """Number of samples folded in so far."""
        return self._stats.n

    @property
    def stats(self) -> SufficientStats:
        """The live accumulator (shared representation with `repro.serving`)."""
        return self._stats

    # ------------------------------------------------------------------
    def _map_moments(self):
        return map_moments_from_stats(
            self.prior, self._stats, self.kappa0, self.v0
        )

    def observe(self, x) -> SequentialState:
        """Fold in one die's metric vector and return the updated state."""
        row = np.atleast_1d(np.asarray(x, dtype=float))
        if row.ndim != 1 or row.shape[0] != self.prior.dim:
            raise DimensionError(
                f"observation must be a length-{self.prior.dim} vector"
            )
        self._stats.push(row)
        mean, cov = self._map_moments()
        if self._last_mean is None:
            mean_step = float("inf")
            cov_step = float("inf")
        else:
            mean_step = vector_2norm(mean - self._last_mean)
            cov_step = frobenius_norm(cov - self._last_cov)
        self._last_mean = mean
        self._last_cov = cov
        state = SequentialState(
            n_observed=self._stats.n,
            mean=mean,
            covariance=cov,
            mean_step=mean_step,
            cov_step=cov_step,
        )
        self.history.append(state)
        return state

    def observe_batch(self, samples) -> SequentialState:
        """Fold in several rows one by one; returns the final state."""
        data = np.atleast_2d(np.asarray(samples, dtype=float))
        if data.shape[0] == 0:
            raise DimensionError("batch must contain at least one row")
        state = None
        for row in data:
            state = self.observe(row)
        return state

    # ------------------------------------------------------------------
    def current_estimate(self) -> SequentialState:
        """The latest state (prior mode if nothing observed yet)."""
        if self.history:
            return self.history[-1]
        mean, cov = self._map_moments()
        return SequentialState(
            n_observed=0,
            mean=mean,
            covariance=cov,
            mean_step=float("inf"),
            cov_step=float("inf"),
        )

    def as_estimate(self) -> MomentEstimate:
        """The current running MAP state as a :class:`MomentEstimate`."""
        state = self.current_estimate()
        return MomentEstimate(
            mean=state.mean,
            covariance=state.covariance,
            n_samples=state.n_observed,
            method="sequential_bmf",
            info={"kappa0": self.kappa0, "v0": self.v0},
        )

    def converged(
        self, mean_tol: float = 1e-3, cov_tol: float = 1e-3, patience: int = 3
    ) -> bool:
        """Stopping rule: last ``patience`` steps all moved less than tol.

        A pragmatic measurement-budget cutoff for the post-silicon lab:
        stop paying for bench time once extra dies stop moving the fused
        moments.
        """
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        if len(self.history) < patience + 1:
            return False
        recent = self.history[-patience:]
        return all(
            s.mean_step <= mean_tol and s.cov_step <= cov_tol for s in recent
        )


class SequentialBMFEstimator(MomentEstimator):
    """Batch adapter: streaming fusion's final state as a `MomentEstimate`.

    Conforms :class:`SequentialBMF` to the common estimator protocol so the
    streaming path participates in the registry, pipeline, and sweeps.  By
    conjugacy the result equals the batch
    :func:`repro.core.bmf.map_moments` at the same ``(kappa0, v0)`` — the
    equivalence the sequential tests verify — so registering it mostly
    buys the sweeps a cross-check, and users an estimator whose state they
    can keep feeding afterwards (see :attr:`last_run`).

    ``kappa0``/``v0`` default to the weakly-informative corner
    ``(1, d + 1)`` when not supplied (streaming mode cannot re-run CV per
    die; the pipeline resolves and pins better values when used through a
    config).
    """

    name = "sequential_bmf"

    def __init__(
        self,
        prior: PriorKnowledge,
        kappa0: Optional[float] = None,
        v0: Optional[float] = None,
    ) -> None:
        self.prior = prior
        self.kappa0 = float(kappa0) if kappa0 is not None else 1.0
        self.v0 = float(v0) if v0 is not None else float(prior.dim) + 1.0
        #: The :class:`SequentialBMF` instance of the last estimate call.
        self.last_run: Optional[SequentialBMF] = None

    def estimate(
        self, samples, rng: Optional[np.random.Generator] = None
    ) -> MomentEstimate:
        """Stream all rows through the conjugate recursion; return the end state."""
        data = self._check(samples)
        seq = SequentialBMF(self.prior, self.kappa0, self.v0)
        seq.observe_batch(data)
        self.last_run = seq
        return seq.as_estimate()
