"""Multivariate Bayesian model fusion estimator — Eq. (31)–(32), Algorithm 1.

Given early-stage prior knowledge ``(mu_E, Sigma_E)`` and ``n`` late-stage
samples, the MAP estimates under the normal-Wishart prior are closed-form:

    mu_MAP    = (kappa0 * mu_E + n * Xbar) / (kappa0 + n)                (31)
    Sigma_MAP = [ (v0 - d) * Sigma_E
                  + S
                  + kappa0*n/(kappa0+n) * (mu_E - Xbar)(mu_E - Xbar)^T ]
                / (v0 + n - d)                                           (32)

The hyper-parameters ``(kappa0, v0)`` weight the early-stage knowledge for
the mean and covariance respectively (Sec. 3.3); by default they are chosen
by the two-dimensional Q-fold cross validation of Sec. 4.2, but callers may
pin them for ablation studies.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.core.estimators import MomentEstimate, MomentEstimator
from repro.core.hypergrid import HyperParameterGrid
from repro.core.prior import PriorKnowledge
from repro.core.registry import available_selectors, make_selector
from repro.exceptions import DimensionError, HyperParameterError, InsufficientDataError
from repro.linalg.batched import clip_eigenvalues_batched, symmetrize_batched
from repro.linalg.validation import as_samples
from repro.stats.suffstats import SufficientStats

__all__ = ["map_moments", "map_moments_from_stats", "map_moments_stack", "BMFEstimator"]

#: Relative eigenvalue floor of a MAP covariance, applied by
#: :func:`map_moments_stack` for the serving scorer and :class:`BMFEstimator`.
MAP_EIG_FLOOR = 1e-12


def map_moments_stack(
    prior_means: np.ndarray,
    prior_covs: np.ndarray,
    kappa0: np.ndarray,
    v0: np.ndarray,
    counts: np.ndarray,
    means: np.ndarray,
    scatters: np.ndarray,
    eig_floor_rel: float = MAP_EIG_FLOOR,
) -> Tuple[np.ndarray, np.ndarray]:
    """Eq. (31)–(32) for ``B`` independent sessions in one vectorised pass.

    The one implementation of the MAP arithmetic:
    :func:`map_moments_from_stats` is its ``B = 1`` call, and the serving
    scorer calls it on coalesced batches of sessions.

    Parameters
    ----------
    prior_means, prior_covs:
        ``(B, d)`` / ``(B, d, d)`` early-stage moments per session.
    kappa0, v0:
        ``(B,)`` hyper-parameters per session (``kappa0 > 0``, ``v0 > d``).
    counts, means, scatters:
        ``(B,)`` / ``(B, d)`` / ``(B, d, d)`` accumulated sufficient
        statistics per session; ``counts`` may contain zeros (sessions
        that have not ingested yet — they return the prior mode).
    eig_floor_rel:
        Relative eigenvalue floor for the returned covariances; matches
        the scalar estimator's guard.  Pass ``0`` to skip.

    Returns
    -------
    ``(mu_map, sigma_map)`` of shapes ``(B, d)`` and ``(B, d, d)``.  Every
    operation is element-wise per member, so member ``i`` is bit-identical
    to a ``B = 1`` call on member ``i`` alone.
    """
    mu_e = np.atleast_2d(np.asarray(prior_means, dtype=float))
    sig_e = np.asarray(prior_covs, dtype=float)
    k0 = np.atleast_1d(np.asarray(kappa0, dtype=float))
    nu0 = np.atleast_1d(np.asarray(v0, dtype=float))
    n = np.atleast_1d(np.asarray(counts, dtype=float))
    xbar = np.atleast_2d(np.asarray(means, dtype=float))
    scatter = np.asarray(scatters, dtype=float)

    b, d = mu_e.shape
    if sig_e.shape != (b, d, d) or scatter.shape != (b, d, d):
        raise DimensionError(
            f"covariance stacks must be ({b}, {d}, {d}), got "
            f"{sig_e.shape} and {scatter.shape}"
        )
    if xbar.shape != (b, d) or k0.shape != (b,) or nu0.shape != (b,) or n.shape != (b,):
        raise DimensionError("per-session arrays disagree on the batch size B")
    if np.any(k0 <= 0.0):
        raise HyperParameterError("every kappa0 must be > 0")
    if np.any(nu0 <= d):
        raise HyperParameterError(f"every v0 must exceed d = {d}")
    if np.any(n < 0):
        raise DimensionError("sample counts must be >= 0")

    kn = k0 + n
    mu_map = (k0[:, None] * mu_e + n[:, None] * xbar) / kn[:, None]
    diff = mu_e - xbar
    coef = k0 * n / kn
    numerator = (
        (nu0 - d)[:, None, None] * sig_e
        + scatter
        + coef[:, None, None] * (diff[:, :, None] * diff[:, None, :])
    )
    sigma_map = symmetrize_batched(numerator / (nu0 + n - d)[:, None, None])
    if eig_floor_rel > 0.0:
        sigma_map = clip_eigenvalues_batched(sigma_map, eig_floor_rel)
    return mu_map, sigma_map


def _check_hyperparams(kappa0: float, v0: float, d: int) -> None:
    """Raise :class:`HyperParameterError` unless ``0 < kappa0`` and ``d < v0``, both finite."""
    if not (math.isfinite(kappa0) and kappa0 > 0.0):
        raise HyperParameterError(f"kappa0 must be finite and > 0, got {kappa0}")
    if not (math.isfinite(v0) and v0 > d):
        raise HyperParameterError(f"v0 must be finite and exceed d = {d}, got {v0}")


def map_moments_from_stats(
    prior: PriorKnowledge,
    stats: SufficientStats,
    kappa0: float,
    v0: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """MAP mean and covariance (Eq. 31–32) from sufficient statistics.

    The posterior mode touches the late-stage data only through
    ``(n, Xbar, S)``, so the estimate can be produced from a
    :class:`~repro.stats.suffstats.SufficientStats` accumulator without
    re-visiting raw samples — this is what makes the one-shot and
    streaming (serving) paths provably identical: both funnel through
    this single arithmetic, the ``B = 1`` call of
    :func:`map_moments_stack` (no eigenvalue floor; callers apply it).

    ``n == 0`` is allowed and returns the prior mode ``(mu_E, Sigma_E)``
    exactly — the natural answer for a serving session that has not yet
    ingested any late-stage measurements.
    """
    d = prior.dim
    if stats.dim != d:
        raise InsufficientDataError(
            f"late-stage statistics have {stats.dim} metrics but prior has {d}"
        )
    _check_hyperparams(kappa0, v0, d)

    mu_map, sigma_map = map_moments_stack(
        prior.mean[None],
        prior.covariance[None],
        np.array([kappa0], dtype=float),
        np.array([v0], dtype=float),
        np.array([stats.n], dtype=float),
        stats.mean[None],
        stats.scatter[None],
        eig_floor_rel=0.0,
    )
    return mu_map[0], sigma_map[0]


def map_moments(
    prior: PriorKnowledge,
    samples: np.ndarray,
    kappa0: float,
    v0: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Closed-form MAP mean and covariance (Eq. 31–32).

    Parameters
    ----------
    prior:
        Early-stage moments ``(mu_E, Sigma_E)``.
    samples:
        ``(n, d)`` late-stage sample matrix.
    kappa0, v0:
        Normal-Wishart hyper-parameters; ``kappa0 > 0`` and ``v0 > d``.

    Returns
    -------
    ``(mu_map, sigma_map)`` with ``sigma_map`` symmetric positive definite
    (it is a positively weighted sum of an SPD matrix and PSD terms).

    This is a thin wrapper over :func:`map_moments_from_stats`; the
    one-shot statistics use the same batch formulas as always, so results
    are bit-identical to earlier revisions that inlined them.
    """
    data = as_samples(samples)
    if data.shape[1] != prior.dim:
        raise InsufficientDataError(
            f"late-stage samples have {data.shape[1]} metrics but prior has {prior.dim}"
        )
    return map_moments_from_stats(
        prior, SufficientStats.from_samples(data), kappa0, v0
    )


class BMFEstimator(MomentEstimator):
    """The paper's multivariate BMF moment estimator (Algorithm 1).

    Parameters
    ----------
    prior:
        Early-stage knowledge; build with
        :meth:`repro.core.prior.PriorKnowledge.from_samples`.
    kappa0, v0:
        Fixed hyper-parameters.  Leave both ``None`` (the default) to select
        them by two-dimensional cross validation, matching the paper's flow.
        Supplying both pins them (ablation mode); supplying exactly one is
        an error because the CV search is joint.
    grid:
        Hyper-parameter search grid for the CV; defaults to
        :meth:`HyperParameterGrid.paper_default` (1…1000 in both axes,
        Sec. 5.1).
    n_folds:
        Number of cross-validation folds ``Q`` (Sec. 4.2).  Clamped to the
        sample count when ``n < Q``.
    selector:
        Name of a registered search selector (see
        :func:`repro.core.registry.register_selector`): ``"cv"`` (the
        paper's two-dimensional Q-fold cross validation, default),
        ``"evidence"`` (fold-free marginal-likelihood maximisation, see
        :mod:`repro.core.evidence`), or any custom registration.
    """

    name = "bmf"

    def __init__(
        self,
        prior: PriorKnowledge,
        kappa0: Optional[float] = None,
        v0: Optional[float] = None,
        grid: Optional[HyperParameterGrid] = None,
        n_folds: int = 4,
        selector: str = "cv",
    ) -> None:
        if (kappa0 is None) != (v0 is None):
            raise HyperParameterError(
                "kappa0 and v0 must be supplied together or both left None"
            )
        self.prior = prior
        self.kappa0 = None if kappa0 is None else float(kappa0)
        self.v0 = None if v0 is None else float(v0)
        if self.kappa0 is not None:
            _check_hyperparams(self.kappa0, self.v0, prior.dim)
        self.grid = grid if grid is not None else HyperParameterGrid.paper_default(prior.dim)
        if n_folds < 2:
            raise ValueError(f"n_folds must be >= 2, got {n_folds}")
        self.n_folds = int(n_folds)
        if selector not in available_selectors():
            raise HyperParameterError(
                f"unknown selector {selector!r}; available: "
                f"{', '.join(available_selectors())}"
            )
        self.selector = selector
        #: Result of the last hyper-parameter search (None in pinned mode).
        self.last_cv_result = None

    # ------------------------------------------------------------------
    def estimate(
        self, samples, rng: Optional[np.random.Generator] = None
    ) -> MomentEstimate:
        """Run Algorithm 1 on the late-stage samples.

        Pinned ``(kappa0, v0)`` answer from any ``n >= 1``, as a served
        session does; only the hyper-parameter search needs ``n >= 2``.
        """
        data = self._check(samples)
        if self.kappa0 is not None:
            self.last_cv_result = None
            return self._map_estimate(
                SufficientStats.from_samples(data), self.kappa0, self.v0
            )
        n = data.shape[0]
        if n < 2:
            raise InsufficientDataError(f"BMF needs at least 2 late samples, got {n}")
        self.last_cv_result = self._select(data, rng)
        return self._map_estimate(
            SufficientStats.from_samples(data),
            self.last_cv_result.kappa0,
            self.last_cv_result.v0,
        )

    # ------------------------------------------------------------------
    def estimate_from_stats(self, stats: SufficientStats) -> MomentEstimate:
        """MAP estimate from accumulated sufficient statistics.

        The streaming entry point: no raw samples are touched, so the
        serving layer can answer ``estimate`` queries straight from a
        session's :class:`~repro.stats.suffstats.SufficientStats`.  Only
        pinned-hyper-parameter mode is supported — fold-based cross
        validation needs the raw rows to split, which an accumulator has
        deliberately discarded.
        """
        if self.kappa0 is None or self.v0 is None:
            raise HyperParameterError(
                "estimate_from_stats requires pinned (kappa0, v0); "
                "cross-validated selection needs raw samples"
            )
        return self._map_estimate(stats, self.kappa0, self.v0)

    def _map_estimate(
        self, stats: SufficientStats, kappa0: float, v0: float
    ) -> MomentEstimate:
        """Eq. 31–32 on ``stats`` with the served scorer's eigenvalue floor.

        The ``B = 1`` call of :func:`map_moments_stack` at its default
        ``MAP_EIG_FLOOR``, which guards against accumulated rounding when
        (v0 - d) is minuscule and n is tiny.
        """
        _check_hyperparams(kappa0, v0, self.prior.dim)
        mu_map, sigma_map = map_moments_stack(
            self.prior.mean[None],
            self.prior.covariance[None],
            np.array([kappa0], dtype=float),
            np.array([v0], dtype=float),
            np.array([stats.n], dtype=float),
            stats.mean[None],
            stats.scatter[None],
        )
        return MomentEstimate(
            mean=mu_map[0],
            covariance=sigma_map[0],
            n_samples=stats.n,
            method=self.name,
            info={"kappa0": float(kappa0), "v0": float(v0)},
        )

    # ------------------------------------------------------------------
    def posterior(self, samples, rng: Optional[np.random.Generator] = None):
        """Full normal-Wishart posterior for the selected hyper-parameters.

        Runs the same selection as :meth:`estimate` but returns the
        :class:`repro.stats.normal_wishart.NormalWishart` posterior, giving
        access to uncertainty (posterior predictive, sampling) beyond the
        point MAP estimate the paper reports.

        ``rng`` seeds the CV fold split exactly as in :meth:`estimate`;
        leaving it ``None`` draws a fresh nondeterministic split (see the
        determinism contract in :mod:`repro.core.crossval`).  Previously
        the generator could not be threaded through here at all, so
        ``posterior`` was unreproducible even for callers that seeded
        everything else.
        """
        data = self._check(samples)
        if self.kappa0 is not None:
            kappa0, v0 = self.kappa0, self.v0
        else:
            result = self._select(data, rng)
            kappa0, v0 = result.kappa0, result.v0
        return self.prior.to_normal_wishart(kappa0, v0).posterior(data)

    def _select(self, data, rng):
        """Run the configured hyper-parameter search (the pipeline's dispatch)."""
        selector = make_selector(self.selector, self.prior, self.grid, self.n_folds)
        return selector.select(data, rng=rng)
