"""Per-candidate reference scorers for the (kappa0, v0) hyper-parameter search.

:class:`~repro.core.crossval.TwoDimensionalCV` scores the whole grid from
fold sufficient statistics in one batched factorisation, and
:class:`~repro.core.evidence.EvidenceSelector` evaluates the evidence of
the whole grid in one batched pass.  These are the formulations they
replaced, kept as oracles:

* :func:`cv_loop_select` builds one ``MultivariateGaussian`` per
  candidate and fold and scores the held-out rows one by one (with the
  same repair order: plain Cholesky with one jitter retry, then an
  eigenvalue clip, else ``-inf``);
* :func:`loop_fold_stats` is the per-fold loop that built the stacked
  :class:`~repro.core.crossval.FoldStats` before one gather did;
* :func:`stacked_fold_ll` is the scorer that preceded the closed form:
  it builds the whole ``(Q, K, V, d, d)`` MAP stack, factors all of it
  with the repair ladder and scores every member by one triangular solve;
* :func:`evidence_loop_select` calls :func:`repro.core.evidence.log_evidence`
  once per candidate.

Both return the same result types as the production selectors.  Unlike
them, they return a ``-inf`` grid instead of raising when no candidate is
usable.  ``scripts/bench_cv.py`` imports this module to check the
production scorer before it reports a time.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core import crossval
from repro.core.crossval import CrossValidationResult, make_folds
from repro.core.evidence import EvidenceResult, log_evidence
from repro.core.hypergrid import HyperParameterGrid
from repro.core.prior import PriorKnowledge
from repro.exceptions import NotSPDError
from repro.linalg.batched import (
    cholesky_batched_safe,
    logdet_batched,
    solve_triangular_batched,
)
from repro.linalg.validation import as_samples, clip_eigenvalues
from repro.stats.multivariate_gaussian import _LOG_2PI, MultivariateGaussian

#: Per-fold statistics: ``(n_train, xbar, scatter, test_rows)``.
FoldStats = Tuple[int, np.ndarray, np.ndarray, np.ndarray]


def train_test_stats(data: np.ndarray, test_idx: np.ndarray) -> FoldStats:
    """Training statistics and held-out rows of one fold."""
    n = data.shape[0]
    mask = np.ones(n, dtype=bool)
    mask[test_idx] = False
    train = data[mask]
    test = data[~mask]
    n_train = train.shape[0]
    xbar = train.mean(axis=0)
    centered = train - xbar
    scatter = centered.T @ centered
    scatter = (scatter + scatter.T) / 2.0
    return n_train, xbar, scatter, test


def loop_fold_stats(data: np.ndarray, folds: Sequence[np.ndarray]) -> crossval.FoldStats:
    """:func:`repro.core.crossval._fold_stats`, one fold per loop iteration.

    The bitwise oracle of the stacked gather on equal folds (``Q | n``).
    """
    n, d = data.shape
    n_test = np.array([fold.size for fold in folds], dtype=float)
    xbar = np.empty((len(folds), d))
    scatter = np.empty((len(folds), d, d))
    xbar_test = np.empty((len(folds), d))
    centred = np.zeros((len(folds), int(n_test.max()), d))
    for i, fold in enumerate(folds):
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        train = data[mask]
        xbar[i] = train.mean(axis=0)
        dev = train - xbar[i]
        s = dev.T @ dev
        scatter[i] = (s + s.T) / 2.0
        test = data[fold]
        xbar_test[i] = test.mean(axis=0)
        centred[i, : fold.size] = test - xbar_test[i]
    root = np.linalg.qr(centred, mode="r")
    return crossval.FoldStats(n - n_test, xbar, scatter, n_test, xbar_test, root)


def map_moments(
    prior: PriorKnowledge, stats: FoldStats, kappa0: float, v0: float
) -> Tuple[np.ndarray, np.ndarray]:
    """MAP mean and covariance (Eq. 31–32) of one candidate on one fold."""
    n_train, xbar, scatter, _test = stats
    d = prior.dim
    mu_e = prior.mean
    diff = mu_e - xbar
    mu_map = (kappa0 * mu_e + n_train * xbar) / (kappa0 + n_train)
    numerator = (
        (v0 - d) * prior.covariance
        + scatter
        + (kappa0 * n_train / (kappa0 + n_train)) * np.outer(diff, diff)
    )
    sigma_map = numerator / (v0 + n_train - d)
    return mu_map, (sigma_map + sigma_map.T) / 2.0


def score_candidate(
    prior: PriorKnowledge, fold_stats: Sequence[FoldStats], kappa0: float, v0: float
) -> float:
    """Average held-out log-likelihood of one ``(kappa0, v0)`` pair."""
    total = 0.0
    for stats in fold_stats:
        mu_map, sigma_map = map_moments(prior, stats, kappa0, v0)
        test = stats[3]
        try:
            gaussian = MultivariateGaussian(mu_map, sigma_map)
        except NotSPDError:
            # Degenerate candidate (v0 -> d with a rank-deficient
            # scatter): repair once, and if still singular score it out.
            try:
                gaussian = MultivariateGaussian(
                    mu_map, clip_eigenvalues(sigma_map, 1e-10)
                )
            except NotSPDError:
                return -np.inf
        # Average per-sample log-likelihood keeps folds of slightly
        # different sizes comparable.
        total += gaussian.loglik(test) / test.shape[0]
    return total / len(fold_stats)


def cv_fold_stats(
    samples, n_folds: int, rng: Optional[np.random.Generator]
) -> List[FoldStats]:
    """The folds :meth:`TwoDimensionalCV.select` draws from the same ``rng``."""
    data = as_samples(samples)
    n = data.shape[0]
    folds = make_folds(n, min(n_folds, n), rng)
    return [train_test_stats(data, fold) for fold in folds]


def cv_loop_select(
    prior: PriorKnowledge,
    grid: HyperParameterGrid,
    samples,
    n_folds: int = 4,
    rng: Optional[np.random.Generator] = None,
) -> CrossValidationResult:
    """Two-dimensional CV, one ``MultivariateGaussian`` per candidate."""
    fold_stats = cv_fold_stats(samples, n_folds, rng)
    kappas = grid.kappa0_values
    vs = grid.v0_values
    scores = np.full((kappas.size, vs.size), -np.inf)
    for i, kappa0 in enumerate(kappas):
        for j, v0 in enumerate(vs):
            scores[i, j] = score_candidate(prior, fold_stats, float(kappa0), float(v0))
    bi, bj = np.unravel_index(int(np.argmax(scores)), scores.shape)
    return CrossValidationResult(
        kappa0=float(kappas[bi]),
        v0=float(vs[bj]),
        best_score=float(scores[bi, bj]),
        kappa0_values=kappas.copy(),
        v0_values=vs.copy(),
        scores=scores,
        n_folds=len(fold_stats),
    )


def stacked_fold_ll(
    prior: PriorKnowledge, grid: HyperParameterGrid, stats
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-member held-out log-likelihood through one ``(Q, K, V)`` Cholesky stack.

    ``stats`` is the :class:`repro.core.crossval.FoldStats` of a split.
    Returns ``(fold_ll, ok)``, both ``(Q, K, V)``; members with ``ok``
    False are irreparable and their ``fold_ll`` is meaningless.
    """
    d = prior.dim
    mu_e = prior.mean
    kappas = grid.kappa0_values
    vs = grid.v0_values
    n_train = stats.n_train[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        diff = mu_e - stats.xbar
        outer = diff[:, :, None] * diff[:, None, :]
        c = kappas * n_train / (kappas + n_train)
        base = (vs[:, None, None] - d) * prior.covariance
        base = base[None] + stats.scatter[:, None]
        numerator = base[:, None] + c[:, :, None, None, None] * outer[:, None, None]
        sigma = numerator / (vs + n_train - d)[:, None, :, None, None]
        sigma = (sigma + np.swapaxes(sigma, -1, -2)) / 2.0
        mu = (kappas[:, None] * mu_e + n_train[:, :, None] * stats.xbar[:, None]) / (
            kappas + n_train
        )[:, :, None]
    q, nk, nv = sigma.shape[:3]
    chol, ok = cholesky_batched_safe(
        sigma.reshape(-1, d, d), jitter_rel=1e-10, clip_floor_rel=1e-10
    )
    ok = ok.reshape(q, nk, nv)
    chol[~ok.ravel()] = np.eye(d)
    log_det = logdet_batched(chol).reshape(q, nk, nv)
    k = stats.root.shape[1]
    rhs = np.empty((q, nk, nv, d, k + 1))
    rhs[..., :k] = np.swapaxes(stats.root, -1, -2)[:, None, None]
    rhs[..., k] = (stats.xbar_test[:, None, :] - mu)[:, :, None, :]
    rhs[~ok] = 0.0
    z = solve_triangular_batched(chol, rhs.reshape(-1, d, k + 1))
    z = (z * z).reshape(q, nk, nv, d, k + 1)
    n_test = stats.n_test[:, None, None]
    maha = z[..., :k].sum(axis=(-2, -1)) + n_test * z[..., k].sum(axis=-1)
    return -0.5 * (d * _LOG_2PI + log_det + maha / n_test), ok


def evidence_loop_select(
    prior: PriorKnowledge, grid: HyperParameterGrid, samples
) -> EvidenceResult:
    """Evidence maximisation, one :func:`log_evidence` per candidate."""
    data = as_samples(samples)
    kappas = grid.kappa0_values
    vs = grid.v0_values
    scores = np.full((kappas.size, vs.size), -np.inf)
    for i, kappa0 in enumerate(kappas):
        for j, v0 in enumerate(vs):
            try:
                scores[i, j] = log_evidence(prior, data, float(kappa0), float(v0))
            except NotSPDError:
                scores[i, j] = -np.inf
    bi, bj = np.unravel_index(int(np.argmax(scores)), scores.shape)
    return EvidenceResult(
        kappa0=float(kappas[bi]),
        v0=float(vs[bj]),
        best_log_evidence=float(scores[bi, bj]),
        kappa0_values=kappas.copy(),
        v0_values=vs.copy(),
        scores=scores,
    )


def max_rel_deviation(scores: np.ndarray, reference: np.ndarray) -> float:
    """Largest ``|a - b| / max(1, |b|)`` over the finite reference scores.

    Returns ``inf`` when the ``-inf`` patterns of the two grids differ.
    """
    finite = np.isfinite(reference)
    if not np.array_equal(np.isfinite(scores), finite):
        return float("inf")
    if not finite.any():
        return 0.0
    ref = reference[finite]
    return float(np.max(np.abs(scores[finite] - ref) / np.maximum(1.0, np.abs(ref))))
