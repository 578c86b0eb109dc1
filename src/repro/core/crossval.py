"""Two-dimensional Q-fold cross validation for ``(kappa0, v0)`` (Sec. 4.2).

For every candidate pair on a :class:`~repro.core.hypergrid.HyperParameterGrid`
the late-stage samples are split into ``Q`` folds; each fold in turn is held
out, the MAP moments (Eq. 31–32) are computed from the remaining folds, and
the held-out fold is scored with the Gaussian log-likelihood (Eq. 9).  The
pair maximising the average held-out log-likelihood wins — "larger
likelihood function value indicates more accurate estimation" (Sec. 4.2).

Implementation notes
--------------------
The search runs on per-fold sufficient statistics, so the cost of scoring
does not grow with ``n``:

* Eq. (31)–(32) are affine in the training statistics ``(n, Xbar, S)``,
  so the MAP moments of every fold and grid candidate are one
  ``(Q, K, V, d, d)`` broadcast, factorised by a single batched Cholesky
  (with a jitter/eigenvalue-clip repair ladder for non-SPD stragglers).
* Eq. (9) summed over a held-out fold needs only ``(n_t, xbar_t, S_t)``.
  With ``Sigma = L L^T`` and ``R^T R = S_t``,
  ``sum_i ||L^-1 (x_i - mu)||^2 = ||L^-1 R^T||_F^2 + n_t ||L^-1 (xbar_t - mu)||^2``.
  ``R`` comes from a QR of the fold's centred rows, which also covers
  ``n_t <= d``, and has at most ``d`` rows.  One triangular solve over
  at most ``d + 1`` right-hand sides then scores every candidate of
  every fold.

A candidate whose covariance is irreparable in any fold scores ``-inf``;
when every candidate does, :meth:`TwoDimensionalCV.select` raises
:class:`~repro.exceptions.HyperParameterError` instead of returning an
arbitrary grid corner.  The per-candidate ``MultivariateGaussian``
formulation lives on in the test suite as the oracle this scorer is
pinned to (``1e-10``).

Determinism contract
--------------------
Every entry point that splits folds accepts an ``rng``; passing a seeded
generator makes the whole search (folds, therefore scores and winner)
reproducible.  ``rng=None`` deliberately draws fresh OS entropy instead —
randomised folds protect against systematic ordering bias when samples
arrive sorted — so callers that need repeatability must thread their own
generator all the way through (``ErrorSweep`` and
:meth:`~repro.core.bmf.BMFEstimator.estimate` do exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.hypergrid import HyperParameterGrid
from repro.core.prior import PriorKnowledge
from repro.exceptions import HyperParameterError, InsufficientDataError
from repro.linalg.batched import (
    cholesky_batched_safe,
    logdet_batched,
    solve_triangular_batched,
)
from repro.linalg.validation import as_samples
from repro.stats.multivariate_gaussian import _LOG_2PI

__all__ = ["CrossValidationResult", "TwoDimensionalCV", "make_folds"]


class FoldStats(NamedTuple):
    """Sufficient statistics of the ``Q`` train/held-out splits, stacked.

    ``n_train`` and ``n_test`` are ``(Q,)``; ``xbar`` and ``xbar_test``
    are ``(Q, d)``; ``scatter`` is the ``(Q, d, d)`` training scatter
    ``S``; ``root`` is ``(Q, k, d)`` with ``root[q]^T root[q]`` the
    scatter of held-out fold ``q`` (``k = min(max n_t, d)``).
    """

    n_train: np.ndarray
    xbar: np.ndarray
    scatter: np.ndarray
    n_test: np.ndarray
    xbar_test: np.ndarray
    root: np.ndarray


@dataclass(frozen=True)
class CrossValidationResult:
    """Winner of the two-dimensional search plus the full score surface.

    ``scores[i, j]`` is the average held-out log-likelihood for
    ``kappa0_values[i]`` and ``v0_values[j]`` — exactly the landscape the
    paper sketches in Fig. 2(a).
    """

    kappa0: float
    v0: float
    best_score: float
    kappa0_values: np.ndarray
    v0_values: np.ndarray
    scores: np.ndarray
    n_folds: int

    def score_at(self, kappa0: float, v0: float, atol: float = 1e-9) -> float:
        """Score of a specific grid candidate.

        The query must name an actual grid point: each coordinate is
        matched against its axis within ``atol * max(1, |query|)`` (loose
        enough to absorb float round-trips through JSON or string
        formatting).  Off-grid queries raise
        :class:`~repro.exceptions.HyperParameterError` instead of silently
        snapping to the nearest candidate.
        """
        i = int(np.argmin(np.abs(self.kappa0_values - kappa0)))
        j = int(np.argmin(np.abs(self.v0_values - v0)))
        if abs(float(self.kappa0_values[i]) - kappa0) > atol * max(1.0, abs(kappa0)):
            raise HyperParameterError(
                f"kappa0={kappa0!r} is not on the grid (nearest candidate: "
                f"{float(self.kappa0_values[i])!r})"
            )
        if abs(float(self.v0_values[j]) - v0) > atol * max(1.0, abs(v0)):
            raise HyperParameterError(
                f"v0={v0!r} is not on the grid (nearest candidate: "
                f"{float(self.v0_values[j])!r})"
            )
        return float(self.scores[i, j])


def make_folds(
    n: int, n_folds: int, rng: Optional[np.random.Generator] = None
) -> List[np.ndarray]:
    """Partition ``range(n)`` into ``n_folds`` near-equal random folds.

    Matches Fig. 2(b): each sample appears in exactly one testing fold.
    Deterministic given ``rng``.  With ``rng=None`` the split draws fresh
    OS entropy — still randomised to avoid systematic ordering bias when
    samples arrive sorted, but **not reproducible**; callers that need
    repeatable folds (every experiment harness in this repo) must pass a
    seeded generator.  See the module docstring's determinism contract.
    """
    if n_folds < 2:
        raise ValueError(f"n_folds must be >= 2, got {n_folds}")
    if n < n_folds:
        raise InsufficientDataError(
            f"cannot split {n} samples into {n_folds} folds"
        )
    gen = rng if rng is not None else np.random.default_rng()
    perm = gen.permutation(n)
    return [np.sort(part) for part in np.array_split(perm, n_folds)]


class TwoDimensionalCV:
    """Grid-search cross validator for the BMF hyper-parameters.

    Parameters
    ----------
    prior:
        Early-stage knowledge used by every candidate's MAP estimate.
    grid:
        Candidate ``(kappa0, v0)`` combinations.
    n_folds:
        Requested ``Q``; automatically reduced to ``n`` when fewer samples
        than folds are supplied (leave-one-out at the extreme).
    """

    def __init__(
        self,
        prior: PriorKnowledge,
        grid: Optional[HyperParameterGrid] = None,
        n_folds: int = 4,
    ) -> None:
        self.prior = prior
        self.grid = grid if grid is not None else HyperParameterGrid.paper_default(prior.dim)
        if self.grid.dim != prior.dim:
            raise InsufficientDataError(
                f"grid dim {self.grid.dim} does not match prior dim {prior.dim}"
            )
        if n_folds < 2:
            raise ValueError(f"n_folds must be >= 2, got {n_folds}")
        self.n_folds = int(n_folds)

    # ------------------------------------------------------------------
    def select(
        self, samples, rng: Optional[np.random.Generator] = None
    ) -> CrossValidationResult:
        """Run the full two-dimensional search and return the winner.

        Raises :class:`~repro.exceptions.HyperParameterError` when no grid
        candidate has a usable covariance in every fold.
        """
        data = as_samples(samples)
        n, d = data.shape
        if d != self.prior.dim:
            raise InsufficientDataError(
                f"samples have {d} metrics but prior has {self.prior.dim}"
            )
        if n < 2:
            raise InsufficientDataError("cross validation needs at least 2 samples")
        q = min(self.n_folds, n)
        scores = self._score_grid(_fold_stats(data, make_folds(n, q, rng)))

        kappas = self.grid.kappa0_values
        vs = self.grid.v0_values
        bi, bj = np.unravel_index(int(np.argmax(scores)), scores.shape)
        return CrossValidationResult(
            kappa0=float(kappas[bi]),
            v0=float(vs[bj]),
            best_score=float(scores[bi, bj]),
            kappa0_values=kappas.copy(),
            v0_values=vs.copy(),
            scores=scores,
            n_folds=q,
        )

    # ------------------------------------------------------------------
    def _map_moments(self, stats: FoldStats) -> Tuple[np.ndarray, np.ndarray]:
        """MAP moments (Eq. 31–32) of every fold and grid candidate.

        ``numerator[q, k, v] = (v0[v] - d) Sigma_E + S_q + c[q, k] *
        outer_q`` with ``c = kappa0 n / (kappa0 + n)``.  Returns
        ``(mu, sigma)`` of shapes ``(Q, K, d)`` and ``(Q, K, V, d, d)``.
        Overflow is not an error here: a non-finite member fails the
        Cholesky and its candidate scores ``-inf``.
        """
        d = self.prior.dim
        mu_e = self.prior.mean
        kappas = self.grid.kappa0_values
        vs = self.grid.v0_values
        n_train = stats.n_train[:, None]  # (Q, 1)

        with np.errstate(over="ignore", invalid="ignore"):
            diff = mu_e - stats.xbar
            outer = diff[:, :, None] * diff[:, None, :]  # (Q, d, d)
            c = kappas * n_train / (kappas + n_train)  # (Q, K)
            base = (vs[:, None, None] - d) * self.prior.covariance  # (V, d, d)
            base = base[None] + stats.scatter[:, None]  # (Q, V, d, d)
            numerator = base[:, None] + c[:, :, None, None, None] * outer[:, None, None]
            sigma = numerator / (vs + n_train - d)[:, None, :, None, None]
            sigma = (sigma + np.swapaxes(sigma, -1, -2)) / 2.0
            mu = (kappas[:, None] * mu_e + n_train[:, :, None] * stats.xbar[:, None]) / (
                kappas + n_train
            )[:, :, None]
        return mu, sigma

    def _score_grid(self, stats: FoldStats) -> np.ndarray:
        """Average held-out log-likelihood of every ``(K, V)`` candidate.

        One batched Cholesky over the ``(Q, K, V)`` covariance stack and
        one triangular solve against ``[R^T, xbar_t - mu]`` score every
        fold at once.  Irreparable factors are swapped for the identity
        (and their right-hand sides zeroed) so no division touches them;
        their candidates score ``-inf``.
        """
        d = self.prior.dim
        mu, sigma = self._map_moments(stats)
        q, nk, nv = sigma.shape[:3]
        chol, ok = cholesky_batched_safe(
            sigma.reshape(-1, d, d), jitter_rel=1e-10, clip_floor_rel=1e-10
        )
        ok = ok.reshape(q, nk, nv)
        usable = ok.all(axis=0)
        if not usable.any():
            raise HyperParameterError(
                "every (kappa0, v0) candidate scores -inf: its MAP covariance "
                "is non-finite or stays indefinite after jitter and eigenvalue "
                "clipping in at least one fold"
            )
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
        # Average per-sample log-likelihood keeps folds of slightly
        # different sizes comparable.
        fold_ll = -0.5 * (d * _LOG_2PI + log_det + maha / n_test)
        scores = fold_ll.sum(axis=0) / q
        scores[~usable] = -np.inf
        return scores


def _fold_stats(data: np.ndarray, folds: Sequence[np.ndarray]) -> FoldStats:
    """Train and held-out statistics of every fold, reused by all candidates.

    Raises :class:`~repro.exceptions.HyperParameterError` when they
    overflow float64: every candidate would then score ``-inf``.
    """
    n, d = data.shape
    n_test = np.array([fold.size for fold in folds], dtype=float)
    xbar = np.empty((len(folds), d))
    scatter = np.empty((len(folds), d, d))
    xbar_test = np.empty((len(folds), d))
    # Zero rows pad the folds to a common length without changing R^T R.
    centred = np.zeros((len(folds), int(n_test.max()), d))
    with np.errstate(over="ignore", invalid="ignore"):
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
    if not (np.isfinite(scatter).all() and np.isfinite(centred).all()):
        raise HyperParameterError(
            "every (kappa0, v0) candidate scores -inf: the fold scatter "
            f"overflows float64 (largest |sample| {np.abs(data).max():.3g}); "
            "rescale the samples first"
        )
    root = np.linalg.qr(centred, mode="r")
    return FoldStats(n - n_test, xbar, scatter, n_test, xbar_test, root)
