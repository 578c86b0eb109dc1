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
does not grow with ``n``, and no ``(Q, K, V, d, d)`` covariance stack is
built.  The statistics of all ``Q`` folds come from one stacked gather,
not a loop over folds:

* Eq. (9) summed over a held-out fold needs only ``(n_t, xbar_t, S_t)``:
  ``sum_i (x_i - mu)^T Sigma^-1 (x_i - mu) = tr(Sigma^-1 S_t) + n_t
  (xbar_t - mu)^T Sigma^-1 (xbar_t - mu)``, with ``R^T R = S_t`` from a
  QR of the fold's centred rows (at most ``d`` rows, ``n_t <= d``
  included).
* Eq. (32)'s numerator is ``W(v0) + c u u^T`` with ``W(v0) = (v0 - d)
  Sigma_E + S_q``, ``u = mu_E - xbar`` and ``c = kappa0 n / (kappa0 +
  n)``; Eq. (31) moves the mean along the same ``u``.  Whitening by the
  Cholesky factor of ``Sigma_E`` (factored once per prior,
  :attr:`~repro.core.prior.PriorKnowledge.whitening`) and one
  eigendecomposition per fold
  (``P Sigma_E P^T = I``, ``P S_q P^T = diag(lam)``) make ``W(v0)^-1``
  and ``log |W(v0)|`` diagonal for every ``v0``; Sherman–Morrison and the
  matrix determinant lemma add the rank-one ``kappa0`` term.  The whole
  ``(Q, K, V)`` surface is then ``(Q, V, d)`` and ``(Q, K, V)``
  broadcasts.
* A member whose bound ``spread(W) * (1 + c u^T W^-1 u) *
  cond(Sigma_E)`` exceeds :data:`CLOSED_FORM_BOUND`, or whose
  closed-form score is not finite, is re-scored the direct way: its MAP
  covariance is factorised by a batched Cholesky with the
  jitter/eigenvalue-clip repair ladder and the held-out fold is scored
  by one triangular solve against ``[R^T, xbar_t - mu]``.

A candidate whose covariance is irreparable in any fold scores ``-inf``;
when every candidate does, :meth:`TwoDimensionalCV.select` raises
:class:`~repro.exceptions.HyperParameterError` instead of returning an
arbitrary grid corner.  The per-candidate ``MultivariateGaussian``
formulation and the stacked Cholesky scorer live on in the test suite as
the oracles this scorer is pinned to (``1e-10``), and the per-fold loop
as the bitwise oracle of the fold statistics on equal folds.

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

#: Largest conditioning bound ``spread(W) * (1 + c gamma) * cond(Sigma_E)``
#: a (fold, candidate) member may have and still be scored in closed form;
#: members above it are re-scored on the Cholesky path.  ``spread(W)`` is
#: the ratio of the extreme eigenvalues of ``W(v0)`` in the whitened
#: basis, ``1 + c gamma`` is the Sherman–Morrison denominator and
#: ``cond(Sigma_E)`` covers the whitening.  On a random stress corpus
#: (d 1–8, cond(Sigma_E) up to 1e9, v0 - d down to 1e-12) the first
#: member more than 1e-10 off the Cholesky scorer had a bound near 1e6;
#: see docs/PERFORMANCE.md.
CLOSED_FORM_BOUND = 1e5


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
    if n % n_folds == 0:
        # Same partition as ``np.array_split``, without its per-fold slicing.
        return list(np.sort(perm.reshape(n_folds, -1), axis=1))
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
    def _score_grid(self, stats: FoldStats) -> np.ndarray:
        """Average held-out log-likelihood of every ``(K, V)`` candidate.

        Every ``(fold, candidate)`` member is scored in closed form
        (:func:`_closed_form_fold_ll`); the members whose conditioning
        bound exceeds :data:`CLOSED_FORM_BOUND`, or whose closed form is
        not finite, are re-scored by :meth:`_score_members`.  A candidate
        that is irreparable in any fold scores ``-inf``.
        """
        fold_ll, flagged = _closed_form_fold_ll(self.prior, self.grid, stats)
        ok = np.ones(fold_ll.shape, dtype=bool)
        if flagged.any():
            members = np.nonzero(flagged)
            fold_ll[members], ok[members] = self._score_members(stats, members)
        usable = ok.all(axis=0)
        if not usable.any():
            raise HyperParameterError(
                "every (kappa0, v0) candidate scores -inf: its MAP covariance "
                "is non-finite or stays indefinite after jitter and eigenvalue "
                "clipping in at least one fold"
            )
        scores = fold_ll.sum(axis=0) / fold_ll.shape[0]
        scores[~usable] = -np.inf
        return scores

    def _score_members(
        self, stats: FoldStats, members: Tuple[np.ndarray, np.ndarray, np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Held-out log-likelihood of the ``(fold, kappa0, v0)`` index triples.

        Builds each member's MAP moments (Eq. 31–32), factors them with
        the jitter/eigenvalue-clip repair ladder and scores the held-out
        fold by one triangular solve against ``[R^T, xbar_t - mu]``.
        Returns ``(fold_ll, ok)``; an irreparable member (``ok`` False)
        gets the identity factor and zero right-hand sides, so no division
        touches it.
        """
        d = self.prior.dim
        qi, ki, vi = members
        mu_e = self.prior.mean
        kappa = self.grid.kappa0_values[ki]
        v0 = self.grid.v0_values[vi]
        n_train = stats.n_train[qi]
        xbar = stats.xbar[qi]
        with np.errstate(over="ignore", invalid="ignore"):
            diff = mu_e - xbar
            outer = diff[:, :, None] * diff[:, None, :]
            c = kappa * n_train / (kappa + n_train)
            base = (v0[:, None, None] - d) * self.prior.covariance + stats.scatter[qi]
            numerator = base + c[:, None, None] * outer
            sigma = numerator / (v0 + n_train - d)[:, None, None]
            sigma = (sigma + np.swapaxes(sigma, -1, -2)) / 2.0
            mu = (kappa[:, None] * mu_e + n_train[:, None] * xbar) / (kappa + n_train)[:, None]
        chol, ok = cholesky_batched_safe(sigma, jitter_rel=1e-10, clip_floor_rel=1e-10)
        chol[~ok] = np.eye(d)
        log_det = logdet_batched(chol)

        k = stats.root.shape[1]
        rhs = np.empty((qi.size, d, k + 1))
        rhs[..., :k] = np.swapaxes(stats.root[qi], -1, -2)
        rhs[..., k] = stats.xbar_test[qi] - mu
        rhs[~ok] = 0.0
        z = solve_triangular_batched(chol, rhs)
        z = z * z
        n_test = stats.n_test[qi]
        maha = z[..., :k].sum(axis=(-2, -1)) + n_test * z[..., k].sum(axis=-1)
        return -0.5 * (d * _LOG_2PI + log_det + maha / n_test), ok


def _closed_form_fold_ll(
    prior: PriorKnowledge, grid: HyperParameterGrid, stats: FoldStats
) -> Tuple[np.ndarray, np.ndarray]:
    """Held-out log-likelihood of every ``(Q, K, V)`` member, in closed form.

    With ``W(v) = (v - d) Sigma_E + S_q`` and ``u = mu_E - xbar``, the
    MAP covariance is ``(W + c u u^T) / m`` with ``c = kappa0 n / (kappa0
    + n)`` and ``m = v0 + n - d``, and the MAP mean is ``xbar + a u`` with
    ``a = kappa0 / (kappa0 + n)``.  One generalised eigendecomposition
    ``P Sigma_E P^T = I``, ``P S_q P^T = diag(lam)`` makes ``W(v)^-1``
    diagonal for every ``v0``; Sherman–Morrison and the matrix determinant
    lemma add the rank-one ``kappa0`` term.  Returns ``(fold_ll,
    flagged)``, both ``(Q, K, V)``: ``flagged`` marks the members whose
    bound ``spread(W) * (1 + c gamma) * cond(Sigma_E)`` exceeds
    :data:`CLOSED_FORM_BOUND` or whose score is not finite.
    """
    d = prior.dim
    kappas = grid.kappa0_values
    vs = grid.v0_values
    n_train = stats.n_train[:, None]  # (Q, 1)
    spec = prior.whitening.whitened_eigh(stats.scatter)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        proj_t = np.swapaxes(spec.proj, -1, -2)
        u = ((prior.mean - stats.xbar)[:, None, :] @ proj_t)[:, 0]  # (Q, d)
        t = ((stats.xbar_test - stats.xbar)[:, None, :] @ proj_t)[:, 0]  # (Q, d)
        root = stats.root @ proj_t  # (Q, k, d)
        eig = (vs - d)[None, :, None] + spec.values[:, None, :]  # (Q, V, d)
        inv = 1.0 / eig
        inv_u = inv * u[:, None, :]
        gamma = (inv_u * u[:, None, :]).sum(axis=-1)  # (Q, V)
        beta = (inv_u * t[:, None, :]).sum(axis=-1)
        tau = (inv * (t * t)[:, None, :]).sum(axis=-1)
        trace = inv @ (root * root).sum(axis=1)[:, :, None]  # (Q, V, 1)
        rho = ((inv_u @ np.swapaxes(root, -1, -2)) ** 2).sum(axis=-1)  # (Q, V)
        logdet_w = spec.base_logdet + np.log(eig).sum(axis=-1)
        low = eig.min(axis=-1)
        spread = np.where(low > 0.0, eig.max(axis=-1) / low, np.inf)

        # (Q, K, V) from here on.
        c = (kappas * n_train / (kappas + n_train))[:, :, None]
        a = (kappas / (kappas + n_train))[:, :, None]
        gamma, beta, tau, rho = (x[:, None, :] for x in (gamma, beta, tau, rho))
        g = 1.0 + c * gamma
        m = (vs + n_train - d)[:, None, :]
        n_test = stats.n_test[:, None, None]
        cross = beta - a * gamma
        quad = tau - 2.0 * a * beta + a * a * gamma - c * cross * cross / g
        trace_n = trace[:, None, :, 0] - c * rho / g
        log_det = logdet_w[:, None, :] + np.log(g) - d * np.log(m)
        maha = m * (trace_n + n_test * quad)
        fold_ll = -0.5 * (d * _LOG_2PI + log_det + maha / n_test)
        bound = spread[:, None, :] * g * spec.base_cond
    flagged = ~((bound <= CLOSED_FORM_BOUND) & np.isfinite(fold_ll))
    return fold_ll, flagged


def _fold_stats(data: np.ndarray, folds: Sequence[np.ndarray]) -> FoldStats:
    """Train and held-out statistics of every fold, reused by all candidates.

    One gather builds the ``(Q, n_train, d)`` train and ``(Q, n_t, d)``
    held-out blocks, each fold's rows in ascending order.  A fold smaller
    than the widest is padded with index ``n``, which gathers an appended
    zero row: pads add nothing to the sums and are zeroed again after
    centring, so they change neither ``S`` nor ``R^T R``.

    Raises :class:`~repro.exceptions.HyperParameterError` when they
    overflow float64: every candidate would then score ``-inf``.
    """
    n, d = data.shape
    sizes = np.fromiter(map(len, folds), dtype=np.intp, count=len(folds))
    q = sizes.size
    held = np.zeros((q, n), dtype=bool)
    held[np.repeat(np.arange(q), sizes), np.concatenate(folds)] = True
    cols = np.arange(n)
    # Sorting puts each fold's own indices first, ascending; the pad
    # index n sorts last.
    test_idx = np.sort(np.where(held, cols, n), axis=1)[:, : sizes.max()]
    train_idx = np.sort(np.where(held, n, cols), axis=1)[:, : n - sizes.min()]
    rows = np.concatenate([data, np.zeros((1, d))])
    n_test = sizes.astype(float)
    n_train = n - n_test
    with np.errstate(over="ignore", invalid="ignore"):
        dev = np.take(rows, train_idx, axis=0)
        xbar = dev.sum(axis=1) / n_train[:, None]
        dev -= xbar[:, None]
        dev[train_idx == n] = 0.0
        s = np.swapaxes(dev, -1, -2) @ dev
        scatter = (s + np.swapaxes(s, -1, -2)) / 2.0
        centred = np.take(rows, test_idx, axis=0)
        xbar_test = centred.sum(axis=1) / n_test[:, None]
        centred -= xbar_test[:, None]
        centred[test_idx == n] = 0.0
    if not (np.isfinite(scatter).all() and np.isfinite(centred).all()):
        raise HyperParameterError(
            "every (kappa0, v0) candidate scores -inf: the fold scatter "
            f"overflows float64 (largest |sample| {np.abs(data).max():.3g}); "
            "rescale the samples first"
        )
    root = np.linalg.qr(centred, mode="r")
    return FoldStats(n_train, xbar, scatter, n_test, xbar_test, root)
