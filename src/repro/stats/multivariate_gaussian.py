"""Multivariate Gaussian distribution (Eq. 5–9 of the paper).

The class stores the Cholesky factor of the covariance so repeated density
evaluations — the inner loop of the cross-validation scoring in Sec. 4.2 —
cost one triangular solve per sample instead of a fresh factorisation.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import DimensionError
from repro.linalg.batched import (
    cholesky_batched_safe,
    logdet_batched,
    mahalanobis_sq_batched,
)
from repro.linalg.validation import as_samples, cholesky_safe, solve_spd, symmetrize

__all__ = ["MultivariateGaussian", "gaussian_loglik", "gaussian_loglik_batch"]

_LOG_2PI = math.log(2.0 * math.pi)


class MultivariateGaussian:
    """A d-dimensional Gaussian ``N_d(mu, Sigma)`` with cached Cholesky.

    Parameters
    ----------
    mean:
        Length-``d`` mean vector.
    covariance:
        ``(d, d)`` SPD covariance matrix.  It is symmetrised and
        Cholesky-factorised at construction; a non-SPD matrix raises
        :class:`repro.exceptions.NotSPDError`.
    """

    def __init__(self, mean, covariance) -> None:
        self.mean = np.atleast_1d(np.asarray(mean, dtype=float))
        if self.mean.ndim != 1:
            raise DimensionError(f"mean must be 1-D, got ndim={self.mean.ndim}")
        self.covariance = symmetrize(np.asarray(covariance, dtype=float))
        if self.covariance.shape != (self.dim, self.dim):
            raise DimensionError(
                f"covariance shape {self.covariance.shape} does not match mean dim {self.dim}"
            )
        self._chol = cholesky_safe(self.covariance, "covariance")
        self._log_det = 2.0 * float(np.sum(np.log(np.diag(self._chol))))
        self._precision: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Dimensionality ``d``."""
        return self.mean.shape[0]

    @property
    def precision(self) -> np.ndarray:
        """Precision matrix ``Lambda = Sigma^{-1}`` (Sec. 3.2).

        Computed once from the stored Cholesky factor and cached; the
        returned array is marked read-only because it is shared between
        calls.
        """
        if self._precision is None:
            from scipy.linalg import solve_triangular

            identity = np.eye(self.dim)
            y = solve_triangular(self._chol, identity, lower=True)
            prec = symmetrize(y.T @ y)
            prec.setflags(write=False)
            self._precision = prec
        return self._precision

    @property
    def log_det_covariance(self) -> float:
        """``log |Sigma|``."""
        return self._log_det

    @property
    def cholesky(self) -> np.ndarray:
        """Lower Cholesky factor ``L`` with ``Sigma = L L^T``."""
        return self._chol

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MultivariateGaussian(dim={self.dim})"

    # ------------------------------------------------------------------
    # densities
    # ------------------------------------------------------------------
    def mahalanobis_sq(self, x) -> np.ndarray:
        """Squared Mahalanobis distance of each row of ``x`` from the mean."""
        from scipy.linalg import solve_triangular

        samples = self._check_samples(x)
        diff = samples - self.mean
        z = solve_triangular(self._chol, diff.T, lower=True)
        return np.sum(z * z, axis=0)

    def logpdf(self, x) -> np.ndarray:
        """Log density of Eq. (8) evaluated row-wise on ``x``."""
        maha = self.mahalanobis_sq(x)
        return -0.5 * (self.dim * _LOG_2PI + self._log_det + maha)

    def pdf(self, x) -> np.ndarray:
        """Density of Eq. (8) evaluated row-wise on ``x``."""
        return np.exp(self.logpdf(x))

    def loglik(self, x) -> float:
        """Joint log-likelihood of a dataset (log of Eq. 9)."""
        return float(np.sum(self.logpdf(x)))

    # ------------------------------------------------------------------
    # sampling and derived distributions
    # ------------------------------------------------------------------
    def sample(self, n: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Draw ``n`` iid samples, shape ``(n, d)``."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        gen = rng if rng is not None else np.random.default_rng()
        z = gen.standard_normal((n, self.dim))
        return self.mean + z @ self._chol.T

    def marginal(self, indices: Sequence[int]) -> "MultivariateGaussian":
        """Marginal distribution over a subset of dimensions."""
        idx = np.asarray(indices, dtype=int)
        if idx.ndim != 1 or idx.size == 0:
            raise DimensionError("indices must be a non-empty 1-D sequence")
        if np.any(idx < 0) or np.any(idx >= self.dim):
            raise DimensionError(f"indices out of range for dim {self.dim}")
        return MultivariateGaussian(self.mean[idx], self.covariance[np.ix_(idx, idx)])

    def conditional(self, indices: Sequence[int], values) -> "MultivariateGaussian":
        """Distribution of the remaining dims given ``x[indices] = values``.

        Standard Gaussian conditioning; used by the yield module to study
        one metric given observed values of others.
        """
        idx_b = np.asarray(indices, dtype=int)
        vals = np.atleast_1d(np.asarray(values, dtype=float))
        if idx_b.shape != vals.shape:
            raise DimensionError("indices and values must have matching length")
        mask = np.ones(self.dim, dtype=bool)
        mask[idx_b] = False
        idx_a = np.nonzero(mask)[0]
        if idx_a.size == 0:
            raise DimensionError("cannot condition on every dimension")
        sigma_aa = self.covariance[np.ix_(idx_a, idx_a)]
        sigma_ab = self.covariance[np.ix_(idx_a, idx_b)]
        sigma_bb = self.covariance[np.ix_(idx_b, idx_b)]
        solve = solve_spd(sigma_bb, (vals - self.mean[idx_b]), "sigma_bb")
        cond_mean = self.mean[idx_a] + sigma_ab @ solve
        cond_cov = sigma_aa - sigma_ab @ solve_spd(sigma_bb, sigma_ab.T, "sigma_bb")
        return MultivariateGaussian(cond_mean, symmetrize(cond_cov))

    def kl_divergence(self, other: "MultivariateGaussian") -> float:
        """KL divergence ``KL(self || other)`` between two Gaussians."""
        if other.dim != self.dim:
            raise DimensionError("dimension mismatch in KL divergence")
        diff = other.mean - self.mean
        other_prec = other.precision
        trace_term = float(np.trace(other_prec @ self.covariance))
        maha = float(diff @ other_prec @ diff)
        return 0.5 * (trace_term + maha - self.dim + other.log_det_covariance - self._log_det)

    # ------------------------------------------------------------------
    def _check_samples(self, x) -> np.ndarray:
        samples = as_samples(x)
        if samples.shape[1] != self.dim:
            raise DimensionError(
                f"samples have {samples.shape[1]} columns, expected {self.dim}"
            )
        return samples


def gaussian_loglik(mean, covariance, x) -> float:
    """One-shot joint Gaussian log-likelihood (log of Eq. 9).

    Convenience wrapper for callers that score one Gaussian once and need
    not keep a :class:`MultivariateGaussian` alive.
    """
    return MultivariateGaussian(mean, covariance).loglik(x)


def gaussian_loglik_batch(
    means, covariances, x, repair: bool = True
) -> np.ndarray:
    """Joint log-likelihood of one dataset per Gaussian, ``B`` Gaussians at once.

    Parameters
    ----------
    means:
        ``(B, d)`` stack of mean vectors.
    covariances:
        ``(B, d, d)`` stack of covariance matrices.  Each is factorised by
        one batched Cholesky call with the same repair ladder the scalar
        path applies (jitter retry, then — when ``repair`` is True — an
        eigenvalue clip at relative floor ``1e-10``).
    x:
        Either one shared ``(n, d)`` sample matrix scored under every
        Gaussian, or a ``(B, n, d)`` stack of per-member sample blocks.
        The shared matrix is checked like any sample input; the stacked
        blocks are taken as given (the serving scorer validates its own
        payloads, and a non-finite row scores as NaN).
    repair:
        Enable the eigenvalue-clip fallback for indefinite members.

    Returns
    -------
    ``(B,)`` array of joint log-likelihoods (log of Eq. 9); members whose
    covariance is irreparable score ``-inf`` instead of raising.
    """
    mu = np.atleast_2d(np.asarray(means, dtype=float))
    cov = np.asarray(covariances, dtype=float)
    if cov.ndim == 2:
        cov = cov[None]
    samples = np.asarray(x, dtype=float)
    if samples.ndim != 3:
        samples = as_samples(x)
    elif samples.shape[0] != mu.shape[0]:
        raise DimensionError(
            f"sample blocks {samples.shape} do not match means stack {mu.shape}"
        )
    if mu.shape[0] != cov.shape[0]:
        raise DimensionError(
            f"means stack {mu.shape} does not match covariance stack {cov.shape}"
        )
    d = mu.shape[1]
    if samples.shape[-1] != d:
        raise DimensionError(
            f"samples have {samples.shape[-1]} columns, expected {d}"
        )
    chol, ok = cholesky_batched_safe(
        cov, jitter_rel=1e-10, clip_floor_rel=1e-10 if repair else None
    )
    out = np.full(mu.shape[0], -np.inf)
    sel = np.flatnonzero(ok)
    if sel.size == 0:
        return out
    maha = mahalanobis_sq_batched(
        chol[sel], mu[sel], samples[sel] if samples.ndim == 3 else samples
    )
    log_det = logdet_batched(chol[sel])
    # Per-sample log-density first, then the row sum, to keep the floating
    # point accumulation order identical to MultivariateGaussian.loglik.
    logpdf = -0.5 * (d * _LOG_2PI + log_det[:, None] + maha)
    out[sel] = logpdf.sum(axis=1)
    return out
