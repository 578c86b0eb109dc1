"""Distances between Gaussian distributions.

Used to *quantify* the BMF premise — "the early-stage and late-stage
performance distributions are quite similar" (Sec. 4.1) — instead of
assuming it.  All distances operate on Gaussian parameter pairs:

* :func:`kl_gaussian` — asymmetric KL divergence;
* :func:`symmetric_kl` — Jeffreys divergence;
* :func:`bhattacharyya_gaussian` — bounds the Bayes error between stages;
* :func:`wasserstein2_gaussian` — the Bures/W2 metric, well-behaved even
  for near-singular covariances;
* :func:`hellinger_gaussian` — bounded in [0, 1], convenient to report.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import DimensionError
from repro.linalg.norms import log_det_spd
from repro.linalg.validation import assert_spd, inv_spd, solve_spd, symmetrize

__all__ = [
    "kl_gaussian",
    "symmetric_kl",
    "bhattacharyya_gaussian",
    "hellinger_gaussian",
    "wasserstein2_gaussian",
]


def _check_pair(mu0, sigma0, mu1, sigma1):
    m0 = np.atleast_1d(np.asarray(mu0, dtype=float))
    m1 = np.atleast_1d(np.asarray(mu1, dtype=float))
    s0 = assert_spd(sigma0, "sigma0")
    s1 = assert_spd(sigma1, "sigma1")
    if m0.shape != m1.shape:
        raise DimensionError(f"mean shapes differ: {m0.shape} vs {m1.shape}")
    d = m0.shape[0]
    if s0.shape != (d, d) or s1.shape != (d, d):
        raise DimensionError("covariance shapes do not match the means")
    return m0, s0, m1, s1


def kl_gaussian(mu0, sigma0, mu1, sigma1) -> float:
    """``KL( N(mu0, sigma0) || N(mu1, sigma1) )`` in nats."""
    m0, s0, m1, s1 = _check_pair(mu0, sigma0, mu1, sigma1)
    d = m0.shape[0]
    s1_inv = inv_spd(s1, "sigma1")
    diff = m1 - m0
    return 0.5 * (
        float(np.trace(s1_inv @ s0))
        + float(diff @ s1_inv @ diff)
        - d
        + log_det_spd(s1)
        - log_det_spd(s0)
    )


def symmetric_kl(mu0, sigma0, mu1, sigma1) -> float:
    """Jeffreys divergence ``KL(p||q) + KL(q||p)``."""
    return kl_gaussian(mu0, sigma0, mu1, sigma1) + kl_gaussian(
        mu1, sigma1, mu0, sigma0
    )


def bhattacharyya_gaussian(mu0, sigma0, mu1, sigma1) -> float:
    """Bhattacharyya distance between two Gaussians."""
    m0, s0, m1, s1 = _check_pair(mu0, sigma0, mu1, sigma1)
    s_mid = symmetrize((s0 + s1) / 2.0)
    diff = m1 - m0
    term_mean = 0.125 * float(diff @ solve_spd(s_mid, diff, "sigma_mid"))
    term_cov = 0.5 * (
        log_det_spd(s_mid) - 0.5 * (log_det_spd(s0) + log_det_spd(s1))
    )
    return term_mean + term_cov


def hellinger_gaussian(mu0, sigma0, mu1, sigma1) -> float:
    """Hellinger distance in [0, 1]: ``sqrt(1 - exp(-BC))``."""
    bc = bhattacharyya_gaussian(mu0, sigma0, mu1, sigma1)
    return math.sqrt(max(0.0, 1.0 - math.exp(-bc)))


def wasserstein2_gaussian(mu0, sigma0, mu1, sigma1) -> float:
    """2-Wasserstein distance between two Gaussians (Bures metric).

    ``W2^2 = ||mu0 - mu1||^2 + tr(s0 + s1 - 2 (s1^1/2 s0 s1^1/2)^1/2)``.
    """
    from scipy.linalg import sqrtm

    m0, s0, m1, s1 = _check_pair(mu0, sigma0, mu1, sigma1)
    root1 = np.real(sqrtm(s1))
    cross = np.real(sqrtm(symmetrize(root1 @ s0 @ root1)))
    w2_sq = float(np.sum((m0 - m1) ** 2)) + float(
        np.trace(s0 + s1 - 2.0 * cross)
    )
    return math.sqrt(max(w2_sq, 0.0))
