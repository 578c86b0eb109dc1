"""Multivariate gamma function utilities.

The normal-Wishart normalisation constant ``Z_0`` (Eq. 13 of the paper)
contains the d-dimensional multivariate gamma function
``Gamma_d(a) = pi^{d(d-1)/4} * prod_{j=1}^{d} Gamma(a + (1 - j)/2)``.
We work in log space throughout because ``Gamma_d`` overflows float64 for
the degree-of-freedom ranges (up to 1000) the paper's cross validation
explores.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["multigammaln", "multigamma", "log_wishart_normalizer"]


def multigammaln(a: float, d: int) -> float:
    """Log of the d-dimensional multivariate gamma function at ``a``.

    Requires ``a > (d - 1) / 2`` for the function to be finite.
    """
    if d < 1:
        raise ValueError(f"dimension d must be >= 1, got {d}")
    if a <= (d - 1) / 2.0:
        raise ValueError(f"multivariate gamma requires a > (d-1)/2 = {(d - 1) / 2}, got {a}")
    from scipy.special import gammaln

    j = np.arange(1, d + 1)
    return float(d * (d - 1) / 4.0 * math.log(math.pi) + np.sum(gammaln(a + (1.0 - j) / 2.0)))


def multigamma(a: float, d: int) -> float:
    """d-dimensional multivariate gamma function (overflow-prone; prefer log)."""
    return math.exp(multigammaln(a, d))


def log_wishart_normalizer(scale: np.ndarray, dof: float) -> float:
    """Log normalisation constant of a Wishart ``Wi_dof(Lambda | scale)``.

    With density ``|Lambda|^{(dof-d-1)/2} exp(-tr(scale^{-1} Lambda)/2) / B``
    the constant is ``log B = (dof d / 2) log 2 + (dof / 2) log|scale|
    + log Gamma_d(dof / 2)``.
    """
    from repro.linalg.norms import log_det_spd

    scale = np.asarray(scale, dtype=float)
    d = scale.shape[0]
    if dof <= d - 1:
        raise ValueError(f"Wishart dof must exceed d - 1 = {d - 1}, got {dof}")
    return (
        dof * d / 2.0 * math.log(2.0)
        + dof / 2.0 * log_det_spd(scale)
        + multigammaln(dof / 2.0, d)
    )
