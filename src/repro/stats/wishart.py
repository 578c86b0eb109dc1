"""Wishart and inverse-Wishart distributions.

The Wishart is the precision-matrix component of the paper's
normal-Wishart prior (Eq. 12): ``Wi_{v0}(Lambda | T0)`` with density

    p(Lambda) = |Lambda|^{(v0-d-1)/2} exp(-tr(T0^{-1} Lambda)/2) / B(T0, v0)

Note the paper's convention: the exponent contains ``T0^{-1}``, i.e. ``T0``
is the *scale* matrix (mean ``v0 * T0``, mode ``(v0 - d - 1) * T0``).
Sampling uses the Bartlett decomposition so property tests can cheaply
verify the analytical mean against Monte-Carlo averages.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import DimensionError, HyperParameterError
from repro.linalg.validation import assert_spd, cholesky_safe, inv_spd, symmetrize
from repro.stats.multigamma import log_wishart_normalizer

__all__ = ["Wishart", "InverseWishart"]


class Wishart:
    """Wishart distribution ``Wi_dof(Lambda | scale)`` in the paper's convention.

    Parameters
    ----------
    scale:
        ``(d, d)`` SPD scale matrix ``T0``.
    dof:
        Degrees of freedom ``v0``; must exceed ``d - 1`` for a proper
        density (the paper constrains ``v0 >= d``).
    """

    def __init__(self, scale, dof: float) -> None:
        self.scale = assert_spd(scale, "scale")
        self.dim = self.scale.shape[0]
        self.dof = float(dof)
        if self.dof <= self.dim - 1:
            raise HyperParameterError(
                f"Wishart dof must exceed d - 1 = {self.dim - 1}, got {dof}"
            )
        self._chol_scale = cholesky_safe(self.scale, "scale")
        self._log_norm = log_wishart_normalizer(self.scale, self.dof)

    # ------------------------------------------------------------------
    @property
    def mean(self) -> np.ndarray:
        """``E[Lambda] = dof * scale``."""
        return self.dof * self.scale

    @property
    def mode(self) -> Optional[np.ndarray]:
        """Mode ``(dof - d - 1) * scale`` when it exists (dof > d + 1)."""
        if self.dof <= self.dim + 1:
            return None
        return (self.dof - self.dim - 1) * self.scale

    def variance_diagonal(self) -> np.ndarray:
        """``Var[Lambda_ij] = dof * (scale_ij^2 + scale_ii scale_jj)`` diagonal."""
        s = self.scale
        return self.dof * (s**2 + np.outer(np.diag(s), np.diag(s)))

    # ------------------------------------------------------------------
    def logpdf(self, lam) -> float:
        """Log density at an SPD matrix ``lam``."""
        from scipy.linalg import solve_triangular

        from repro.linalg.norms import log_det_spd

        lam_arr = assert_spd(lam, "lambda")
        if lam_arr.shape != self.scale.shape:
            raise DimensionError("lambda shape does not match scale shape")
        # tr(T0^{-1} Lambda) via triangular solves against chol(T0).
        y = solve_triangular(self._chol_scale, lam_arr, lower=True)
        z = solve_triangular(self._chol_scale, y.T, lower=True)
        trace_term = float(np.trace(z))
        return (
            (self.dof - self.dim - 1) / 2.0 * log_det_spd(lam_arr)
            - 0.5 * trace_term
            - self._log_norm
        )

    def entropy_expected_logdet(self) -> float:
        """``E[log |Lambda|]`` — used in variational diagnostics."""
        from scipy.special import digamma

        from repro.linalg.norms import log_det_spd

        j = np.arange(1, self.dim + 1)
        return float(
            np.sum(digamma((self.dof + 1.0 - j) / 2.0))
            + self.dim * np.log(2.0)
            + log_det_spd(self.scale)
        )

    # ------------------------------------------------------------------
    def sample(self, n: int = 1, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Draw ``n`` Wishart matrices via Bartlett decomposition, shape ``(n, d, d)``."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        gen = rng if rng is not None else np.random.default_rng()
        d = self.dim
        out = np.empty((n, d, d))
        for k in range(n):
            a = np.zeros((d, d))
            for i in range(d):
                a[i, i] = np.sqrt(gen.chisquare(self.dof - i))
            lower_idx = np.tril_indices(d, k=-1)
            a[lower_idx] = gen.standard_normal(len(lower_idx[0]))
            la = self._chol_scale @ a
            out[k] = symmetrize(la @ la.T)
        return out


class InverseWishart:
    """Inverse-Wishart ``IW_dof(Sigma | psi)``; the covariance-space view.

    If ``Lambda ~ Wi_dof(T0)`` then ``Sigma = Lambda^{-1} ~ IW_dof(T0^{-1})``.
    Provided so users who think in covariance space (Eq. 32) can reason
    about the implied prior over ``Sigma`` directly.
    """

    def __init__(self, psi, dof: float) -> None:
        self.psi = assert_spd(psi, "psi")
        self.dim = self.psi.shape[0]
        self.dof = float(dof)
        if self.dof <= self.dim - 1:
            raise HyperParameterError(
                f"inverse-Wishart dof must exceed d - 1 = {self.dim - 1}, got {dof}"
            )

    @property
    def mean(self) -> Optional[np.ndarray]:
        """``E[Sigma] = psi / (dof - d - 1)`` when dof > d + 1."""
        if self.dof <= self.dim + 1:
            return None
        return self.psi / (self.dof - self.dim - 1)

    @property
    def mode(self) -> np.ndarray:
        """Mode ``psi / (dof + d + 1)`` (always exists)."""
        return self.psi / (self.dof + self.dim + 1)

    def to_wishart(self) -> Wishart:
        """The precision-space Wishart equivalent of this distribution."""
        return Wishart(inv_spd(self.psi, "psi"), self.dof)

    def sample(self, n: int = 1, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Draw ``n`` covariance matrices, shape ``(n, d, d)``."""
        wishart = self.to_wishart()
        draws = wishart.sample(n, rng)
        return np.stack([inv_spd(m, "draw") for m in draws])

    def logpdf(self, sigma) -> float:
        """Log density at an SPD covariance matrix ``sigma``."""
        sigma_arr = assert_spd(sigma, "sigma")
        lam = inv_spd(sigma_arr, "sigma")
        wishart = self.to_wishart()
        # Change of variables Sigma -> Lambda has Jacobian |Lambda|^{d+1}.
        from repro.linalg.norms import log_det_spd

        return wishart.logpdf(lam) + (self.dim + 1) * log_det_spd(lam)
