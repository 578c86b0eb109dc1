"""Hyper-parameter search grids for the two-dimensional cross validation.

The paper searches ``v0`` and ``kappa0`` "from 1 to 1000" (Sec. 5.1) over a
grid of candidate combinations (Fig. 2a).  Exhaustively scoring a dense
linear grid is wasteful because the MAP estimates respond to the *order of
magnitude* of the hyper-parameters (they enter Eq. 31–32 as mixing weights
against ``n``), so the default grid is log-spaced.  ``v0`` candidates are
additionally shifted above ``d`` to satisfy the ``v0 > d`` constraint of
Eq. (20).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Tuple

import numpy as np

from repro.exceptions import HyperParameterError

__all__ = ["HyperParameterGrid"]


@dataclass(frozen=True)
class HyperParameterGrid:
    """Cartesian grid of candidate ``(kappa0, v0)`` pairs.

    The axes are sorted, de-duplicated and read-only, so one grid can be
    shared by every search that uses it.

    Attributes
    ----------
    kappa0_values:
        Strictly positive candidates for the mean-credibility knob.
    v0_values:
        Candidates for the covariance-credibility knob, each ``> dim``.
    dim:
        Metric dimensionality ``d`` the ``v0`` constraint was checked
        against.
    """

    kappa0_values: np.ndarray
    v0_values: np.ndarray
    dim: int

    def __post_init__(self) -> None:
        k = np.atleast_1d(np.asarray(self.kappa0_values, dtype=float))
        v = np.atleast_1d(np.asarray(self.v0_values, dtype=float))
        if k.size == 0 or v.size == 0:
            raise HyperParameterError("grid axes must be non-empty")
        if np.any(k <= 0.0):
            raise HyperParameterError("all kappa0 candidates must be > 0")
        if np.any(v <= self.dim):
            raise HyperParameterError(
                f"all v0 candidates must exceed d = {self.dim}"
            )
        k, v = np.unique(k), np.unique(v)
        k.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "kappa0_values", k)
        object.__setattr__(self, "v0_values", v)

    # ------------------------------------------------------------------
    @classmethod
    def paper_default(
        cls, dim: int, n_kappa: int = 12, n_v: int = 12, upper: float = 1000.0
    ) -> "HyperParameterGrid":
        """Log-spaced grid spanning the paper's 1…1000 search range.

        ``kappa0`` spans ``[10^-2, upper]`` — the paper's lower bound of 1
        is extended downward so the "prior mean is useless" extreme
        (Eq. 34) is reachable even for tiny ``n``.  ``v0`` spans
        ``(d, d + upper]`` on a log scale of offsets, covering both the
        "ignore prior covariance" (``v0 -> d``, Eq. 36) and "trust prior
        covariance" (``v0`` large, Eq. 35) extremes.

        Memoised: equal arguments return the same (immutable) grid, for
        the 64 most recently used argument sets.
        """
        return _paper_default(cls, dim, n_kappa, n_v, upper)

    @classmethod
    def linear(
        cls, dim: int, n_kappa: int = 10, n_v: int = 10, upper: float = 1000.0
    ) -> "HyperParameterGrid":
        """Linearly spaced grid, closest to the paper's literal description."""
        kappa = np.linspace(1.0, upper, n_kappa)
        v = np.linspace(dim + 1.0, dim + upper, n_v)
        return cls(kappa0_values=kappa, v0_values=v, dim=dim)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Total number of candidate pairs."""
        return int(self.kappa0_values.size * self.v0_values.size)

    def pairs(self) -> Iterator[Tuple[float, float]]:
        """Iterate over all ``(kappa0, v0)`` combinations (Fig. 2a points)."""
        for kappa0 in self.kappa0_values:
            for v0 in self.v0_values:
                yield float(kappa0), float(v0)

    def refine_around(
        self, kappa0: float, v0: float, factor: float = 3.0, n_points: int = 5
    ) -> "HyperParameterGrid":
        """A finer local grid around a coarse-search winner.

        Used by the optional two-pass search: a coarse log grid finds the
        right decade, then a refined grid locates the optimum within it.
        """
        if factor <= 1.0:
            raise HyperParameterError(f"factor must exceed 1, got {factor}")
        kappa = np.logspace(
            np.log10(max(kappa0 / factor, 1e-6)),
            np.log10(kappa0 * factor),
            n_points,
        )
        v_off = max(v0 - self.dim, 1e-6)
        v = self.dim + np.logspace(
            np.log10(max(v_off / factor, 1e-6)),
            np.log10(v_off * factor),
            n_points,
        )
        return HyperParameterGrid(kappa0_values=kappa, v0_values=v, dim=self.dim)


@lru_cache(maxsize=64)
def _paper_default(
    cls: type, dim: int, n_kappa: int, n_v: int, upper: float
) -> HyperParameterGrid:
    """The body of :meth:`HyperParameterGrid.paper_default`, one grid per argument set."""
    if dim < 1:
        raise HyperParameterError(f"dim must be >= 1, got {dim}")
    if upper <= 1.0:
        raise HyperParameterError(f"upper must exceed 1, got {upper}")
    kappa = np.logspace(-2.0, np.log10(upper), n_kappa)
    v_offsets = np.logspace(-2.0, np.log10(upper), n_v)
    return cls(kappa0_values=kappa, v0_values=dim + v_offsets, dim=dim)
