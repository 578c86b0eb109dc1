"""Exact, mergeable Gaussian sufficient statistics.

The normal-Wishart update (Eq. 24–28) touches the data only through the
triple ``(n, Xbar, S)`` — count, sample mean, and centered scatter matrix.
That triple is *additive*: two shards' statistics combine exactly into the
statistics of the concatenated sample, so late-stage measurements can be
ingested one die at a time (or shard by shard, in any split/merge order)
with ``O(d^2)`` work per update and no raw-sample retention.

:class:`SufficientStats` stores the triple in *centered* form — ``(n,
mean, scatter)`` rather than ``(n, sum x, sum x x^T)`` — updated with the
Welford/Chan recurrences.  Centering matters numerically: the raw
outer-product sum loses half the mantissa when the mean is large relative
to the spread (``E[x]^2 >> Var[x]``, routine for circuit metrics like a
60 dB gain), while the centered recurrence keeps the scatter accurate.

:meth:`SufficientStats.from_samples` uses the same batch formulas as
:func:`repro.stats.moments.sample_mean` / ``scatter_matrix``, so a
one-shot build is bit-identical to what the batch estimators always
computed; the incremental paths agree with it to floating-point rounding
(the serving equivalence suite pins 1e-10).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

import numpy as np
from numpy.typing import ArrayLike

from repro.exceptions import DimensionError, NotSPDError
from repro.linalg.validation import as_samples

__all__ = ["SufficientStats", "merge_all"]


def _symmetric_part(scatter: np.ndarray) -> np.ndarray:
    """``(S + S^T) / 2`` of a square float scatter, checked once.

    The arithmetic of :func:`repro.linalg.validation.symmetrize` without
    its shape re-validation (every caller builds a ``(d, d)`` float
    matrix); an overflowed (non-finite) scatter raises
    :class:`~repro.exceptions.NotSPDError` exactly as ``symmetrize`` does.
    """
    if not np.isfinite(scatter).all():
        raise NotSPDError("matrix contains non-finite entries")
    return (scatter + scatter.T) / 2.0


def _check_dim(dim: int) -> None:
    if int(dim) < 1:
        raise DimensionError(f"dim must be >= 1, got {dim}")


class SufficientStats:
    """Running ``(n, mean, scatter)`` of a stream of ``d``-vectors.

    Attributes
    ----------
    n:
        Number of samples folded in so far.
    mean:
        Sample mean ``Xbar`` (the zero vector while ``n == 0``).
    scatter:
        Centered scatter matrix ``S = sum_i (x_i - Xbar)(x_i - Xbar)^T``
        (Eq. 26); symmetric PSD by construction, zero while ``n < 2``.

    Instances are mutable accumulators; use :meth:`copy` before forking a
    stream.  All update paths cost ``O(d^2)`` per sample and never store
    the raw samples.
    """

    __slots__ = ("n", "mean", "scatter")

    def __init__(self, dim: int) -> None:
        _check_dim(dim)
        self.n: int = 0
        self.mean: np.ndarray = np.zeros(int(dim))
        self.scatter: np.ndarray = np.zeros((int(dim), int(dim)))

    @classmethod
    def _of(cls, n: int, mean: np.ndarray, scatter: np.ndarray) -> "SufficientStats":
        """An accumulator holding the given triple as is: no copy, and no
        zero arrays allocated only to be replaced."""
        stats = cls.__new__(cls)
        stats.n, stats.mean, stats.scatter = n, mean, scatter
        return stats

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, dim: int) -> "SufficientStats":
        """A fresh accumulator for ``d = dim`` metrics."""
        return cls(dim)

    @classmethod
    def from_samples(cls, samples: ArrayLike) -> "SufficientStats":
        """One-shot statistics of an ``(n, d)`` sample matrix.

        Runs the numpy ops of :func:`~repro.stats.moments.sample_mean` /
        :func:`~repro.stats.moments.scatter_matrix` in the same order, so
        the result is bit-identical to theirs on the same array — this is
        the reference the incremental paths are tested against — but
        validates the block and computes its mean once.

        A block of finite rows whose column sum overflows (two rows of
        ``[1e308, 2]``) takes its mean summed from ``data / n`` instead, so
        it is accepted as row-by-row :meth:`push` accepts it; a block
        whose scatter itself overflows is still refused with
        :class:`~repro.exceptions.NotSPDError`.  Either way NumPy prints
        no overflow warning.
        """
        data = as_samples(samples)
        _check_dim(data.shape[1])
        n = data.shape[0]
        # an overflow here is handled (or refused) below, never printed
        with np.errstate(over="ignore", invalid="ignore"):
            # ``data.mean(axis=0)``'s own reduce and divide, without its wrapper
            mean = np.add.reduce(data, 0) / n
            if not np.isfinite(mean).all():
                mean = np.add.reduce(data / n, 0)
            centered = data - mean
            return cls._of(n, mean, _symmetric_part(centered.T @ centered))

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Number of metrics ``d``."""
        return int(self.mean.shape[0])

    def copy(self) -> "SufficientStats":
        """Independent deep copy of the accumulator state."""
        return SufficientStats._of(self.n, self.mean.copy(), self.scatter.copy())

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def push(self, x: ArrayLike) -> "SufficientStats":
        """Fold in one sample vector (Welford's centered update).

        ``mean_{n} = mean_{n-1} + delta / n`` and
        ``S_n = S_{n-1} + delta (x - mean_n)^T`` — the rank-one form whose
        error stays bounded even when ``|mean| >> spread``.  Returns
        ``self`` for chaining.  A refused row (non-finite, or one whose
        update overflows the scatter) leaves the accumulator unchanged.
        """
        return self._take(self.pushed(x))

    def pushed(self, x: ArrayLike) -> "SufficientStats":
        """:meth:`push` of ``x`` as a new accumulator; ``self`` is unchanged."""
        row = np.atleast_1d(np.asarray(x, dtype=float))
        if row.ndim != 1 or row.shape[0] != self.dim:
            raise DimensionError(
                f"observation must be a length-{self.dim} vector, "
                f"got shape {row.shape}"
            )
        if not np.all(np.isfinite(row)):
            raise DimensionError("observation contains non-finite values")
        n = self.n + 1
        delta = row - self.mean
        mean = self.mean + delta / n
        return self._of(n, mean, _symmetric_part(self.scatter + np.outer(delta, row - mean)))

    def push_batch(self, samples: ArrayLike) -> "SufficientStats":
        """Fold in an ``(n, d)`` block via one Chan merge.

        Computes the block's statistics with the batch formulas and merges
        them in; ingesting a single block into an *empty* accumulator is
        therefore bit-identical to :meth:`from_samples`.
        """
        return self.merge(SufficientStats.from_samples(samples))

    def merge(self, other: "SufficientStats") -> "SufficientStats":
        """Combine another accumulator into this one (Chan's formula).

        Exact in exact arithmetic and associative/commutative up to
        floating-point rounding, so shard-local statistics can be merged
        in any split order.  Returns ``self``; a refused merge (the
        combined scatter overflows) leaves it unchanged.
        """
        return self._take(self.merged(other))

    def merged(self, other: "SufficientStats") -> "SufficientStats":
        """:meth:`merge` of ``other`` as a new accumulator; neither input changes."""
        if not isinstance(other, SufficientStats):
            raise DimensionError(
                f"can only merge SufficientStats, got {type(other).__name__}"
            )
        if other.mean.shape != self.mean.shape:
            raise DimensionError(
                f"cannot merge dim-{other.dim} stats into dim-{self.dim} stats"
            )
        if other.n == 0:
            return self.copy()
        if self.n == 0:
            return other.copy()
        n_total = self.n + other.n
        delta = other.mean - self.mean
        mean = self.mean + delta * (other.n / n_total)
        # np.outer's own multiply, without its ravel/newaxis wrapping
        cross = (delta[:, None] * delta) * (self.n * other.n / n_total)
        return self._of(n_total, mean, _symmetric_part(self.scatter + other.scatter + cross))

    def _take(self, other: "SufficientStats") -> "SufficientStats":
        self.n, self.mean, self.scatter = other.n, other.mean, other.scatter
        return self

    # ------------------------------------------------------------------
    # serialization (exact: float64 round-trips losslessly through JSON)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe payload; ``float.__repr__`` round-trips bit-exactly."""
        return {
            "n": int(self.n),
            "mean": self.mean.tolist(),
            "scatter": self.scatter.tolist(),
        }

    def to_payload(self) -> Dict[str, Any]:
        """Array-valued payload for binary sinks (write-ahead-log v2).

        Same keys as :meth:`to_dict` but ``mean``/``scatter`` stay
        ``float64`` ndarrays, so a binary log can write their raw buffers
        instead of formatting every float.  :meth:`from_dict` accepts the
        result unchanged (``np.asarray`` on an ndarray is a no-copy pass),
        so both payload shapes replay through one code path.
        """
        return {"n": int(self.n), "mean": self.mean, "scatter": self.scatter}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SufficientStats":
        """Inverse of :meth:`to_dict` (bit-exact restore)."""
        try:
            mean = np.asarray(payload["mean"], dtype=float)
            scatter = np.asarray(payload["scatter"], dtype=float)
            n = int(payload["n"])
        except (KeyError, TypeError) as exc:
            raise DimensionError(f"malformed suffstats payload: {exc}") from exc
        if mean.ndim != 1:
            raise DimensionError("suffstats mean must be 1-D")
        d = mean.shape[0]
        if scatter.shape != (d, d):
            raise DimensionError(
                f"suffstats scatter shape {scatter.shape} does not match dim {d}"
            )
        if n < 0:
            raise DimensionError(f"suffstats count must be >= 0, got {n}")
        _check_dim(d)
        return cls._of(n, mean, scatter)

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SufficientStats):
            return NotImplemented
        return (
            self.n == other.n
            and bool(np.array_equal(self.mean, other.mean))
            and bool(np.array_equal(self.scatter, other.scatter))
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SufficientStats(n={self.n}, dim={self.dim})"


def merge_all(stats: Sequence[SufficientStats]) -> SufficientStats:
    """Merge a sequence of shard-local accumulators into one (left fold).

    The sequence must be non-empty and dimension-consistent; inputs are
    not mutated.
    """
    items: List[SufficientStats] = list(stats)
    if not items:
        raise DimensionError("merge_all requires at least one accumulator")
    out = items[0].copy()
    for item in items[1:]:
        out.merge(item)
    return out
