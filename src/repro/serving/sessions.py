"""Keyed session store: one live normal-Wishart state per population.

A *session* is the serving unit of isolation — one per circuit, corner,
or measured chip population — holding the early-stage prior, the pinned
hyper-parameters ``(kappa0, v0)``, and the live
:class:`~repro.stats.suffstats.SufficientStats` accumulator.  Ingest is
an O(d^2) accumulator update; queries read a consistent snapshot.

The store bounds its memory two ways:

* **Capacity** — at most ``max_sessions`` live sessions; creating one
  more evicts the least-recently-used session.
* **TTL** — sessions idle for more than ``ttl_ops`` *store operations*
  are evicted lazily on the next operation.

Time is a **logical operation counter**, not the wall clock: reprolint's
determinism rule (RPL006) bans wall-clock reads in ``src/repro``, and a
logical clock buys something better in return — eviction decisions are a
pure function of the operation history, so a checkpoint restored from
:mod:`repro.serving.checkpoint` resumes *bit-identically*, evictions
included.

All public methods are thread-safe (one re-entrant lock; every operation
is short and O(d^2) at worst).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
from numpy.typing import ArrayLike

from repro.core.bmf import map_moments_from_stats
from repro.core.prior import PriorKnowledge
from repro.exceptions import ConfigError, DimensionError, SessionNotFoundError
from repro.stats.suffstats import SufficientStats

__all__ = ["Session", "SessionStore", "block_rows", "stats_rows"]


def block_rows(arr: np.ndarray) -> int:
    """Rows in an ingest block: 1 for a ``d``-vector, ``n`` for ``(n, d)``.

    Any other dimensionality raises
    :class:`~repro.exceptions.DimensionError`, so a malformed request is
    refused before it is logged or buffered.
    """
    if arr.ndim == 1:
        return 1
    if arr.ndim == 2:
        return arr.shape[0]
    raise DimensionError(
        f"samples must be a d-vector or an (n, d) block, got shape {arr.shape}"
    )


def stats_rows(stats: SufficientStats) -> int:
    """Rows a statistics merge adds: ``stats.n``.

    A non-finite ``mean`` or ``scatter`` raises
    :class:`~repro.exceptions.DimensionError`, as a non-finite row does,
    so the merge is refused before it is logged, buffered or counted.
    """
    if not (np.isfinite(stats.mean).all() and np.isfinite(stats.scatter).all()):
        raise DimensionError("statistics contain non-finite values")
    return stats.n


class Session:
    """Live fusion state for one population (prior + accumulator)."""

    __slots__ = ("key", "prior", "kappa0", "v0", "stats", "created_op", "last_used_op")

    def __init__(
        self,
        key: str,
        prior: PriorKnowledge,
        kappa0: float,
        v0: float,
        created_op: int = 0,
    ) -> None:
        if not (math.isfinite(kappa0) and kappa0 > 0.0):
            raise ConfigError(f"kappa0 must be finite and > 0, got {kappa0}")
        if not (math.isfinite(v0) and v0 > prior.dim):
            raise ConfigError(f"v0 must be finite and exceed d = {prior.dim}, got {v0}")
        self.key = str(key)
        self.prior = prior
        self.kappa0 = float(kappa0)
        self.v0 = float(v0)
        self.stats = SufficientStats.empty(prior.dim)
        self.created_op = int(created_op)
        self.last_used_op = int(created_op)

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Number of metrics ``d``."""
        return self.prior.dim

    @property
    def n_ingested(self) -> int:
        """Late-stage samples folded in so far."""
        return self.stats.n

    def ingest(self, samples: ArrayLike) -> int:
        """Fold an ``(n, d)`` block (or a single ``d``-vector) in.

        Returns the new total sample count.  A 1-D input is treated as a
        single observation and takes the Welford single-sample path —
        byte-for-byte the update a tester trickling in one die at a time
        produces.
        """
        arr = np.asarray(samples, dtype=float)
        if arr.ndim == 1:
            self.stats.push(arr)
        else:
            self.stats.push_batch(arr)
        return self.stats.n

    def ingest_stats(self, stats: SufficientStats) -> int:
        """Merge shard-local statistics (Chan merge); returns the new total."""
        self.stats.merge(stats)
        return self.stats.n

    def map_moments(self) -> Tuple[np.ndarray, np.ndarray]:
        """Current MAP ``(mu, Sigma)`` via the shared Eq. 31–32 arithmetic."""
        return map_moments_from_stats(self.prior, self.stats, self.kappa0, self.v0)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Exact JSON-safe state (float64 survives the round trip bit-for-bit)."""
        return {
            "key": self.key,
            "prior_mean": self.prior.mean.tolist(),
            "prior_covariance": self.prior.covariance.tolist(),
            "prior_n_samples": int(self.prior.n_samples),
            "kappa0": self.kappa0,
            "v0": self.v0,
            "stats": self.stats.to_dict(),
            "created_op": self.created_op,
            "last_used_op": self.last_used_op,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Session":
        """Inverse of :meth:`to_dict`."""
        try:
            prior = PriorKnowledge.shared(
                payload["prior_mean"],
                payload["prior_covariance"],
                int(payload["prior_n_samples"]),
            )
            session = cls(
                key=str(payload["key"]),
                prior=prior,
                kappa0=float(payload["kappa0"]),
                v0=float(payload["v0"]),
                created_op=int(payload["created_op"]),
            )
            session.last_used_op = int(payload["last_used_op"])
            session.stats = SufficientStats.from_dict(payload["stats"])
        except KeyError as exc:
            raise ConfigError(f"session payload missing field {exc}") from exc
        if session.stats.dim != prior.dim:
            raise DimensionError(
                f"session {session.key!r}: stats dim {session.stats.dim} "
                f"does not match prior dim {prior.dim}"
            )
        return session

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Session(key={self.key!r}, d={self.dim}, n={self.n_ingested})"


class SessionStore:
    """Bounded, TTL-evicting map from session key to :class:`Session`.

    Parameters
    ----------
    max_sessions:
        Hard capacity; creating session ``max_sessions + 1`` evicts the
        least-recently-used one.
    ttl_ops:
        Idle lifetime measured in store operations (logical clock ticks).
        ``None`` disables TTL eviction.  A session whose last use is more
        than ``ttl_ops`` ticks in the past is evicted lazily on the next
        store operation.
    """

    def __init__(self, max_sessions: int = 1024, ttl_ops: Optional[int] = None) -> None:
        if max_sessions < 1:
            raise ConfigError(f"max_sessions must be >= 1, got {max_sessions}")
        if ttl_ops is not None and ttl_ops < 1:
            raise ConfigError(f"ttl_ops must be >= 1 or None, got {ttl_ops}")
        self.max_sessions = int(max_sessions)
        self.ttl_ops = None if ttl_ops is None else int(ttl_ops)
        self._sessions: "OrderedDict[str, Session]" = OrderedDict()
        self._lock = threading.RLock()
        self._clock = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # logical time + eviction
    # ------------------------------------------------------------------
    @property
    def clock(self) -> int:
        """Current logical operation count."""
        return self._clock

    def _tick_locked(self) -> int:
        """Advance logical time and apply lazy TTL eviction (lock held)."""
        self._clock += 1
        if self.ttl_ops is not None:
            horizon = self._clock - self.ttl_ops
            # OrderedDict is kept in LRU order, so expired sessions sit at
            # the front; stop at the first live one.
            while self._sessions:
                oldest = next(iter(self._sessions.values()))
                if oldest.last_used_op >= horizon:
                    break
                del self._sessions[oldest.key]
                self.evictions += 1
        return self._clock

    def _touch_locked(self, session: Session) -> Session:
        """Refresh recency of ``session`` (lock held)."""
        session.last_used_op = self._clock
        self._sessions.move_to_end(session.key)
        return session

    # ------------------------------------------------------------------
    # CRUD
    # ------------------------------------------------------------------
    def create(
        self,
        key: str,
        prior: PriorKnowledge,
        kappa0: float,
        v0: float,
        exist_ok: bool = False,
    ) -> Session:
        """Create (and register) a session; evicts LRU on overflow.

        With ``exist_ok`` the existing session is returned untouched when
        the key is already live (idempotent create for retrying clients).
        """
        with self._lock:
            op = self._tick_locked()
            existing = self._sessions.get(key)
            if existing is not None:
                if exist_ok:
                    return self._touch_locked(existing)
                raise ConfigError(f"session {key!r} already exists")
            session = Session(key, prior, kappa0, v0, created_op=op)
            self._sessions[key] = session
            self._touch_locked(session)
            while len(self._sessions) > self.max_sessions:
                evicted_key, _ = self._sessions.popitem(last=False)
                self.evictions += 1
                del evicted_key
            return session

    def get(self, key: str) -> Session:
        """Look a session up, refreshing its recency; raises if absent."""
        with self._lock:
            self._tick_locked()
            session = self._sessions.get(key)
            if session is None:
                raise SessionNotFoundError(
                    f"no session {key!r} (never created, or evicted)"
                )
            return self._touch_locked(session)

    def drop(self, key: str) -> bool:
        """Remove a session explicitly; returns whether it existed."""
        with self._lock:
            self._tick_locked()
            return self._sessions.pop(key, None) is not None

    def keys(self) -> List[str]:
        """Live session keys, sorted (deterministic listing order)."""
        with self._lock:
            return sorted(self._sessions)

    def row_count(self, key: str) -> int:
        """Rows folded into ``key``'s session (0 if absent), without ticking the clock."""
        with self._lock:
            session = self._sessions.get(key)
            return 0 if session is None else session.n_ingested

    def row_counts(self) -> Dict[str, int]:
        """Rows folded into each live session, without ticking the clock."""
        with self._lock:
            return {key: session.n_ingested for key, session in self._sessions.items()}

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._sessions

    # ------------------------------------------------------------------
    # bulk/shard operations
    # ------------------------------------------------------------------
    def ingest(self, key: str, samples: ArrayLike) -> int:
        """Fold samples into a session under the store lock."""
        with self._lock:
            return self.get(key).ingest(samples)

    def ingest_stats(self, key: str, stats: SufficientStats) -> int:
        """Merge shard-local sufficient statistics into a session."""
        with self._lock:
            return self.get(key).ingest_stats(stats)

    def snapshot(self, keys: List[str]) -> List[Session]:
        """Consistent per-key snapshots for batched scoring.

        Returns detached copies (prior objects are immutable and shared;
        the accumulator is deep-copied) so scoring reads a frozen state
        while ingest keeps running.
        """
        with self._lock:
            out: List[Session] = []
            for key in keys:
                live = self.get(key)
                frozen = Session(
                    live.key, live.prior, live.kappa0, live.v0, live.created_op
                )
                frozen.last_used_op = live.last_used_op
                frozen.stats = live.stats.copy()
                out.append(frozen)
            return out

    # ------------------------------------------------------------------
    # serialization (exact)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Full store state in LRU order (order is part of the state —
        a restored store must make identical eviction decisions)."""
        with self._lock:
            return {
                "max_sessions": self.max_sessions,
                "ttl_ops": self.ttl_ops,
                "clock": self._clock,
                "evictions": self.evictions,
                "sessions": [s.to_dict() for s in self._sessions.values()],
            }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SessionStore":
        """Inverse of :meth:`to_dict` (bit-identical resume)."""
        try:
            store = cls(
                max_sessions=int(payload["max_sessions"]),
                ttl_ops=payload["ttl_ops"],
            )
            store._clock = int(payload["clock"])
            store.evictions = int(payload["evictions"])
            for entry in payload["sessions"]:
                session = Session.from_dict(entry)
                store._sessions[session.key] = session
        except KeyError as exc:
            raise ConfigError(f"session store payload missing field {exc}") from exc
        return store
