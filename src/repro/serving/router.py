"""Shard router: consistent-hash placement + merge-on-read scoring.

:class:`ShardedMomentService` fans the serving workload out over N
:class:`~repro.serving.worker.ShardWorker` slices:

* **Placement** — a sha256-based consistent-hash ring
  (:class:`HashRing`) maps each session key to its home shard.  The ring
  is a pure function of ``(n_shards, virtual_nodes, key)`` — stable
  across processes, platforms, and ``PYTHONHASHSEED`` — so any router
  instance (or an offline tool reading a WAL) computes the same
  placement.  ``placement="spread"`` instead replicates every session on
  all shards and rotates ingest blocks across them round-robin per key —
  the configuration that exercises genuine multi-shard merges on every
  query.
* **Ingest coalescing** — accepted sample blocks are buffered per key
  and flushed to the owning worker as one stacked block once
  ``flush_rows`` rows accumulate, or at a read barrier.  The barrier is
  per key: a query flushes only the keys it reads, so every other buffer
  keeps coalescing.  Checkpoints, listings, ``stats`` and ``close`` are
  global barriers that flush every key.  This turns per-row Welford
  updates into block Chan merges, which is where the multi-shard
  throughput win comes from on a single-core box; the rounding
  difference is covered by the documented 1e-10 equivalence bound.
* **Merge-on-read queries** — the router snapshots the key's
  per-shard :class:`~repro.stats.suffstats.SufficientStats`, Chan-merges
  them in shard-index order (:func:`~repro.stats.suffstats.merge_all`),
  and scores the merged session through the same
  :class:`~repro.serving.scoring.BatchScorer` every other layer uses.
  Mergeability of the sufficient-statistics triple is exactly the
  paper's additivity property — sharding falls out of the statistics,
  not of new math.

Single-shard mode is the compatibility gate: ``n_shards=1`` with
``flush_rows=1`` and no WAL routes every call straight through to the
one worker, reproducing a bare WAL-less
:class:`~repro.serving.worker.ShardWorker` bit-for-bit — counters,
eviction order, and checkpoint bytes (the equivalence suite compares
``shard-000.ckpt`` with the worker's checkpoint file byte-wise).
"""

from __future__ import annotations

import bisect
import hashlib
import json
import threading
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike

from repro.core.estimators import MomentEstimate
from repro.core.prior import PriorKnowledge
from repro.exceptions import ConfigError, SessionNotFoundError
from repro.experiments.parallel import thread_map
from repro.io import check_schema_version, write_json_atomic
from repro.schemas import MANIFEST_SCHEMA
from repro.serving.counters import ServiceCounters
from repro.serving.queue import QUERY_KINDS, build_requests
from repro.serving.scoring import BatchScorer
from repro.serving.sessions import Session
from repro.serving.wal import DEFAULT_FLUSH_BYTES, WriteAheadLog
from repro.serving.worker import ShardWorker
from repro.stats.suffstats import SufficientStats, merge_all

__all__ = ["HashRing", "ShardedMomentService", "MANIFEST_SCHEMA"]

#: ``MANIFEST_SCHEMA`` (re-exported in ``__all__``) comes from
#: :mod:`repro.schemas`, the version-string source of truth.

#: Structural version of the manifest layout.
MANIFEST_SCHEMA_VERSION = 1

#: Placement policies the router understands.
PLACEMENTS = ("hash", "spread")

#: WAL on-disk formats the router can create (existing logs auto-detect).
WAL_FORMATS = ("v1", "v2")

PathLike = Union[str, Path]


def _stable_hash(text: str) -> int:
    """First 64 bits of sha256 — stable everywhere, unlike ``hash()``."""
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:16], 16)


def _resolve_wal_flush(
    wal_version: int,
    flush_records: Optional[int],
    flush_bytes: Optional[int],
) -> Tuple[int, int]:
    """Group-commit bounds: v1 defaults to flush-per-record, v2 to 64."""
    if flush_records is None:
        flush_records = 1 if wal_version == 1 else 64
    if flush_bytes is None:
        flush_bytes = DEFAULT_FLUSH_BYTES
    if int(flush_records) < 1:
        raise ConfigError(f"wal_flush_records must be >= 1, got {flush_records}")
    if int(flush_bytes) < 1:
        raise ConfigError(f"wal_flush_bytes must be >= 1, got {flush_bytes}")
    return int(flush_records), int(flush_bytes)


class HashRing:
    """Consistent-hash ring over shard indices.

    Each shard contributes ``virtual_nodes`` points at
    ``sha256("shard:<i>:vnode:<j>")``; a key lands on the first point at
    or clockwise of ``sha256("key:<key>")``.  Virtual nodes keep the load
    split near-uniform, and consistency means resizing from N to N+1
    shards relocates only ~1/(N+1) of the keys — the property that makes
    offline re-sharding of WALs tractable.
    """

    def __init__(self, n_shards: int, virtual_nodes: int = 64) -> None:
        if n_shards < 1:
            raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
        if virtual_nodes < 1:
            raise ConfigError(f"virtual_nodes must be >= 1, got {virtual_nodes}")
        self.n_shards = int(n_shards)
        self.virtual_nodes = int(virtual_nodes)
        points: List[Tuple[int, int]] = []
        for shard in range(self.n_shards):
            for vnode in range(self.virtual_nodes):
                points.append((_stable_hash(f"shard:{shard}:vnode:{vnode}"), shard))
        points.sort()
        self._hashes = [point for point, _ in points]
        self._shards = [shard for _, shard in points]

    def shard_for(self, key: str) -> int:
        """Home shard of a session key (pure, stable, O(log n))."""
        if self.n_shards == 1:
            return 0
        point = _stable_hash(f"key:{key}")
        index = bisect.bisect_right(self._hashes, point)
        if index == len(self._hashes):
            index = 0
        return self._shards[index]


class ShardedMomentService:
    """N-shard serving stack behind one service-shaped interface.

    Parameters
    ----------
    n_shards:
        Worker count.  ``1`` with the default ``flush_rows`` is the
        bit-identical compatibility mode.
    max_sessions_per_shard, ttl_ops:
        Per-shard store bounds.
    placement:
        ``"hash"`` — each key lives on its ring shard; queries read one
        shard.  ``"spread"`` — each key lives on *every* shard with
        ingest rotated round-robin; queries Chan-merge all shards
        (merge-on-read).
    flush_rows:
        Ingest-coalescing threshold in rows.  ``None`` resolves to ``1``
        (no coalescing) for ``n_shards == 1`` and ``64`` otherwise.
    wal_dir:
        Directory for per-shard write-ahead logs (``shard-NNN.wal``).
        ``None`` disables logging.  Fresh logs only — recovering existing
        logs goes through :meth:`restore`.
    wal_format:
        On-disk format of *new* logs: ``"v2"`` (default — binary frames,
        raw float64 buffers, the ingest fast path) or ``"v1"`` (JSON
        lines, greppable).  Existing logs auto-detect on open.
    wal_flush_records, wal_flush_bytes:
        Group-commit bounds per shard log (see
        :class:`~repro.serving.wal.WriteAheadLog`).  ``None`` resolves
        ``wal_flush_records`` to ``1`` for v1 (the original
        flush-per-record durability) and ``64`` for v2, and
        ``wal_flush_bytes`` to 256 KiB.  Checkpoints always barrier
        (``sync``) first, so coalesced flushing never weakens what a
        checkpoint claims to cover.
    wal_delta_rows:
        Suffstats-delta threshold forwarded to every worker: 2-D ingest
        blocks with at least this many rows are logged as ``O(d^2)``
        sufficient statistics instead of raw samples.  ``None`` disables
        delta logging.
    virtual_nodes:
        Ring resolution (see :class:`HashRing`).
    n_jobs:
        Thread fan-out for cross-shard operations (spread-mode collection
        and per-shard checkpointing), normalised by
        :func:`~repro.experiments.parallel.resolve_n_jobs`.
    linalg_backend:
        Kernel backend for all scoring math.
    """

    def __init__(
        self,
        n_shards: int = 1,
        max_sessions_per_shard: int = 1024,
        ttl_ops: Optional[int] = None,
        placement: str = "hash",
        flush_rows: Optional[int] = None,
        wal_dir: Optional[PathLike] = None,
        wal_format: str = "v2",
        wal_flush_records: Optional[int] = None,
        wal_flush_bytes: Optional[int] = None,
        wal_delta_rows: Optional[int] = None,
        virtual_nodes: int = 64,
        n_jobs: Optional[int] = 1,
        linalg_backend: Optional[str] = None,
    ) -> None:
        if placement not in PLACEMENTS:
            raise ConfigError(
                f"unknown placement {placement!r}; expected one of {PLACEMENTS}"
            )
        if wal_format not in WAL_FORMATS:
            raise ConfigError(
                f"unknown wal_format {wal_format!r}; expected one of {WAL_FORMATS}"
            )
        self.ring = HashRing(n_shards, virtual_nodes=virtual_nodes)
        self.placement = placement
        if flush_rows is None:
            flush_rows = 1 if n_shards == 1 else 64
        if int(flush_rows) < 1:
            raise ConfigError(f"flush_rows must be >= 1, got {flush_rows}")
        self.flush_rows = int(flush_rows)
        wal_version = 2 if wal_format == "v2" else 1
        flush_records, flush_bytes = _resolve_wal_flush(
            wal_version, wal_flush_records, wal_flush_bytes
        )
        self._n_jobs = n_jobs
        self._linalg_backend = linalg_backend
        self.workers: List[ShardWorker] = []
        for shard in range(self.ring.n_shards):
            wal: Optional[WriteAheadLog] = None
            if wal_dir is not None:
                directory = Path(wal_dir)
                directory.mkdir(parents=True, exist_ok=True)
                wal = WriteAheadLog.create(
                    directory / f"shard-{shard:03d}.wal",
                    shard_id=shard,
                    version=wal_version,
                    flush_records=flush_records,
                    flush_bytes=flush_bytes,
                )
            self.workers.append(
                ShardWorker(
                    shard_id=shard,
                    max_sessions=max_sessions_per_shard,
                    ttl_ops=ttl_ops,
                    wal=wal,
                    wal_delta_rows=wal_delta_rows,
                    linalg_backend=linalg_backend,
                )
            )
        self.counters = ServiceCounters()
        self.scorer = BatchScorer(self.counters, linalg_backend=linalg_backend)
        # Ingest-side shared state below is mutated by whichever thread
        # calls ingest/flush/drop (protocol loops, load generators, tests
        # with client pools), so every mutation holds this lock — worker
        # folds happen under it too, which serialises router-side ingest
        # but keeps drain + apply atomic per key (reprolint RPL007 pins
        # the discipline).
        self._ingest_lock = threading.Lock()
        # per-key ingest buffers: list of (n, d) blocks + pending row count
        self._buffers: Dict[str, List[np.ndarray]] = {}
        self._buffered_rows: Dict[str, int] = {}
        # per-key round-robin cursor (spread placement)
        self._rotation: Dict[str, int] = {}
        # per-key rows routed through this router (monotone; survives flushes)
        self._routed_rows: Dict[str, int] = {}
        # coalescing gauges: blocks and rows handed to workers, and how many
        # of those blocks a barrier forced out before the row threshold
        self._flushed_blocks = 0
        self._flushed_rows = 0
        self._barrier_blocks = 0

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.ring.n_shards

    def shard_for(self, key: str) -> int:
        """Home shard of a key under the current ring."""
        return self.ring.shard_for(str(key))

    def _home(self, key: str) -> ShardWorker:
        return self.workers[self.ring.shard_for(str(key))]

    @property
    def _passthrough(self) -> bool:
        """Single-shard + no coalescing: the bit-identical compat mode."""
        return self.ring.n_shards == 1 and self.flush_rows == 1

    # ------------------------------------------------------------------
    # session lifecycle
    # ------------------------------------------------------------------
    def create_session(
        self,
        key: str,
        prior: PriorKnowledge,
        kappa0: Optional[float] = None,
        v0: Optional[float] = None,
        exist_ok: bool = False,
    ) -> Session:
        """Register a population on its home shard (all shards for spread)."""
        key = str(key)
        if self.placement == "spread":
            sessions = [
                worker.create_session(
                    key, prior, kappa0=kappa0, v0=v0, exist_ok=exist_ok
                )
                for worker in self.workers
            ]
            return sessions[0]
        return self._home(key).create_session(
            key, prior, kappa0=kappa0, v0=v0, exist_ok=exist_ok
        )

    def drop_session(self, key: str) -> bool:
        """Remove a session everywhere it lives; returns whether it existed.

        Pending buffered rows for the key are flushed first — a drop
        covers everything accepted before it, in order.
        """
        key = str(key)
        with self._ingest_lock:
            self._flush_key_locked(key, barrier=True)
        if self.placement == "spread":
            dropped = [worker.drop_session(key) for worker in self.workers]
            return any(dropped)
        return self._home(key).drop_session(key)

    def session_keys(self) -> List[str]:
        """Sorted union of live keys across shards (buffers flushed first)."""
        self.flush()
        keys: Set[str] = set()
        for worker in self.workers:
            keys.update(worker.session_keys())
        return sorted(keys)

    # ------------------------------------------------------------------
    # ingest (coalesced)
    # ------------------------------------------------------------------
    def ingest(self, key: str, samples: ArrayLike) -> int:
        """Accept a sample block for a session; returns the total number of
        rows routed to that key through this router.

        With ``flush_rows > 1`` the rows are buffered and folded into the
        owning worker as one stacked block later (next threshold crossing
        or read barrier) — numerically a Chan block merge instead of
        per-row Welford updates, within the 1e-10 serving bound.  The
        return value counts *accepted* rows; the worker's own session
        total advances at flush time.
        """
        key = str(key)
        arr = np.asarray(samples, dtype=float)
        rows = 1 if arr.ndim == 1 else arr.shape[0]
        self.counters.record_ingest(rows)
        with self._ingest_lock:
            if self._passthrough:
                self.workers[0].ingest(key, arr)
                self._routed_rows[key] = self._routed_rows.get(key, 0) + rows
                return self._routed_rows[key]
            block = arr[None, :] if arr.ndim == 1 else arr
            self._buffers.setdefault(key, []).append(block)
            pending = self._buffered_rows.get(key, 0) + int(block.shape[0])
            self._buffered_rows[key] = pending
            self._routed_rows[key] = self._routed_rows.get(key, 0) + rows
            if pending >= self.flush_rows:
                self._flush_key_locked(key, barrier=False)
            return self._routed_rows[key]

    def ingest_stats(self, key: str, stats: SufficientStats) -> int:
        """Merge pre-accumulated statistics into the owning worker.

        Statistics merge exactly in any order, so these bypass the row
        buffer (flushing the key first keeps arrival order intact).
        """
        key = str(key)
        self.counters.record_ingest(stats.n)
        with self._ingest_lock:
            self._flush_key_locked(key, barrier=True)
            self._routed_rows[key] = self._routed_rows.get(key, 0) + stats.n
            return self._ingest_worker_locked(key).ingest_stats(key, stats)

    def _ingest_worker_locked(self, key: str) -> ShardWorker:
        """The worker the *next* block for ``key`` goes to (lock held)."""
        if self.placement == "spread":
            cursor = self._rotation.get(key, 0)
            self._rotation[key] = cursor + 1
            return self.workers[cursor % self.ring.n_shards]
        return self._home(key)

    def _flush_key_locked(self, key: str, barrier: bool) -> None:
        """Fold ``key``'s buffered blocks into its worker (lock held).

        ``barrier`` marks a flush forced before the row threshold (a read
        or ordering barrier), which the coalescing gauges count apart.
        """
        blocks = self._buffers.pop(key, [])
        rows = self._buffered_rows.pop(key, 0)
        if not blocks:
            return
        self._flushed_blocks += 1
        self._flushed_rows += rows
        self._barrier_blocks += int(barrier)
        stacked = blocks[0] if len(blocks) == 1 else np.vstack(blocks)
        self._ingest_worker_locked(key).ingest(key, stacked)

    def flush(self) -> None:
        """Flush every ingest buffer (deterministic key order)."""
        with self._ingest_lock:
            for key in sorted(self._buffers):
                self._flush_key_locked(key, barrier=True)

    def flush_keys(self, keys: Iterable[str]) -> None:
        """Per-key read barrier: flush the buffers of ``keys`` only.

        Read-your-writes needs nothing more than the queried keys'
        acknowledged rows in their workers; every other key's buffer keeps
        coalescing toward ``flush_rows``.  Keys flush in sorted order, so
        the worker op sequence (and each WAL) stays a pure function of the
        request stream.
        """
        with self._ingest_lock:
            for key in sorted({str(key) for key in keys}):
                self._flush_key_locked(key, barrier=True)

    # ------------------------------------------------------------------
    # queries (merge-on-read)
    # ------------------------------------------------------------------
    def _merged_snapshot(self, key: str) -> Session:
        """Session snapshot for scoring: collected and Chan-merged.

        Hash placement reads the home shard only; spread placement
        collects every shard's partial statistics (thread fan-out) and
        merges them in shard-index order — deterministic, so repeated
        queries of an unchanged key bit-agree.
        """
        if self.placement != "spread":
            return self._home(key).collect(key)

        def grab(worker: ShardWorker) -> Optional[Session]:
            try:
                return worker.collect(key)
            except SessionNotFoundError:
                return None

        views = [
            view
            for view in thread_map(grab, self.workers, n_jobs=self._n_jobs)
            if view is not None
        ]
        if not views:
            raise SessionNotFoundError(
                f"no session {key!r} on any shard (never created, or evicted)"
            )
        merged = views[0]
        merged.stats = merge_all([view.stats for view in views])
        return merged

    def query_many(self, queries: Sequence[Tuple[str, str, Any]]) -> List[Any]:
        """Score ``(kind, key, payload)`` queries as one merged batch.

        The buffers of the queried keys are flushed first
        (read-your-writes, :meth:`flush_keys`); other keys keep their
        buffers.  The router then collects per-shard statistics, merges,
        and scores through the shared grouped scorer.  Single-shard mode
        delegates to the worker so counters land exactly where a bare
        worker puts them.
        """
        self.flush_keys(key for _, key, _ in queries)
        if self.ring.n_shards == 1:
            return self.workers[0].query_many(queries)
        requests = build_requests(queries, self.counters.record_request)
        self.scorer.score(requests, self._merged_snapshot)
        return [request.future.result() for request in requests]

    def estimate(self, key: str) -> MomentEstimate:
        """MAP-estimate query for one session (synchronous)."""
        result: MomentEstimate = self.query_many([("estimate", key, None)])[0]
        return result

    def loglik(self, key: str, x: ArrayLike) -> float:
        """Log-likelihood of ``x`` under the session's merged MAP."""
        return float(self.query_many([("loglik", key, np.asarray(x, dtype=float))])[0])

    def yield_prob(self, key: str, lower: ArrayLike, upper: ArrayLike) -> float:
        """Parametric-yield query against spec box bounds."""
        payload = (np.asarray(lower, dtype=float), np.asarray(upper, dtype=float))
        return float(self.query_many([("yield", key, payload)])[0])

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Router counters plus per-shard snapshots and fleet totals.

        ``stats`` is a global barrier: it flushes every buffer before the
        shards are read.  ``coalescing`` reports what was still buffered
        when the call arrived (``pending_keys``/``pending_rows``), the
        blocks and rows handed to workers so far, and how many of those
        blocks a barrier forced out before ``flush_rows`` accumulated.
        """
        with self._ingest_lock:
            pending_keys = len(self._buffered_rows)
            pending_rows = sum(self._buffered_rows.values())
        self.flush()
        with self._ingest_lock:
            coalescing = {
                "pending_keys": pending_keys,
                "pending_rows": pending_rows,
                "blocks": self._flushed_blocks,
                "rows": self._flushed_rows,
                "barrier_blocks": self._barrier_blocks,
            }
        out = self.counters.snapshot()
        shards = [worker.stats() for worker in self.workers]
        out["n_shards"] = self.ring.n_shards
        out["placement"] = self.placement
        out["flush_rows"] = self.flush_rows
        out["coalescing"] = coalescing
        out["sessions_live"] = sum(s["sessions_live"] for s in shards)
        out["sessions_evicted"] = sum(s["sessions_evicted"] for s in shards)
        # WAL append/flush gauges accrue on the worker counters (each log
        # observes its worker); surface the fleet totals at router level
        out["wal_records"] = sum(s["wal_records"] for s in shards)
        out["wal_bytes"] = sum(s["wal_bytes"] for s in shards)
        out["wal_flushes"] = sum(s["wal_flushes"] for s in shards)
        out["shards"] = shards
        return out

    def _reconcile_counters(self, base: Optional[Dict[str, Any]] = None) -> None:
        """Rebuild router-level counters after a recovery.

        Worker counters are exact post-replay state, so the router totals
        start as their sum.  ``base`` (a manifest ``counters`` state dict)
        is folded in by elementwise max: in single-shard mode every count
        also lives on the worker, so the fresher worker sum wins; in
        multi-shard mode request kinds are counted only on the router
        (worker ``collect`` touch records carry ``kinds={}``), so the
        checkpointed value is the best available — it lags by whatever
        queries arrived after the checkpoint, and ``ingest_calls`` counts
        post-coalescing blocks rather than accepted calls on a WAL-only
        recovery.  Both limits are documented in ``docs/SERVING.md``.
        """
        requests: Dict[str, int] = {kind: 0 for kind in QUERY_KINDS}
        errors = 0
        ingest_calls = 0
        ingested_samples = 0
        for worker in self.workers:
            state = worker.counters.state_dict()
            for kind, count in state["requests"].items():
                requests[kind] = requests.get(kind, 0) + int(count)
            errors += int(state["errors"])
            ingest_calls += int(state["ingest_calls"])
            ingested_samples += int(state["ingested_samples"])
        if base is not None:
            for kind, count in base["requests"].items():
                requests[kind] = max(requests.get(kind, 0), int(count))
            errors = max(errors, int(base["errors"]))
            ingest_calls = max(ingest_calls, int(base["ingest_calls"]))
            ingested_samples = max(ingested_samples, int(base["ingested_samples"]))
        self.counters.load_state_dict(
            {
                "requests": requests,
                "errors": errors,
                "ingest_calls": ingest_calls,
                "ingested_samples": ingested_samples,
            }
        )

    # ------------------------------------------------------------------
    # checkpoint / restore / compaction
    # ------------------------------------------------------------------
    def _shard_file(self, shard: int) -> str:
        return f"shard-{shard:03d}.ckpt"

    def _write_manifest(self, directory: Path, shas: List[str]) -> str:
        entries: List[Dict[str, Any]] = []
        for shard, worker in enumerate(self.workers):
            wal_entry: Optional[Dict[str, Any]] = None
            if worker.wal is not None:
                wal_entry = {
                    "file": worker.wal.path.name,
                    "seq": worker.wal.last_seq,
                }
            entries.append(
                {
                    "shard": shard,
                    "file": self._shard_file(shard),
                    "sha256": shas[shard],
                    "wal": wal_entry,
                }
            )
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "n_shards": self.ring.n_shards,
            "virtual_nodes": self.ring.virtual_nodes,
            "placement": self.placement,
            "shards": entries,
            "counters": self.counters.state_dict(),
        }
        encoded = write_json_atomic(manifest, directory / "manifest.json")
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()

    def checkpoint(self, directory: PathLike) -> str:
        """Snapshot every shard + a manifest; returns the manifest sha256.

        Buffers are flushed first, each shard checkpoint is individually
        atomic and self-verifying, and the manifest binds them together
        (per-shard sha256 + the WAL offset each covers).
        """
        self.flush()
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        shas = thread_map(
            lambda shard: self.workers[shard].checkpoint(
                target / self._shard_file(shard)
            ),
            range(self.ring.n_shards),
            n_jobs=self._n_jobs,
        )
        return self._write_manifest(target, list(shas))

    def compact(self, directory: PathLike) -> str:
        """Checkpoint, then truncate each shard's replayed WAL prefix.

        Equivalent to :meth:`checkpoint` followed by per-shard
        ``truncate_through(covered_seq)``; the manifest records the
        post-compaction (empty-tail) WAL offsets.
        """
        self.flush()
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        shas = thread_map(
            lambda shard: self.workers[shard].compact(
                target / self._shard_file(shard)
            ),
            range(self.ring.n_shards),
            n_jobs=self._n_jobs,
        )
        return self._write_manifest(target, list(shas))

    @classmethod
    def restore(
        cls,
        directory: PathLike,
        wal_dir: Optional[PathLike] = None,
        flush_rows: Optional[int] = None,
        wal_flush_records: Optional[int] = None,
        wal_flush_bytes: Optional[int] = None,
        wal_delta_rows: Optional[int] = None,
        n_jobs: Optional[int] = 1,
        linalg_backend: Optional[str] = None,
    ) -> "ShardedMomentService":
        """Rebuild a sharded service from a manifest directory.

        Each shard restores from its (self-verifying) checkpoint; when
        ``wal_dir`` is given, each shard's log is recovered
        (torn tails dropped, chains verified, on-disk format
        auto-detected) and only the records past the checkpoint's covered
        offset are replayed — the tail, not the whole history.  Group
        commit resumes with the recovered log's format defaults unless
        ``wal_flush_records``/``wal_flush_bytes`` override them.
        """
        target = Path(directory)
        try:
            manifest = json.loads((target / "manifest.json").read_text())
        except FileNotFoundError as exc:
            raise ConfigError(f"no shard manifest in {target}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"shard manifest in {target} is not valid JSON") from exc
        if not isinstance(manifest, dict) or manifest.get("schema") != MANIFEST_SCHEMA:
            raise ConfigError(
                f"{target} does not hold a sharded-serving checkpoint "
                f"(expected schema {MANIFEST_SCHEMA!r})"
            )
        check_schema_version(manifest, MANIFEST_SCHEMA_VERSION, "shard manifest")
        service = cls(
            n_shards=int(manifest["n_shards"]),
            placement=str(manifest["placement"]),
            flush_rows=flush_rows,
            wal_dir=None,
            virtual_nodes=int(manifest["virtual_nodes"]),
            n_jobs=n_jobs,
            linalg_backend=linalg_backend,
        )
        for shard, entry in enumerate(manifest["shards"]):
            wal: Optional[WriteAheadLog] = None
            if wal_dir is not None and entry.get("wal") is not None:
                wal_path = Path(wal_dir) / str(entry["wal"]["file"])
                if wal_path.exists():
                    wal = WriteAheadLog.open(
                        wal_path,
                        flush_records=wal_flush_records,
                        flush_bytes=wal_flush_bytes,
                    )
            service.workers[shard] = ShardWorker.restore(
                target / str(entry["file"]),
                shard_id=shard,
                wal=wal,
                wal_delta_rows=wal_delta_rows,
                linalg_backend=linalg_backend,
            )
        # WAL tails may have advanced the workers past the manifest's
        # counters; reconcile rather than loading the stale snapshot.
        service._reconcile_counters(base=manifest["counters"])
        return service

    @classmethod
    def recover(
        cls,
        wal_dir: PathLike,
        max_sessions_per_shard: int = 1024,
        ttl_ops: Optional[int] = None,
        placement: str = "hash",
        flush_rows: Optional[int] = None,
        wal_flush_records: Optional[int] = None,
        wal_flush_bytes: Optional[int] = None,
        wal_delta_rows: Optional[int] = None,
        virtual_nodes: int = 64,
        n_jobs: Optional[int] = 1,
        linalg_backend: Optional[str] = None,
    ) -> "ShardedMomentService":
        """Rebuild a sharded service from its WALs alone (no checkpoint).

        The crash-before-first-checkpoint path: every ``shard-NNN.wal``
        in the directory is recovered (torn tail dropped, chain
        verified) and replayed from the beginning.  Store bounds
        (``max_sessions_per_shard``, ``ttl_ops``) are runtime
        configuration the WAL does not carry — supply the values the
        original service ran with, or eviction decisions will diverge.
        Recovered logs stay attached, so serving continues appending
        where the dead process stopped.
        """
        directory = Path(wal_dir)
        wal_paths = sorted(directory.glob("shard-*.wal"))
        if not wal_paths:
            raise ConfigError(f"no shard-*.wal files to recover in {directory}")
        service = cls(
            n_shards=len(wal_paths),
            max_sessions_per_shard=max_sessions_per_shard,
            ttl_ops=ttl_ops,
            placement=placement,
            flush_rows=flush_rows,
            wal_dir=None,
            virtual_nodes=virtual_nodes,
            n_jobs=n_jobs,
            linalg_backend=linalg_backend,
        )
        for shard, path in enumerate(wal_paths):
            wal = WriteAheadLog.open(
                path,
                flush_records=wal_flush_records,
                flush_bytes=wal_flush_bytes,
            )
            worker = ShardWorker(
                shard_id=shard,
                max_sessions=max_sessions_per_shard,
                ttl_ops=ttl_ops,
                wal=wal,
                wal_delta_rows=wal_delta_rows,
                linalg_backend=linalg_backend,
            )
            worker.replay(wal)
            service.workers[shard] = worker
        # Router counters are not logged anywhere; the shard sums are the
        # best WAL-only reconstruction (exact in single-shard mode, which
        # routes requests through the worker; multi-shard request kinds
        # are router-only state and restart from the replayed touches).
        service._reconcile_counters()
        return service

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush buffers and close every shard WAL (idempotent)."""
        self.flush()
        for worker in self.workers:
            worker.close()

    def __enter__(self) -> "ShardedMomentService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
