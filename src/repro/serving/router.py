"""Shard router: consistent-hash placement + home-shard scoring.

:class:`ShardedMomentService` fans the serving workload out over N
:class:`~repro.serving.worker.ShardWorker` slices:

* **Placement** — a sha256-based consistent-hash ring
  (:class:`HashRing`) maps each session key to its home shard, where the
  whole session lives.  The ring is a pure function of
  ``(n_shards, virtual_nodes, key)`` — stable across processes,
  platforms, and ``PYTHONHASHSEED`` — so any router instance (or an
  offline tool reading a WAL) computes the same placement.  Recovery
  checks it: a log holding a key its ring does not place on that shard
  is refused.
* **Ingest coalescing** — accepted rows are copied into one buffer per
  key (one :class:`_KeyRecord` each, which also carries the key's
  acknowledged row count) and flushed to the owning worker as one
  block once ``flush_rows`` rows accumulate, or at a read
  barrier.  The barrier is per key: a query flushes only the keys it
  reads, so every other buffer keeps coalescing.  Checkpoints, listings,
  ``stats`` and ``close`` are global barriers that flush every key.  This
  turns per-row Welford updates into block Chan merges, which is where
  the multi-shard throughput win comes from on a single-core box; the
  rounding difference is covered by the documented 1e-10 equivalence
  bound.
* **Home-shard queries** — each query is counted and scored on its key's
  home worker, one batch per shard.  Additivity of the sufficient
  statistics is what lets blocks coalesce (and shards fold offline with
  :func:`~repro.stats.suffstats.merge_all`) without new math.
* **One place that counts** — each worker counts what it applied (a
  coalesced block as the calls it holds), in the state its checkpoint
  holds and its log replays; the router's totals are the shard sums.
* **Layout** — a checkpoint holds one file per shard, and a manifest
  directory binds them only when there is more than one.

Single-shard mode is the compatibility gate: ``n_shards=1`` defaults to
``flush_rows=1``, and a block that alone reaches ``flush_rows`` with
nothing buffered for its key goes to the worker as sent.  Every ingest
therefore reaches the one worker at once, a 1-D row down the same Welford
path, reproducing a bare :class:`~repro.serving.worker.ShardWorker`
bit-for-bit — counters, eviction order, WAL records and checkpoint bytes.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import json
import threading
from collections.abc import Callable
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike

from repro.core.estimators import MomentEstimate
from repro.core.prior import PriorKnowledge
from repro.exceptions import (
    ConfigError,
    DimensionError,
    ReproError,
    SessionNotFoundError,
    WalCorruptionError,
)
from repro.jobs import thread_map
from repro.schemas import MANIFEST_SCHEMA, check_schema_version, write_json_atomic
from repro.serving.counters import ServiceCounters
from repro.serving.queue import Request, build_requests
from repro.serving.sessions import Session, block_rows, stats_rows
from repro.serving.wal import WriteAheadLog
from repro.serving.worker import ShardWorker
from repro.stats.suffstats import SufficientStats

__all__ = ["HashRing", "ShardedMomentService", "MANIFEST_SCHEMA"]

#: ``MANIFEST_SCHEMA`` (re-exported in ``__all__``) comes from
#: :mod:`repro.schemas`, the version-string source of truth.

#: Structural version of the manifest layout.
MANIFEST_SCHEMA_VERSION = 1

#: The one placement: each key on its ring home.  Manifests record it.
PLACEMENT = "hash"

PathLike = Union[str, Path]


def _stable_hash(text: str) -> int:
    """First 64 bits of sha256 — stable everywhere, unlike ``hash()``."""
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:16], 16)


@contextlib.contextmanager
def _closing_on_error(service: "ShardedMomentService") -> Iterator[None]:
    """Close ``service`` if the block raises: a failed recovery returns no
    service and leaves no recovered log handle open behind it."""
    try:
        yield
    except BaseException:
        service.close()
        raise


def _restore_logged(checkpoint: Path, wal_path: Path, shard: int, **bounds: Any) -> ShardWorker:
    """Shard ``shard`` restored from ``checkpoint`` with the log at
    ``wal_path`` attached (see :meth:`ShardedMomentService.restore`)."""
    if wal_path.exists():
        return ShardWorker._recover(wal_path, checkpoint, shard_id=shard, **bounds)
    worker = ShardWorker.restore(checkpoint, shard_id=shard)
    if worker.covered is not None:
        raise WalCorruptionError(
            f"{checkpoint} covers write-ahead log {wal_path} through seq {worker.covered}, "
            "but that log is missing"
        )
    wal_path.parent.mkdir(parents=True, exist_ok=True)
    worker._attach_wal(WriteAheadLog.create(wal_path, shard_id=shard, **bounds))
    return worker


class _KeyRecord:
    """Router-side ingest state of one session key.

    The accepted but not yet flushed rows are the first ``pending`` of
    ``rows``, the record's own copy (grown by doubling, released at the
    flush); ``calls`` is how many ingest calls sent them, and ``acked`` is
    the session's row count as acknowledged to clients, buffered rows
    included.
    """

    __slots__ = ("rows", "pending", "calls", "acked")

    def __init__(self) -> None:
        self.rows: Optional[np.ndarray] = None
        self.pending = 0
        self.calls = 0
        self.acked = 0

    def hold(self, arr: np.ndarray, count: int, limit: int) -> None:
        """Copy ``arr``'s ``count`` rows in after the held ones (as wide)."""
        rows, start, width = self.rows, self.pending, arr.shape[-1]
        if rows is not None and width != rows.shape[1]:
            raise DimensionError(
                f"a row of width {width} cannot join buffered rows of width {rows.shape[1]}"
            )
        if rows is None or start + count > len(rows):
            grown = np.empty((max(start + count, min(max(2 * start, 4), limit)), width))
            if rows is not None:
                grown[:start] = rows[:start]
            rows = grown
        rows[start : start + count] = arr
        self.rows, self.pending = rows, start + count


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
        Worker count.  ``1`` with the default ``flush_rows`` behaves
        bit-identically to a bare worker.
    max_sessions_per_shard, ttl_ops:
        Per-shard store bounds.
    flush_rows:
        Ingest-coalescing threshold in rows.  ``None`` resolves to ``1``
        (no coalescing) for ``n_shards == 1`` and ``64`` otherwise.
    wal_dir:
        Directory for per-shard write-ahead logs (``shard-NNN.wal``).
        ``None`` disables logging.  Fresh logs only — recovering existing
        logs goes through :meth:`restore` or :meth:`recover`.
    wal_flush_records, wal_flush_bytes:
        Group-commit bounds per shard log (see
        :class:`~repro.serving.wal.WriteAheadLog`, which owns the
        defaults — 64 records, 256 KiB — and rejects bounds below 1).
        Checkpoints always barrier (``sync``) first, so coalesced
        flushing never weakens what a checkpoint claims to cover.
    virtual_nodes:
        Ring resolution (see :class:`HashRing`).
    n_jobs:
        Thread fan-out for per-shard checkpointing, normalised by
        :func:`~repro.jobs.resolve_n_jobs`.
    """

    def __init__(
        self,
        n_shards: int = 1,
        max_sessions_per_shard: int = 1024,
        ttl_ops: Optional[int] = None,
        flush_rows: Optional[int] = None,
        wal_dir: Optional[PathLike] = None,
        wal_flush_records: Optional[int] = None,
        wal_flush_bytes: Optional[int] = None,
        virtual_nodes: int = 64,
        n_jobs: Optional[int] = 1,
    ) -> None:
        self.ring = HashRing(n_shards, virtual_nodes=virtual_nodes)
        if flush_rows is None:
            flush_rows = 1 if n_shards == 1 else 64
        if int(flush_rows) < 1:
            raise ConfigError(f"flush_rows must be >= 1, got {flush_rows}")
        self.flush_rows = int(flush_rows)
        self._n_jobs = n_jobs
        self.workers: List[ShardWorker] = []
        for shard in range(self.ring.n_shards):
            wal: Optional[WriteAheadLog] = None
            if wal_dir is not None:
                directory = Path(wal_dir)
                directory.mkdir(parents=True, exist_ok=True)
                wal = WriteAheadLog.create(
                    directory / f"shard-{shard:03d}.wal",
                    shard_id=shard,
                    flush_records=wal_flush_records,
                    flush_bytes=wal_flush_bytes,
                )
            self.workers.append(
                ShardWorker(
                    shard_id=shard,
                    max_sessions=max_sessions_per_shard,
                    ttl_ops=ttl_ops,
                    wal=wal,
                )
            )
        # Ingest-side shared state below is mutated by whichever thread
        # calls ingest/flush/drop (protocol loops, load generators, tests
        # with client pools), so every mutation holds this lock — worker
        # folds happen under it too, which serialises router-side ingest
        # but keeps drain + apply atomic per key (reprolint RPL007 pins
        # the discipline).
        self._ingest_lock = threading.Lock()
        # per-key buffered blocks and acknowledged row count
        self._records: Dict[str, _KeyRecord] = {}
        # coalescing gauges: blocks and rows workers applied, and how many
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
    def counters(self) -> ServiceCounters:
        """Read-only view of the shard counters' sums (a fresh copy per
        read: counting happens on the workers)."""
        return ServiceCounters.summed([worker.counters for worker in self.workers])

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
        """Register a population on its home shard.

        Rows still buffered for the key are flushed first, so they reach
        the session they were sent to.  If that session was evicted, the
        worker refuses them and they are dropped, as a bare worker would
        have refused them on arrival: a new session starts empty.  The
        key's acknowledged row count restarts at the session's rows: zero
        for a fresh session, unchanged for an ``exist_ok`` hit.
        """
        key = str(key)
        with self._ingest_lock:
            try:
                self._flush_key_locked(key, barrier=True)
            except SessionNotFoundError:
                pass  # evicted under its buffer; the refused rows are dropped
            session = self._home(key).create_session(
                key, prior, kappa0=kappa0, v0=v0, exist_ok=exist_ok
            )
            rows = session.n_ingested
            if rows or key in self._records:
                self._record_locked(key).acked = rows
        return session

    def drop_session(self, key: str) -> bool:
        """Remove a session from its home shard; returns whether it existed.

        Pending buffered rows for the key are flushed first — a drop
        covers everything accepted before it, in order — and its
        acknowledged row count restarts from zero.
        """
        key = str(key)
        with self._ingest_lock:
            self._flush_key_locked(key, barrier=True)
            self._records.pop(key, None)
            return self._home(key).drop_session(key)

    def row_count(self, key: str) -> int:
        """``key``'s row count as an ingest ack states it: rows on its
        home shard plus rows still buffered (no flush, no clock tick).

        Read from the workers, not from the acknowledged count, so a
        session evicted since its last ingest counts 0, as on a bare
        worker.
        """
        key = str(key)
        with self._ingest_lock:
            record = self._records.get(key)
            pending = 0 if record is None else record.pending
            return pending + self._home(key).row_count(key)

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
        """Accept a sample block for a session; returns the session's row
        count after it, rows still buffered included — what a bare
        :class:`~repro.serving.worker.ShardWorker` returns for the same
        request stream.

        Rows below ``flush_rows`` are copied into the key's buffer and
        folded into the owning worker as one block later (next threshold
        crossing or read barrier) — numerically a Chan block merge instead
        of per-row Welford updates, within the 1e-10 serving bound.  A
        block that alone reaches ``flush_rows`` with nothing buffered for
        its key goes to the worker as sent, so at ``flush_rows=1`` a 1-D
        row keeps the Welford path.  An empty block is refused at once,
        whether or not rows are buffered for its key.  A block that is
        neither a vector nor a matrix, or not as wide as the key's
        buffered rows, raises
        :class:`~repro.exceptions.DimensionError` here; row values are
        validated when their buffer flushes.  A call is counted by the
        worker that applies it: a buffered call when its block is folded,
        as one of the calls that block holds.  A refused call counts
        nowhere, as on a bare worker.
        """
        key = str(key)
        arr = np.asarray(samples, dtype=float)
        rows = block_rows(arr)
        with self._ingest_lock:
            record = self._records.get(key) or self._record_locked(key)
            if rows == 0 or (not record.pending and rows >= self.flush_rows):
                # a lone block goes to the worker as sent, and so does an
                # empty one (to its refusal), even with rows buffered
                record.acked += rows
                self._fold_locked(key, record, arr, rows, 1, barrier=False)
                return record.acked
            record.hold(arr, rows, self.flush_rows)
            record.acked += rows
            record.calls += 1
            if record.pending >= self.flush_rows:
                self._flush_key_locked(key, barrier=False)
            return record.acked

    def ingest_stats(self, key: str, stats: SufficientStats) -> int:
        """Merge pre-accumulated statistics into the owning worker.

        Statistics merge exactly in any order, so these bypass the row
        buffer (flushing the key first keeps arrival order intact).
        Non-finite statistics are refused before anything is forwarded;
        the worker that accepts the payload counts it.
        """
        key = str(key)
        stats_rows(stats)
        with self._ingest_lock:
            self._flush_key_locked(key, barrier=True)
            self._home(key).ingest_stats(key, stats)
            record = self._record_locked(key)
            record.acked += stats.n
            return record.acked

    def _record_locked(self, key: str) -> _KeyRecord:
        """``key``'s ingest record, created empty on first use (lock held)."""
        return self._records.get(key) or self._records.setdefault(key, _KeyRecord())

    def _seed_records(self, sources: Sequence[Path]) -> None:
        """Start each key's acknowledged count at its recovered rows, and
        refuse a recovered key that does not live on its ring home.

        ``sources[shard]`` is the file shard ``shard`` was recovered from,
        named in the refusal.  A key off its home shard (logs written
        under another ``virtual_nodes``, or by another placement) would
        be unreachable or read short, so it raises
        :class:`~repro.exceptions.WalCorruptionError`.  Reads the stores
        without ticking their clocks, so recovery leaves eviction order
        and checkpoint bytes exactly as replay made them.
        """
        check = self.ring.n_shards > 1
        with self._ingest_lock:
            for shard, worker in enumerate(self.workers):
                for key, rows in worker.store.row_counts().items():
                    if check and self.ring.shard_for(key) != shard:
                        raise WalCorruptionError(
                            f"{sources[shard]} holds key {key!r} on shard {shard}, "
                            f"but the ring ({self.ring.n_shards} shards, "
                            f"virtual_nodes={self.ring.virtual_nodes}) places it "
                            f"on shard {self.ring.shard_for(key)}"
                        )
                    if rows:
                        self._record_locked(key).acked += rows

    def _flush_key_locked(self, key: str, barrier: bool) -> None:
        """Fold ``key``'s buffered rows into its worker (lock held).
        ``barrier`` marks a flush forced before the row threshold (a read
        or ordering barrier)."""
        record = self._records.get(key)
        if record is None or record.rows is None:
            return
        block, rows, calls = record.rows[: record.pending], record.pending, record.calls
        record.rows, record.pending, record.calls = None, 0, 0
        self._fold_locked(key, record, block, rows, calls, barrier)

    def _fold_locked(
        self, key: str, record: _KeyRecord, block: np.ndarray, rows: int, calls: int, barrier: bool
    ) -> None:
        """Hand ``block`` (sent by ``calls`` ingest calls) to ``key``'s
        worker (lock held); a refused block is dropped, its rows leave the
        acknowledged count again, and the coalescing gauges skip it."""
        try:
            self._home(key).ingest(key, block, calls=calls)
        except (ReproError, ValueError):
            record.acked -= rows
            raise
        self._flushed_blocks += 1
        self._flushed_rows += rows
        self._barrier_blocks += int(barrier)

    def flush(self) -> None:
        """Flush every ingest buffer (deterministic key order).

        Every key is flushed even when a worker refuses some key's block,
        so one refusal never holds back another key's acknowledged rows;
        the first refusal is raised once all keys are flushed.
        """
        refusals: List[BaseException] = []
        with self._ingest_lock:
            pending = [key for key, record in self._records.items() if record.pending]
            for key in sorted(pending):
                try:
                    self._flush_key_locked(key, barrier=True)
                except (ReproError, ValueError) as exc:
                    refusals.append(exc)
        if refusals:
            raise refusals[0]

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
    # queries
    # ------------------------------------------------------------------
    def query_many(self, queries: Sequence[Tuple[str, str, Any]]) -> List[Any]:
        """Score ``(kind, key, payload)`` queries; results in query order.

        The buffers of the queried keys are flushed first
        (read-your-writes, :meth:`flush_keys`); other keys keep their
        buffers.  Every kind is validated before any query is counted;
        each query is then counted on its key's home worker in submission
        order, and each home shard scores its queries as one batch (shards
        in index order).  Raises the first request error in submission
        order, as a bare worker does.
        """
        self.flush_keys(key for _, key, _ in queries)
        homes = [self.ring.shard_for(str(key)) for _, key, _ in queries]
        # build_requests counts each query once, in submission order, so
        # the iterator hands every count to that query's home worker.
        home_of = iter(homes)
        requests = build_requests(
            queries, lambda kind: self.workers[next(home_of)].counters.record_request(kind)
        )
        batches: Dict[int, List[Request]] = {}
        for shard, request in zip(homes, requests):
            batches.setdefault(shard, []).append(request)
        for shard in sorted(batches):
            self.workers[shard].score_requests(batches[shard])
        return [request.result() for request in requests]

    def estimate(self, key: str) -> MomentEstimate:
        """MAP-estimate query for one session (synchronous)."""
        result: MomentEstimate = self.query_many([("estimate", key, None)])[0]
        return result

    def loglik(self, key: str, x: ArrayLike) -> float:
        """Log-likelihood of ``x`` under the session's MAP."""
        return float(self.query_many([("loglik", key, np.asarray(x, dtype=float))])[0])

    def yield_prob(self, key: str, lower: ArrayLike, upper: ArrayLike) -> float:
        """Parametric-yield query against spec box bounds."""
        payload = (np.asarray(lower, dtype=float), np.asarray(upper, dtype=float))
        return float(self.query_many([("yield", key, payload)])[0])

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Shard-sum counters plus per-shard snapshots and fleet gauges.

        The top-level counters (and latency percentiles, over every
        shard's samples) are the sums of the ``shards`` entries.  ``stats``
        is a global barrier: it flushes every buffer before the shards are
        read.  ``coalescing`` reports what was still buffered when the
        call arrived (``pending_keys``/``pending_rows``), the blocks and
        rows workers applied so far (a refused block counts nowhere), and
        how many of those blocks a barrier forced out before
        ``flush_rows`` accumulated.
        """
        with self._ingest_lock:
            pending = [record.pending for record in self._records.values() if record.pending]
            pending_keys = len(pending)
            pending_rows = sum(pending)
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
        out["placement"] = PLACEMENT
        out["flush_rows"] = self.flush_rows
        out["coalescing"] = coalescing
        out["sessions_live"] = sum(s["sessions_live"] for s in shards)
        out["sessions_evicted"] = sum(s["sessions_evicted"] for s in shards)
        out["shards"] = shards
        return out

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
            "placement": PLACEMENT,
            "shards": entries,
            # the shard sums, for readers that still take counters from here
            "counters": self.counters.state_dict(),
        }
        encoded = write_json_atomic(manifest, directory / "manifest.json")
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()

    def _save(self, path: PathLike, save_shard: Callable[[ShardWorker, Path], str]) -> str:
        """Flush, then write the layout :meth:`checkpoint` describes,
        each shard's file with ``save_shard``."""
        self.flush()
        target = Path(path)
        if self.ring.n_shards == 1 and not target.is_dir():
            return save_shard(self.workers[0], target)
        target.mkdir(parents=True, exist_ok=True)
        shas = thread_map(
            lambda shard: save_shard(self.workers[shard], target / self._shard_file(shard)),
            range(self.ring.n_shards),
            n_jobs=self._n_jobs,
        )
        return self._write_manifest(target, list(shas))

    def checkpoint(self, path: PathLike) -> str:
        """Snapshot every shard; returns the sha256 of what binds them.

        Buffers are flushed first; each shard file is atomic and
        self-verifying.  One shard writes its file at ``path`` (byte for
        byte what a bare worker writes) unless ``path`` is a directory;
        otherwise a manifest in the directory ``path`` binds the shard
        files (per-shard sha256 + the WAL offset each covers).
        """
        return self._save(path, ShardWorker.checkpoint)

    def compact(self, path: PathLike) -> str:
        """Checkpoint, then truncate each shard's replayed WAL prefix.

        Equivalent to :meth:`checkpoint` followed by per-shard
        ``truncate_through(covered_seq)``, in the same layout; a manifest
        records the post-compaction (empty-tail) WAL offsets.
        """
        return self._save(path, ShardWorker.compact)

    @staticmethod
    def _read_manifest(target: Path) -> Dict[str, Any]:
        """The verified manifest of the checkpoint directory ``target``."""
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
        if manifest.get("placement") != PLACEMENT:
            raise ConfigError(
                f"{target} was written with placement "
                f"{manifest.get('placement')!r}; only {PLACEMENT!r} is supported"
            )
        return manifest

    @classmethod
    def restore(
        cls,
        path: PathLike,
        wal_dir: Optional[PathLike] = None,
        flush_rows: Optional[int] = None,
        wal_flush_records: Optional[int] = None,
        wal_flush_bytes: Optional[int] = None,
        n_jobs: Optional[int] = 1,
    ) -> "ShardedMomentService":
        """Rebuild a service from a checkpoint: a manifest directory, or a
        regular file read as a one-shard service.

        Each shard restores from its (self-verifying) checkpoint.  With
        ``wal_dir``, each shard serves with its log in ``wal_dir`` attached
        (the file its manifest entry names, else ``shard-NNN.wal``).  An
        existing log is recovered in one pass (torn tails dropped, chains
        verified) that applies only the records past the checkpoint's
        covered offset, or all of them when the checkpoint names none; a
        missing log is created, unless the checkpoint covers one
        (:class:`~repro.exceptions.WalCorruptionError` names it).  Group
        commit resumes with the log's defaults unless
        ``wal_flush_records``/``wal_flush_bytes`` override them.  A
        manifest of any placement but ``"hash"`` raises
        :class:`~repro.exceptions.ConfigError`; a restored key off its
        ring home raises :class:`~repro.exceptions.WalCorruptionError`.
        """
        target = Path(path)
        # each shard's checkpoint file, and the log a manifest names for it
        shards: List[Tuple[Path, Optional[str]]] = [(target, None)]
        ring: Dict[str, Any] = {"n_shards": 1}
        if target.is_dir():
            manifest = cls._read_manifest(target)
            ring = {key: int(manifest[key]) for key in ("n_shards", "virtual_nodes")}
            shards = [
                (target / str(entry["file"]), (entry.get("wal") or {}).get("file"))
                for entry in manifest["shards"]
            ]
        service = cls(flush_rows=flush_rows, n_jobs=n_jobs, **ring)
        sources: List[Path] = []
        with _closing_on_error(service):
            for shard, (checkpoint, wal_name) in enumerate(shards):
                if wal_dir is None:
                    service.workers[shard] = ShardWorker.restore(checkpoint, shard_id=shard)
                    sources.append(checkpoint)
                    continue
                wal_path = Path(wal_dir) / str(wal_name or f"shard-{shard:03d}.wal")
                service.workers[shard] = _restore_logged(
                    checkpoint,
                    wal_path,
                    shard,
                    flush_records=wal_flush_records,
                    flush_bytes=wal_flush_bytes,
                )
                sources.append(wal_path)
            service._seed_records(sources)
        return service

    @classmethod
    def recover(
        cls,
        wal_dir: PathLike,
        max_sessions_per_shard: int = 1024,
        ttl_ops: Optional[int] = None,
        flush_rows: Optional[int] = None,
        wal_flush_records: Optional[int] = None,
        wal_flush_bytes: Optional[int] = None,
        virtual_nodes: int = 64,
        n_jobs: Optional[int] = 1,
    ) -> "ShardedMomentService":
        """Rebuild a sharded service from its WALs alone (no checkpoint).

        The crash-before-first-checkpoint path: every ``shard-NNN.wal``
        in the directory is recovered (torn tail dropped, chain
        verified) and replayed from the beginning, each record applied as
        it is verified.  The logs must be exactly ``shard-000.wal`` …
        ``shard-(N-1).wal``, each with its own shard id in its header: a
        missing log, a stray one, a mid-chain corruption or a log of
        another shard raises
        :class:`~repro.exceptions.WalCorruptionError` and returns no
        service.  So does a log holding a key that the ring built from
        ``virtual_nodes`` places on another shard: supply the value the
        logs were written with.  Store bounds
        (``max_sessions_per_shard``, ``ttl_ops``) are runtime
        configuration the WAL does not carry — supply the values the
        original service ran with, or eviction decisions will diverge.
        Recovered logs stay attached, so serving continues appending
        where the dead process stopped.
        """
        directory = Path(wal_dir)
        names = {path.name for path in directory.glob("shard-*.wal")}
        if not names:
            raise ConfigError(f"no shard-*.wal files to recover in {directory}")
        expected = [f"shard-{shard:03d}.wal" for shard in range(len(names))]
        stray = sorted(names.difference(expected))
        if stray:
            missing = ", ".join(sorted(set(expected).difference(names)))
            raise WalCorruptionError(
                f"{directory / stray[0]} does not fit the shard-000.wal … "
                f"{expected[-1]} sequence of {len(names)} logs (missing {missing})"
            )
        service = cls(
            n_shards=len(names),
            max_sessions_per_shard=max_sessions_per_shard,
            ttl_ops=ttl_ops,
            flush_rows=flush_rows,
            wal_dir=None,
            virtual_nodes=virtual_nodes,
            n_jobs=n_jobs,
        )
        with _closing_on_error(service):
            for shard, name in enumerate(expected):
                service.workers[shard] = ShardWorker._recover(
                    directory / name,
                    shard_id=shard,
                    max_sessions=max_sessions_per_shard,
                    ttl_ops=ttl_ops,
                    flush_records=wal_flush_records,
                    flush_bytes=wal_flush_bytes,
                )
            service._seed_records([directory / name for name in expected])
        return service

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush buffers and close every shard WAL (idempotent).

        Every worker is closed, and so every log's buffered records are
        written, even when the flush raises a refusal (see :meth:`flush`);
        the refusal is raised after.
        """
        try:
            self.flush()
        finally:
            for worker in self.workers:
                worker.close()

    def __enter__(self) -> "ShardedMomentService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
