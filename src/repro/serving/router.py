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
* **Ingest coalescing** — accepted sample blocks are buffered per key
  (one :class:`_KeyRecord` each, which also carries the key's
  acknowledged row count) and flushed to the owning worker as one
  stacked block once ``flush_rows`` rows accumulate, or at a read
  barrier.  The barrier is per key: a query flushes only the keys it
  reads, so every other buffer keeps coalescing.  Checkpoints, listings,
  ``stats`` and ``close`` are global barriers that flush every key.  This
  turns per-row Welford updates into block Chan merges, which is where
  the multi-shard throughput win comes from on a single-core box; the
  rounding difference is covered by the documented 1e-10 equivalence
  bound.
* **Home-shard queries** — the router snapshots the key's session from
  its home shard and scores it through the same
  :class:`~repro.serving.scoring.BatchScorer` every other layer uses.
  Additivity of the sufficient-statistics triple is what lets blocks
  coalesce (and shards fold offline with
  :func:`~repro.stats.suffstats.merge_all`) without new math.

Single-shard mode is the compatibility gate: ``n_shards=1`` defaults to
``flush_rows=1``, and a block that alone reaches ``flush_rows`` with
nothing buffered for its key goes to the worker as sent.  Every ingest
therefore reaches the one worker at once, a 1-D row down the same Welford
path, reproducing a bare :class:`~repro.serving.worker.ShardWorker`
bit-for-bit — counters, eviction order, WAL records and checkpoint bytes
(the equivalence suite compares ``shard-000.ckpt`` with the worker's
checkpoint file byte-wise).
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import json
import threading
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike

from repro.core.estimators import MomentEstimate
from repro.core.prior import PriorKnowledge
from repro.exceptions import ConfigError, ReproError, SessionNotFoundError, WalCorruptionError
from repro.experiments.parallel import thread_map
from repro.io import check_schema_version, write_json_atomic
from repro.schemas import MANIFEST_SCHEMA
from repro.serving.counters import ServiceCounters
from repro.serving.queue import QUERY_KINDS, build_requests
from repro.serving.scoring import BatchScorer
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


class _KeyRecord:
    """Router-side ingest state of one session key.

    ``blocks`` are the accepted but not yet flushed ``(n, d)`` blocks —
    the record's own copies, never a caller's array — and ``pending``
    their row count; ``acked`` is the session's row count as acknowledged
    to clients, buffered rows included.  One record per key keeps the
    per-row bookkeeping to one dict lookup.
    """

    __slots__ = ("blocks", "pending", "acked")

    def __init__(self) -> None:
        self.blocks: List[np.ndarray] = []
        self.pending = 0
        self.acked = 0


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
        :func:`~repro.experiments.parallel.resolve_n_jobs`.
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
        self.counters = ServiceCounters()
        self.scorer = BatchScorer(self.counters)
        # Ingest-side shared state below is mutated by whichever thread
        # calls ingest/flush/drop (protocol loops, load generators, tests
        # with client pools), so every mutation holds this lock — worker
        # folds happen under it too, which serialises router-side ingest
        # but keeps drain + apply atomic per key (reprolint RPL007 pins
        # the discipline).
        self._ingest_lock = threading.Lock()
        # per-key buffered blocks and acknowledged row count
        self._records: Dict[str, _KeyRecord] = {}
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

        Rows below ``flush_rows`` are buffered (as a copy, so the caller
        may reuse its array) and folded into the owning worker as one
        stacked block later (next threshold crossing or read barrier) —
        numerically a Chan block merge instead of per-row Welford updates,
        within the 1e-10 serving bound.  A block that alone reaches
        ``flush_rows`` with nothing buffered for its key goes to the worker
        as sent, so at ``flush_rows=1`` a 1-D row keeps the Welford path
        (and an empty block is refused at once).  A block that is neither a vector nor a matrix raises
        :class:`~repro.exceptions.DimensionError` here; row values are
        validated when their buffer flushes.
        """
        key = str(key)
        arr = np.asarray(samples, dtype=float)
        rows = block_rows(arr)
        self.counters.record_ingest(rows)
        with self._ingest_lock:
            record = self._record_locked(key)
            record.acked += rows
            record.pending += rows
            if 0 < record.pending < self.flush_rows:
                # buffered past this call: a copy, never the caller's array
                record.blocks.append(np.array(arr, ndmin=2))
            else:
                # a lone block goes to the worker as sent
                record.blocks.append(arr[None, :] if record.blocks and arr.ndim == 1 else arr)
                self._flush_key_locked(key, barrier=False)
            return record.acked

    def ingest_stats(self, key: str, stats: SufficientStats) -> int:
        """Merge pre-accumulated statistics into the owning worker.

        Statistics merge exactly in any order, so these bypass the row
        buffer (flushing the key first keeps arrival order intact).
        Non-finite statistics are refused before anything is counted.
        """
        key = str(key)
        self.counters.record_ingest(stats_rows(stats))
        with self._ingest_lock:
            self._flush_key_locked(key, barrier=True)
            self._home(key).ingest_stats(key, stats)
            record = self._record_locked(key)
            record.acked += stats.n
            return record.acked

    def _record_locked(self, key: str) -> _KeyRecord:
        """``key``'s ingest record, created empty on first use (lock held)."""
        record = self._records.get(key)
        if record is None:
            record = self._records[key] = _KeyRecord()
        return record

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
        """Fold ``key``'s buffered blocks into its worker (lock held).

        ``barrier`` marks a flush forced before the row threshold (a read
        or ordering barrier), which the coalescing gauges count apart.  A
        lone buffered block goes over as it is.  A block the worker refuses
        is dropped, and its rows leave the acknowledged count again.
        """
        record = self._records.get(key)
        if record is None or not record.blocks:
            return
        blocks, rows = record.blocks, record.pending
        record.blocks, record.pending = [], 0
        self._flushed_blocks += 1
        self._flushed_rows += rows
        self._barrier_blocks += int(barrier)
        try:
            stacked = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
            self._home(key).ingest(key, stacked)
        except (ReproError, ValueError):
            record.acked -= rows
            raise

    def flush(self) -> None:
        """Flush every ingest buffer (deterministic key order)."""
        with self._ingest_lock:
            pending = [key for key, record in self._records.items() if record.blocks]
            for key in sorted(pending):
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
    # queries
    # ------------------------------------------------------------------
    def _snapshot(self, key: str) -> Session:
        """Session snapshot for scoring, collected from the key's home shard."""
        return self._home(key).collect(key)

    def query_many(self, queries: Sequence[Tuple[str, str, Any]]) -> List[Any]:
        """Score ``(kind, key, payload)`` queries as one batch.

        The buffers of the queried keys are flushed first
        (read-your-writes, :meth:`flush_keys`); other keys keep their
        buffers.  The router then collects each key's session from its
        home shard and scores through the shared grouped scorer.
        Single-shard mode delegates to the worker so counters land
        exactly where a bare worker puts them.
        """
        self.flush_keys(key for _, key, _ in queries)
        if self.ring.n_shards == 1:
            return self.workers[0].query_many(queries)
        requests = build_requests(queries, self.counters.record_request)
        self.scorer.score(requests, self._snapshot)
        return [request.future.result() for request in requests]

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
        """Router counters plus per-shard snapshots and fleet totals.

        ``stats`` is a global barrier: it flushes every buffer before the
        shards are read.  ``coalescing`` reports what was still buffered
        when the call arrived (``pending_keys``/``pending_rows``), the
        blocks and rows handed to workers so far, and how many of those
        blocks a barrier forced out before ``flush_rows`` accumulated.
        """
        with self._ingest_lock:
            pending = [record.pending for record in self._records.values() if record.blocks]
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
            "placement": PLACEMENT,
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
        n_jobs: Optional[int] = 1,
    ) -> "ShardedMomentService":
        """Rebuild a sharded service from a manifest directory.

        Each shard restores from its (self-verifying) checkpoint; when
        ``wal_dir`` is given, each shard's log is recovered in one pass
        (torn tails dropped, chains verified) that applies only the
        records past the checkpoint's covered offset — the tail, not the
        whole history.  Group commit resumes with the log's defaults
        unless ``wal_flush_records``/``wal_flush_bytes`` override them.
        A manifest of any placement but ``"hash"`` raises
        :class:`~repro.exceptions.ConfigError`; a restored key off its
        ring home raises :class:`~repro.exceptions.WalCorruptionError`.
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
        if manifest.get("placement") != PLACEMENT:
            raise ConfigError(
                f"{target} was written with placement "
                f"{manifest.get('placement')!r}; only {PLACEMENT!r} is supported"
            )
        service = cls(
            n_shards=int(manifest["n_shards"]),
            flush_rows=flush_rows,
            wal_dir=None,
            virtual_nodes=int(manifest["virtual_nodes"]),
            n_jobs=n_jobs,
        )
        sources: List[Path] = []
        with _closing_on_error(service):
            for shard, entry in enumerate(manifest["shards"]):
                checkpoint = target / str(entry["file"])
                wal_path = None
                if wal_dir is not None and entry.get("wal") is not None:
                    wal_path = Path(wal_dir) / str(entry["wal"]["file"])
                if wal_path is not None and wal_path.exists():
                    worker = ShardWorker._recover(
                        wal_path,
                        checkpoint,
                        shard_id=shard,
                        flush_records=wal_flush_records,
                        flush_bytes=wal_flush_bytes,
                    )
                    sources.append(wal_path)
                else:
                    worker = ShardWorker.restore(checkpoint, shard_id=shard)
                    sources.append(checkpoint)
                service.workers[shard] = worker
            # WAL tails may have advanced the workers past the manifest's
            # counters; reconcile rather than loading the stale snapshot.
            service._reconcile_counters(base=manifest["counters"])
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
            # Router counters are not logged anywhere; the shard sums are
            # the best WAL-only reconstruction (exact in single-shard mode,
            # which routes requests through the worker; multi-shard request
            # kinds are router-only state and restart from the replayed
            # touches).
            service._reconcile_counters()
            service._seed_records([directory / name for name in expected])
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
