"""Shard worker: one session-store slice + write-ahead log + batch scorer.

A :class:`ShardWorker` is the unit the sharded serving stack replicates:
it owns one :class:`~repro.serving.sessions.SessionStore` slice, its own
:class:`~repro.serving.counters.ServiceCounters`, a
:class:`~repro.serving.scoring.BatchScorer`, and (optionally) a
:class:`~repro.serving.wal.WriteAheadLog`.  A worker on its own is the
single-process service, behind single-file checkpoints (``repro serve``
without shard flags, ``repro ingest``, ``repro query``); the shard router
owns N of them behind a manifest directory.

**Log-then-apply.**  Every state mutation — session create/drop, ingest,
statistics merge, and the logical-clock ticks queries cause ("touch"
records) — is appended to the WAL *before* it is applied to the store.
Because the store's eviction clock is logical (one tick per store
operation) and every numerical update is a deterministic function of the
op sequence, :meth:`ShardWorker.replay` of a verified log reproduces the
shard's ``state_dict`` **bit-identically**: same statistics, same LRU
order, same eviction decisions, same ingest counters.  Failed operations
are part of that contract: a lookup of a missing key ticks the clock and
*then* raises, so replay applies each record and swallows
:class:`~repro.exceptions.ReproError` — the tick is reproduced, the error
is not re-raised.  ``touch`` records carry one key per request in
submission order (duplicates included) because the scorer re-attempts a
failed snapshot on every later request naming that key, ticking the
clock each time; replay reproduces exactly that attempt pattern.

Two pieces of live state are deliberately **not** replayed: the error
counter (scoring errors depend on request payloads the WAL does not
carry) and the latency ring (it measures the process, not the logical
state).  Both are excluded from — or constant in — checkpoint state for
error-free streams, which is what the sha-identity recovery tests pin.

**Checkpoint / WAL interplay.**  ``state_dict`` of a WAL-attached worker
records the log sequence number it covers; :meth:`restore` replays only
records *after* that offset, and :meth:`compact` truncates the replayed
prefix once a checkpoint covers it (crash between checkpoint and
truncation just replays a little more — replay is idempotent from a
covered checkpoint).  Cold recovery from a log file is one pass: each
record is applied as :meth:`WriteAheadLog.open` verifies it, never re-read.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike

from repro.core.prior import PriorKnowledge
from repro.exceptions import ConfigError, ReproError, SessionNotFoundError, WalCorruptionError
from repro.serving.checkpoint import load_checkpoint, save_checkpoint
from repro.serving.counters import ServiceCounters
from repro.serving.queue import Request, build_requests
from repro.serving.scoring import BatchScorer
from repro.serving.sessions import Session, SessionStore, block_rows, stats_rows
from repro.serving.wal import WalRecord, WriteAheadLog
from repro.stats.suffstats import SufficientStats

__all__ = ["ShardWorker"]


class ShardWorker:
    """One shard of the serving state: store + counters + scorer (+ WAL).

    Parameters
    ----------
    shard_id:
        Stable identity of this slice (also stamped into its WAL header).
    max_sessions, ttl_ops:
        Store bounds, per shard (see
        :class:`~repro.serving.sessions.SessionStore`).
    wal:
        Optional write-ahead log this worker appends to before every
        mutation.  ``None`` (the default) keeps the checkpoint free of
        WAL offsets, byte-identical to the shard file of a WAL-less
        one-shard router.  An attached log without an observer gets this
        worker's counters as its observer, so WAL append/flush gauges
        surface through :meth:`stats`.
    """

    #: Version tag stored inside checkpoint state.
    STATE_VERSION = 1

    def __init__(
        self,
        shard_id: int = 0,
        max_sessions: int = 1024,
        ttl_ops: Optional[int] = None,
        wal: Optional[WriteAheadLog] = None,
    ) -> None:
        self.shard_id = int(shard_id)
        self.store = SessionStore(max_sessions=max_sessions, ttl_ops=ttl_ops)
        self.counters = ServiceCounters()
        self.wal: Optional[WriteAheadLog] = None
        if wal is not None:
            self._attach_wal(wal)
        self.scorer = BatchScorer(self.counters)

    def _attach_wal(self, wal: WriteAheadLog) -> None:
        self.wal = wal
        if wal.observer is None:
            wal.observer = self.counters

    # ------------------------------------------------------------------
    # session lifecycle + ingest (log-then-apply)
    # ------------------------------------------------------------------
    def create_session(
        self,
        key: str,
        prior: PriorKnowledge,
        kappa0: Optional[float] = None,
        v0: Optional[float] = None,
        exist_ok: bool = False,
    ) -> Session:
        """Register a population with its early-stage prior.

        ``(kappa0, v0)`` default to the weakly-informative corner
        ``(1, d + 1)``; the *resolved* values are what the WAL records, so
        replay does not depend on default-resolution code paths.
        """
        k0 = 1.0 if kappa0 is None else float(kappa0)
        nu0 = float(prior.dim) + 1.0 if v0 is None else float(v0)
        if self.wal is not None:
            self.wal.append(
                "create",
                {
                    "key": str(key),
                    "prior_mean": prior.mean,
                    "prior_covariance": prior.covariance,
                    "prior_n_samples": int(prior.n_samples),
                    "kappa0": k0,
                    "v0": nu0,
                    "exist_ok": bool(exist_ok),
                },
            )
        return self.store.create(key, prior, k0, nu0, exist_ok=exist_ok)

    def ingest(self, key: str, samples: ArrayLike) -> int:
        """Fold late-stage samples into a session; returns its new total.

        ``samples`` is one ``d``-vector or an ``(n, d)`` block with
        ``n >= 1``; any other shape raises
        :class:`~repro.exceptions.DimensionError` before anything is
        logged.  A vector is logged raw and replays down the Welford
        single-sample path.  A block is reduced to
        ``SufficientStats.from_samples(block)`` once, logged as that
        ``ingest_stats`` record (``d + d^2`` floats instead of ``n d``) and
        merged through :meth:`ingest_stats`'s path — the Chan block merge
        a raw block takes, so the state is bit-identical.  A block
        ``from_samples`` refuses (non-finite, an overflowing scatter, no
        rows) raises before it is logged, ticked or counted.
        """
        arr = np.asarray(samples, dtype=float)
        if arr.ndim == 2:
            return self._merge_stats(key, SufficientStats.from_samples(arr))
        count = block_rows(arr)
        if self.wal is not None:
            self.wal.append("ingest", {"key": str(key), "samples": arr})
        total = self.store.ingest(key, arr)
        self.counters.record_ingest(count)
        return total

    def ingest_stats(self, key: str, stats: SufficientStats) -> int:
        """Merge shard-local sufficient statistics (tester-side accumulation).

        Logged as ``O(d^2)`` statistics, not samples.  Merging
        ``SufficientStats.from_samples(block)`` is the same store
        transition as ingesting the 2-D ``block`` (one clock tick, one
        Chan merge of identical statistics), so the two leave
        bit-identical state; :meth:`ingest` of a block is this call.
        Non-finite statistics are refused before they are logged.
        """
        stats_rows(stats)
        return self._merge_stats(key, stats)

    def _merge_stats(self, key: str, stats: SufficientStats) -> int:
        """Log ``stats`` as an ``ingest_stats`` record, then merge and count it."""
        if self.wal is not None:
            self.wal.append(
                "ingest_stats", {"key": str(key), "stats": stats.to_payload()}
            )
        total = self.store.ingest_stats(key, stats)
        self.counters.record_ingest(stats.n)
        return total

    def drop_session(self, key: str) -> bool:
        """Remove a session explicitly; returns whether it existed."""
        if self.wal is not None:
            self.wal.append("drop", {"key": str(key)})
        return self.store.drop(key)

    def session_keys(self) -> List[str]:
        """Live session keys, sorted (no clock tick; read-only listing)."""
        return self.store.keys()

    def row_count(self, key: str) -> int:
        """``key``'s row count as an ingest ack states it (no clock tick)."""
        return self.store.row_count(str(key))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _snapshot_one(self, key: str) -> Session:
        return self.store.snapshot([key])[0]

    def _log_touch(self, keys: Sequence[str], kinds: Dict[str, int]) -> None:
        """Record the clock ticks (and request counts) a query batch causes.

        ``keys`` is the session key of every request in submission order
        (duplicates included).  The scorer snapshots a key once per batch
        *on success* but re-attempts on every later request naming a key
        whose snapshot failed — and each attempt ticks the store clock.
        Logging the full request-key sequence lets replay reproduce that
        attempt pattern exactly (see :meth:`apply_record`), which a
        deduplicated key list cannot.
        """
        if self.wal is not None:
            self.wal.append("touch", {"keys": list(keys), "kinds": kinds})

    def score_requests(self, requests: List[Request]) -> None:
        """Score a batch of requests through the grouped scorer.

        Request-rate accounting happened at submission; with a WAL
        attached, one ``touch`` record captures both the per-key clock
        ticks and the submission-time kind counts so replay reproduces
        the counters.
        """
        if self.wal is not None:
            kinds: Dict[str, int] = {}
            for request in requests:
                kinds[request.kind] = kinds.get(request.kind, 0) + 1
            self._log_touch([request.key for request in requests], kinds)
        self.scorer.score(requests, self._snapshot_one)

    def query_many(self, queries: Sequence[Tuple[str, str, Any]]) -> List[Any]:
        """Score a list of ``(kind, key, payload)`` queries in one batch.

        Kinds are validated and counted in submission order, then the
        whole list is scored as one grouped batch.  Raises the first
        request error encountered, in submission order.
        """
        requests = build_requests(queries, self.counters.record_request)
        self.score_requests(requests)
        return [request.future.result() for request in requests]

    def collect(self, key: str) -> Session:
        """Return a detached session snapshot for the router to score.

        The router reads each key from its home shard and scores the
        snapshot itself; this worker only pays one clock tick (logged as
        a ``touch`` so replay reproduces it) and one O(d^2) copy.  Raises
        :class:`~repro.exceptions.SessionNotFoundError` if the key does
        not live here — after ticking, like any store lookup.
        """
        self._log_touch([str(key)], {})
        return self._snapshot_one(key)

    # ------------------------------------------------------------------
    # WAL replay
    # ------------------------------------------------------------------
    def apply_record(self, op: str, payload: Dict[str, Any]) -> None:
        """Re-apply one WAL record to the live state.

        Mutations that raised when first applied raise identically here
        *after* producing their clock ticks; callers (``replay``) swallow
        the re-raise, which is how failed ops stay part of the replayed
        history.  ``touch`` records handle failures internally instead:
        one record covers many per-key lookups, and a key that fails must
        not rob the keys after it of their ticks.
        """
        if op == "create":
            prior = PriorKnowledge.shared(
                payload["prior_mean"],
                payload["prior_covariance"],
                int(payload["prior_n_samples"]),
            )
            self.store.create(
                str(payload["key"]),
                prior,
                float(payload["kappa0"]),
                float(payload["v0"]),
                exist_ok=bool(payload["exist_ok"]),
            )
        elif op == "ingest":
            arr = np.asarray(payload["samples"], dtype=float)
            count = 1 if arr.ndim == 1 else arr.shape[0]
            self.store.ingest(str(payload["key"]), arr)
            self.counters.record_ingest(count)
        elif op == "ingest_stats":
            stats = SufficientStats.from_dict(payload["stats"])
            self.store.ingest_stats(str(payload["key"]), stats)
            self.counters.record_ingest(stats.n)
        elif op == "drop":
            self.store.drop(str(payload["key"]))
        elif op == "touch":
            self.counters.record_requests(
                {str(k): int(v) for k, v in payload["kinds"].items()}
            )
            # Mirror the scorer's snapshot loop: one attempt per request
            # key until the key succeeds, then it is cached for the rest
            # of the batch.  A failed lookup ticked the clock before
            # raising, so the tick is kept and the key stays eligible for
            # re-attempts — aborting here would starve the remaining keys
            # of their ticks.
            snapshotted = set()
            for raw_key in payload["keys"]:
                key = str(raw_key)
                if key in snapshotted:
                    continue
                try:
                    self.store.get(key)
                except ReproError:
                    continue
                snapshotted.add(key)
        else:
            raise ConfigError(f"unknown WAL op {op!r}")

    def _apply_replayed(self, record: WalRecord) -> None:
        """Apply one logged record; its :class:`ReproError` is the replay."""
        try:
            self.apply_record(record[1], record[2])
        except ReproError:
            pass

    def replay(self, records: "Union[WriteAheadLog, Iterable[WalRecord]]") -> int:
        """Re-apply a record stream; returns the number of records applied.

        Accepts a :class:`WriteAheadLog` (replays everything after its
        ``base_seq``, re-read from disk) or any ``(seq, op, payload)``
        iterable.  :class:`~repro.exceptions.ReproError` raised by an
        individual record is swallowed — the original operation failed
        the same way after mutating the clock, so the failure *is* the
        correct replay.  Cold recovery does not come through here: it
        applies each record while :meth:`WriteAheadLog.open` verifies it
        (see :meth:`_recover`).
        """
        stream = records.records() if isinstance(records, WriteAheadLog) else records
        applied = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for record in stream:
                self._apply_replayed(record)
                applied += 1
        return applied

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Counter snapshot plus store and WAL gauges."""
        out = self.counters.snapshot()
        out["shard_id"] = self.shard_id
        out["sessions_live"] = len(self.store)
        out["sessions_evicted"] = self.store.evictions
        out["store_clock"] = self.store.clock
        if self.wal is not None:
            out["wal"] = {
                "path": str(self.wal.path),
                "base_seq": self.wal.base_seq,
                "last_seq": self.wal.last_seq,
                "records_appended": self.wal.records_appended,
                "bytes_written": self.wal.bytes_written,
                "flush_count": self.wal.flush_count,
                "pending_records": self.wal.pending_records,
                "recovered_records": self.wal.recovered_records,
                "dropped_bytes": self.wal.dropped_bytes,
            }
        return out

    # ------------------------------------------------------------------
    # checkpoint / restore / compaction
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Exact JSON-safe shard state.

        Without a WAL this is the plain single-file checkpoint layout;
        with one, a ``wal`` entry records
        the log offset the state covers (every op up to and including
        ``seq`` is reflected — appends are synchronous log-then-apply).
        """
        state: Dict[str, Any] = {
            "state_version": self.STATE_VERSION,
            "store": self.store.to_dict(),
            "counters": self.counters.state_dict(),
        }
        if self.wal is not None:
            state["wal"] = {"seq": self.wal.last_seq}
        return state

    def checkpoint(self, path: Any) -> str:
        """Atomically snapshot this shard's state; returns the sha256.

        The WAL is fsync'd first so the covered offset the checkpoint
        records is durable before the checkpoint that claims it.
        """
        if self.wal is not None:
            self.wal.sync()
        return save_checkpoint(self.state_dict(), path)

    @classmethod
    def _from_checkpoint(cls, path: Any, shard_id: int) -> Tuple["ShardWorker", Optional[int]]:
        """A log-less worker loaded from a checkpoint, and the WAL seq the
        checkpoint covers (``None`` when it was taken without a log)."""
        state = load_checkpoint(path)
        version = state.get("state_version")
        if version != cls.STATE_VERSION:
            raise ConfigError(
                f"checkpoint state_version {version!r} is not supported "
                f"(expected {cls.STATE_VERSION})"
            )
        worker = cls(shard_id=shard_id)
        try:
            worker.store = SessionStore.from_dict(state["store"])
            worker.counters.load_state_dict(state["counters"])
        except KeyError as exc:
            raise ConfigError(f"checkpoint state missing field {exc}") from exc
        covered = state.get("wal", {}).get("seq")
        return worker, None if covered is None else int(covered)

    @classmethod
    def restore(
        cls,
        path: Any,
        shard_id: int = 0,
        wal: Optional[WriteAheadLog] = None,
    ) -> "ShardWorker":
        """Rebuild a shard from a checkpoint, replaying only the WAL tail.

        The checkpoint restores bit-identically on its own; when an open
        WAL is supplied, records with ``seq`` beyond the checkpoint's
        covered offset are streamed from it and replayed on top,
        recovering everything acknowledged after the snapshot.  (The
        router and ``repro replay`` restore from a log *path* instead,
        through :meth:`_recover`, which verifies the log only once.)
        """
        worker, covered = cls._from_checkpoint(path, shard_id)
        if wal is not None:
            worker._attach_wal(wal)
            worker.replay(wal.records(after=covered))
        return worker

    @classmethod
    def _recover(
        cls,
        wal_path: Any,
        checkpoint: Optional[Any] = None,
        shard_id: Optional[int] = None,
        max_sessions: int = 1024,
        ttl_ops: Optional[int] = None,
        flush_records: Optional[int] = None,
        flush_bytes: Optional[int] = None,
    ) -> "ShardWorker":
        """One-pass recovery of a shard from its log (and a checkpoint).

        Internal to the serving stack and ``repro replay``.  The log at
        ``wal_path`` is opened with this worker's apply step as its record
        hook, so every record is verified, decoded and applied once, in
        file order, with nothing re-read or listed.  With a
        ``checkpoint``, the covered prefix is verified but only records
        past it are applied, and the store bounds come from the
        checkpoint (``max_sessions``/``ttl_ops`` are ignored).  Mid-chain
        corruption raises :class:`~repro.exceptions.WalCorruptionError`
        from ``open`` and the half-built worker is dropped; so does a log
        whose header names another shard than ``shard_id`` (``None``
        takes the shard id from the header).
        """
        if checkpoint is None:
            worker = cls(0, max_sessions, ttl_ops)
            covered = None
        else:
            worker, covered = cls._from_checkpoint(checkpoint, 0)

        def apply(record: WalRecord) -> None:
            if covered is None or record[0] > covered:
                worker._apply_replayed(record)

        # a logged update whose scatter overflows is refused again on
        # replay; its overflow is that refusal, not a warning to print
        with np.errstate(over="ignore", invalid="ignore"):
            wal = WriteAheadLog.open(
                wal_path,
                flush_records=flush_records,
                flush_bytes=flush_bytes,
                _on_record=apply,
            )
        if shard_id is not None and wal.shard_id != shard_id:
            wal.close()
            raise WalCorruptionError(
                f"WAL {wal_path} belongs to shard {wal.shard_id}, not shard {shard_id}"
            )
        worker.shard_id = wal.shard_id
        worker._attach_wal(wal)
        return worker

    def compact(self, path: Any) -> str:
        """Checkpoint, then truncate the WAL prefix the checkpoint covers.

        Returns the checkpoint sha256.  Crash-ordering is safe in both
        directions: a crash *before* truncation leaves the full log, and
        restore skips the covered prefix by sequence number; a crash
        *after* truncation leaves a log whose ``base_seq`` equals the
        checkpoint's covered offset, so restore replays nothing extra.
        """
        covered = self.wal.last_seq if self.wal is not None else 0
        digest = self.checkpoint(path)
        if self.wal is not None:
            self.wal.truncate_through(covered)
        return digest

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the attached WAL, if any (idempotent)."""
        if self.wal is not None:
            self.wal.close()

    def __enter__(self) -> "ShardWorker":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
