"""Per-shard write-ahead ingest log: append-only, sha256-chained, replayable.

Every state mutation a shard worker performs (session create/drop, sample
ingest, statistics merge, and the logical-clock ticks queries cause) is
appended here *before* it is applied.  A log file (``repro.serving-wal.v2``)
starts with the magic line ``#repro.serving-wal.v2\\n`` followed by
length-prefixed binary frames::

    frame  := u32le(len(body) + 32) | body | sha256_digest(32 bytes)
    body   := u32le(len(meta)) | meta | array bytes
    meta   := canonical JSON {"op", "payload", "seq"}

``float64`` arrays inside the payload (sample rows, prior moments,
``SufficientStats`` buffers) are replaced in ``meta`` by shape-prefixed
descriptors ``{"__f64nd__": {"shape": [...], "offset": N}}`` and their raw
little-endian bytes appended to the body — no ``tolist`` / ``repr`` /
re-parse on either side of the hot path.  The first frame is the header
(its digest seeds the chain); every record's digest is
``sha256(prev_digest + body)``.  Replaying a verified log reproduces the
shard's state **bit-identically**, and any silent mid-file edit breaks the
chain.

The retired JSON-lines format (``repro.serving-wal.v1``) is refused on
:meth:`WriteAheadLog.open` with a migration hint: recover such a log with a
build at or before commit 3d05b70 (``repro replay <wal> --out shard.ckpt``)
and restart from the checkpoint.

**Group commit.**  Appends land in a bounded in-memory write buffer and are
written + flushed to the OS page cache as one block once ``flush_records``
records (default :data:`DEFAULT_FLUSH_RECORDS`) or ``flush_bytes`` bytes
(default :data:`DEFAULT_FLUSH_BYTES`) accumulate.  :meth:`flush` drains the
buffer explicitly; :meth:`sync` drains it *and* fsyncs — the durability
barrier :meth:`~repro.serving.worker.ShardWorker.checkpoint` takes before
claiming a covered offset.  Reads (:meth:`records`, :meth:`verify`,
compaction) drain the buffer first, so a log never disagrees with itself.
A SIGKILL can lose the still-buffered suffix of a group — those records
were never group-acknowledged — but recovery keeps every record of the
*flushed* prefix plus any complete frames of a torn group write.

Crash semantics distinguish two failure shapes:

* **Torn tail** — the process died mid-``write`` and the file ends with an
  incomplete frame or one whose hash fails.  That is the expected crash
  artefact; recovery drops the tail, truncates the file back to the
  verified prefix, and counts the bytes it dropped
  (:attr:`WriteAheadLog.dropped_bytes`).  (Structural damage to a length
  prefix is indistinguishable from a torn tail; recovery conservatively
  truncates, and the hash chain still guarantees the kept prefix is
  exactly what was written.)
* **Mid-chain corruption** — a frame *before* the last fails its hash or
  sequence check, or an open log ends before its last acknowledged
  record.  No crash produces that; it means the file was edited or the
  disk lied, and :class:`~repro.exceptions.WalCorruptionError` is raised
  rather than guessing.

Rotation (:meth:`truncate_through`) is atomic and durable via the tmp +
fsync + ``os.replace`` + directory-fsync pattern shared with
:mod:`repro.serving.checkpoint`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import threading
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, Union

import numpy as np

from repro.exceptions import ConfigError, WalCorruptionError
from repro.schemas import (
    WAL2_MAGIC,
    WAL_SCHEMA_V1,
    WAL_SCHEMA_V2,
    canonical_json,
    fsync_dir,
    parse_json,
)

__all__ = [
    "WAL_SCHEMA_V2",
    "WAL_OPS",
    "WAL2_MAGIC",
    "DEFAULT_FLUSH_RECORDS",
    "DEFAULT_FLUSH_BYTES",
    "WalRecord",
    "WriteAheadLog",
]

#: The closed set of replayable operations.
WAL_OPS = ("create", "ingest", "ingest_stats", "drop", "touch")

#: One verified log entry: ``(seq, op, payload)``.
WalRecord = Tuple[int, str, Dict[str, Any]]

#: Default record bound of the group-commit buffer.
DEFAULT_FLUSH_RECORDS = 64

#: Default byte bound of the group-commit buffer.
DEFAULT_FLUSH_BYTES = 1 << 18

PathLike = Union[str, Path]

_DIGEST_SIZE = 32
_U32 = struct.Struct("<I")
_ND_KEY = "__f64nd__"
_LE_F8 = np.dtype("<f8")
#: Payload values the encoder walks into; every other value is kept as is.
_ENCODE_NESTED = (np.ndarray, dict, list, tuple)


# ---------------------------------------------------------------------------
# payload codec
# ---------------------------------------------------------------------------
def _strip_arrays(value: Any, region: bytearray) -> Any:
    """Encode a payload: replace ndarrays with shape+offset descriptors.

    The raw little-endian float64 bytes are appended to ``region`` in
    traversal order; offsets are explicit so decode order is free.  Only
    arrays and containers are walked: scalars and strings stay in place
    without a call each.
    """
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value, dtype=_LE_F8)
        descriptor = {_ND_KEY: {"offset": len(region), "shape": list(arr.shape)}}
        region += memoryview(arr)
        return descriptor
    if isinstance(value, dict):
        return {
            str(key): (
                _strip_arrays(item, region)
                if isinstance(item, _ENCODE_NESTED)
                else item
            )
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [
            _strip_arrays(item, region)
            if isinstance(item, _ENCODE_NESTED)
            else item
            for item in value
        ]
    return value


def _bind_array(descriptor: Any, region: bytes) -> np.ndarray:
    """The owned ``float64`` array one descriptor points at in ``region``."""
    if not isinstance(descriptor, dict):
        raise ValueError("malformed array descriptor")
    shape = tuple(map(int, descriptor["shape"]))
    offset = int(descriptor["offset"])
    if shape and min(shape) < 0:
        raise ValueError("negative array extent")
    if offset < 0 or offset + 8 * math.prod(shape) > len(region):
        raise ValueError("array descriptor exceeds the payload region")
    # a read-only view of the region, then one owned float64 copy
    return np.ndarray(shape, _LE_F8, region, offset).astype(float)


def _bind_arrays(value: Any, region: bytes) -> Any:
    """Decode a payload: materialise array descriptors from the byte region.

    The freshly decoded containers are nobody else's, so each descriptor
    is replaced in place, in its parent, and the containers are returned,
    not rebuilt; a ``value`` that is itself a descriptor comes back as its
    array.  Decoded JSON nests only in objects and arrays, so only
    ``dict`` and ``list`` values are walked.
    """
    if isinstance(value, dict):
        if len(value) == 1 and _ND_KEY in value:
            return _bind_array(value[_ND_KEY], region)
        items: Any = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return value
    for key, item in items:
        if isinstance(item, dict):
            if len(item) == 1 and _ND_KEY in item:
                # replaces a value: the dict keeps its size mid-iteration
                value[key] = _bind_array(item[_ND_KEY], region)
            else:
                _bind_arrays(item, region)
        elif isinstance(item, list):
            _bind_arrays(item, region)
    return value


# ---------------------------------------------------------------------------
# frame codec
# ---------------------------------------------------------------------------
def _seal(prev_digest: bytes, body: bytes) -> Tuple[bytes, bytes]:
    """Frame ``body`` onto the chain; returns ``(frame, digest)``."""
    digest = hashlib.sha256(prev_digest + body).digest()
    return _U32.pack(len(body) + _DIGEST_SIZE) + body + digest, digest


def _header_frame(shard_id: int, base_seq: int) -> Tuple[bytes, bytes]:
    header = {
        "base_seq": int(base_seq),
        "schema": WAL_SCHEMA_V2,
        "schema_version": 2,
        "shard": int(shard_id),
    }
    return _seal(b"", canonical_json(header).encode("utf-8"))


def _record_frame(
    prev_digest: bytes, seq: int, op: str, payload: Dict[str, Any]
) -> Tuple[bytes, bytes]:
    region = bytearray()
    meta_payload = _strip_arrays(payload, region)
    meta = canonical_json(
        {"op": op, "payload": meta_payload, "seq": int(seq)}
    ).encode("utf-8")
    return _seal(prev_digest, _U32.pack(len(meta)) + meta + region)


def _frame_at(data: bytes, pos: int) -> Optional[Tuple[bytes, bytes, int]]:
    """``(body, digest, frame_end)`` of the frame starting at ``pos``.

    ``None`` when the stream ends inside the frame — the shape a killed
    group write leaves behind.
    """
    total = len(data)
    if total - pos < _U32.size:
        return None
    (length,) = _U32.unpack_from(data, pos)
    end = pos + _U32.size + length
    if length < _DIGEST_SIZE or end > total:
        return None
    return data[pos + _U32.size : end - _DIGEST_SIZE], data[end - _DIGEST_SIZE : end], end


def _verify_frame(
    body: bytes, digest: bytes, prev_digest: bytes, expect_seq: int
) -> WalRecord:
    """Check one structurally complete frame; raise ``ValueError``."""
    if hashlib.sha256(prev_digest + body).digest() != digest:
        raise ValueError(f"sha mismatch on record {expect_seq}")
    if len(body) < _U32.size:
        raise ValueError("frame body too short for a meta length")
    (meta_len,) = _U32.unpack_from(body)
    if _U32.size + meta_len > len(body):
        raise ValueError("frame meta length exceeds the body")
    try:
        meta = parse_json(body[_U32.size : _U32.size + meta_len].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ValueError(f"unreadable frame meta: {exc}") from exc
    if not isinstance(meta, dict) or set(meta) != {"op", "payload", "seq"}:
        raise ValueError("malformed frame meta")
    seq = meta["seq"]
    if not isinstance(seq, int) or seq != expect_seq:
        raise ValueError(f"sequence gap: got seq {seq!r}, expected {expect_seq}")
    op = meta["op"]
    if op not in WAL_OPS:
        raise ValueError(f"unknown WAL op {op!r}")
    payload = _bind_arrays(meta["payload"], body[_U32.size + meta_len :])
    if not isinstance(payload, dict):
        raise ValueError("WAL payload must be an object")
    return int(seq), str(op), payload


def _parse_header(target: Path, raw: bytes) -> Tuple[int, int, bytes, int]:
    """Verify the magic + header frame; returns (shard, base_seq, digest, end)."""
    if not raw.startswith(WAL2_MAGIC):
        if not raw:
            raise WalCorruptionError(f"WAL file is empty: {target}")
        if WAL_SCHEMA_V1.encode("ascii") in raw.split(b"\n", 1)[0]:
            raise WalCorruptionError(
                f"WAL {target} uses the retired {WAL_SCHEMA_V1!r} JSON-lines "
                f"format; this build reads only {WAL_SCHEMA_V2!r}.  Recover it "
                "with a build at or before commit 3d05b70 (e.g. "
                "`repro replay <wal> --out shard.ckpt`) and restart from the "
                "checkpoint"
            )
        raise WalCorruptionError(
            f"WAL {target} does not start with the {WAL_SCHEMA_V2!r} magic"
        )
    frame = _frame_at(raw, len(WAL2_MAGIC))
    if frame is None:
        # create() fsyncs magic + header before returning, so an
        # incomplete header is not a crash artefact
        raise WalCorruptionError(f"WAL {target} has an incomplete header")
    body, digest, end = frame
    if hashlib.sha256(body).digest() != digest:
        raise WalCorruptionError(f"WAL {target} header fails hash check")
    try:
        header = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise WalCorruptionError(f"WAL {target} has unreadable header") from exc
    if not isinstance(header, dict) or header.get("schema") != WAL_SCHEMA_V2:
        raise WalCorruptionError(
            f"WAL {target} declares schema "
            f"{header.get('schema') if isinstance(header, dict) else None!r} "
            f"(expected {WAL_SCHEMA_V2!r})"
        )
    if header.get("schema_version") != 2:
        raise WalCorruptionError(
            f"WAL {target} declares schema_version {header.get('schema_version')!r} "
            "(this reader supports 2)"
        )
    try:
        return int(header["shard"]), int(header["base_seq"]), digest, end
    except (KeyError, TypeError, ValueError) as exc:
        raise WalCorruptionError(
            f"WAL {target} header missing shard/base_seq fields"
        ) from exc


class _ChainScan:
    """One verifying pass over a log file, in file order.

    :meth:`records` yields each verified ``(record, body)`` exactly once;
    afterwards ``last_seq`` / ``last_digest`` / ``good_bytes`` describe
    the verified prefix and :attr:`dropped_bytes` the torn tail behind it.
    This is the one place the crash policy lives: the scan *stops* at a
    torn tail (a structurally incomplete frame, or a final frame that
    fails verification) and *raises*
    :class:`~repro.exceptions.WalCorruptionError` for a frame that fails
    before the last one.
    """

    def __init__(self, target: Path) -> None:
        self.target = target
        self.raw = target.read_bytes()
        (
            self.shard_id,
            self.base_seq,
            self.last_digest,
            self.good_bytes,
        ) = _parse_header(target, self.raw)
        self.last_seq = self.base_seq

    @property
    def dropped_bytes(self) -> int:
        """Bytes past the verified prefix (the torn tail, if any)."""
        return len(self.raw) - self.good_bytes

    def records(self, through: Optional[int] = None) -> Iterator[Tuple[WalRecord, bytes]]:
        """Verify and yield frames until the tail, or until seq ``through``."""
        raw = self.raw
        while through is None or self.last_seq < through:
            pos = self.good_bytes
            frame = _frame_at(raw, pos)
            if frame is None:
                return  # end of file, or the torn suffix of a group write
            body, digest, end = frame
            try:
                record = _verify_frame(body, digest, self.last_digest, self.last_seq + 1)
            except ValueError as exc:
                if end >= len(raw):
                    return  # torn final frame: unacknowledged
                raise WalCorruptionError(
                    f"WAL {self.target} corrupt at offset {pos}: {exc}"
                ) from exc
            self.last_seq, self.last_digest, self.good_bytes = record[0], digest, end
            yield record, body


def _flush_bounds(
    flush_records: Optional[int], flush_bytes: Optional[int]
) -> Tuple[int, int]:
    """Resolve ``None`` to the group-commit defaults; refuse bounds below 1."""
    records = DEFAULT_FLUSH_RECORDS if flush_records is None else int(flush_records)
    n_bytes = DEFAULT_FLUSH_BYTES if flush_bytes is None else int(flush_bytes)
    if records < 1:
        raise ConfigError(f"wal_flush_records must be >= 1, got {flush_records}")
    if n_bytes < 1:
        raise ConfigError(f"wal_flush_bytes must be >= 1, got {flush_bytes}")
    return records, n_bytes


class WriteAheadLog:
    """An append-only, hash-chained, per-shard operation log.

    Use :meth:`create` for a fresh log and :meth:`open` to recover an
    existing one; the constructor is internal.  All methods are
    thread-safe (one writer lock), matching the shard worker's
    one-writer-many-readers discipline.

    Parameters (``create``/``open``)
    --------------------------------
    flush_records, flush_bytes:
        Group-commit bounds: buffered appends are written + flushed to
        the page cache once either is reached.  ``None`` means
        :data:`DEFAULT_FLUSH_RECORDS` / :data:`DEFAULT_FLUSH_BYTES`;
        ``flush_records=1`` flushes per record.  Bounds below 1 raise
        :class:`~repro.exceptions.ConfigError`.
    observer:
        Optional counters sink (duck-typed
        :class:`~repro.serving.counters.ServiceCounters`): gets
        ``record_wal_append(n_bytes)`` per append and
        ``record_wal_flush(n_bytes)`` per physical flush.
    """

    def __init__(
        self,
        path: Path,
        shard_id: int,
        base_seq: int,
        last_seq: int,
        last_digest: bytes,
        flush_records: int,
        flush_bytes: int,
        observer: Optional[Any] = None,
    ) -> None:
        self._path = path
        self._shard_id = int(shard_id)
        self._base_seq = int(base_seq)
        self._last_seq = int(last_seq)
        self._last_digest = last_digest
        self._flush_records = flush_records
        self._flush_bytes = flush_bytes
        self.observer = observer
        self._pending = bytearray()
        self._pending_records = 0
        #: Records appended through this handle (process lifetime).
        self.records_appended = 0
        #: Bytes physically written through this handle (process lifetime).
        self.bytes_written = 0
        #: Physical flushes issued by this handle (process lifetime).
        self.flush_count = 0
        #: Records the recovering :meth:`open` verified (0 for a new log).
        self.recovered_records = 0
        #: Torn-tail bytes the recovering :meth:`open` truncated away.
        self.dropped_bytes = 0
        self._lock = threading.Lock()
        self._handle = open(path, "ab")

    # ------------------------------------------------------------------
    # construction / recovery
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: PathLike,
        shard_id: int,
        base_seq: int = 0,
        flush_records: Optional[int] = None,
        flush_bytes: Optional[int] = None,
        observer: Optional[Any] = None,
    ) -> "WriteAheadLog":
        """Start a new log at ``path`` (must not already exist).

        The header and then the directory entry are fsync'd immediately —
        a log file either has a durable, verifiable root or it does not
        exist.
        """
        flush_records, flush_bytes = _flush_bounds(flush_records, flush_bytes)
        target = Path(path)
        frame, digest = _header_frame(shard_id, base_seq)
        try:
            with open(target, "xb") as handle:
                handle.write(WAL2_MAGIC + frame)
                handle.flush()
                os.fsync(handle.fileno())
        except FileExistsError as exc:
            raise WalCorruptionError(
                f"refusing to create WAL over existing file: {target}"
            ) from exc
        fsync_dir(target.parent)
        return cls(
            target,
            shard_id=shard_id,
            base_seq=base_seq,
            last_seq=base_seq,
            last_digest=digest,
            flush_records=flush_records,
            flush_bytes=flush_bytes,
            observer=observer,
        )

    @classmethod
    def open(
        cls,
        path: PathLike,
        flush_records: Optional[int] = None,
        flush_bytes: Optional[int] = None,
        observer: Optional[Any] = None,
        *,
        _on_record: Optional[Callable[[WalRecord], None]] = None,
    ) -> "WriteAheadLog":
        """Recover an existing log: verify the chain, drop a torn tail.

        One pass: each frame is hashed, decoded and checked once.  The
        handle records what that pass saw in :attr:`recovered_records`
        and :attr:`dropped_bytes`.

        Raises :class:`~repro.exceptions.WalCorruptionError` on anything a
        crash cannot produce — a missing magic (an empty file or a
        retired v1 log), a broken header, or a mid-chain hash/sequence
        failure.

        ``_on_record`` is internal: like ``observer``, it is a hook for
        the serving stack, not a user option.  Shard recovery
        (:class:`~repro.serving.worker.ShardWorker`) passes its apply
        step, which gets every ``(seq, op, payload)`` in file order as
        soon as it is verified, so replay needs no second read.  A
        mid-chain failure still raises after earlier records went to the
        hook; the caller must discard what it built.
        """
        flush_records, flush_bytes = _flush_bounds(flush_records, flush_bytes)
        target = Path(path)
        scan = _ChainScan(target)
        for record, _body in scan.records():
            if _on_record is not None:
                _on_record(record)
        if scan.dropped_bytes:
            with open(target, "r+b") as handle:
                handle.truncate(scan.good_bytes)
                handle.flush()
                os.fsync(handle.fileno())
        wal = cls(
            target,
            shard_id=scan.shard_id,
            base_seq=scan.base_seq,
            last_seq=scan.last_seq,
            last_digest=scan.last_digest,
            flush_records=flush_records,
            flush_bytes=flush_bytes,
            observer=observer,
        )
        wal.recovered_records = scan.last_seq - scan.base_seq
        wal.dropped_bytes = scan.dropped_bytes
        return wal

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        return self._path

    @property
    def shard_id(self) -> int:
        return self._shard_id

    @property
    def base_seq(self) -> int:
        """Sequence number the log starts *after* (covered by compaction)."""
        return self._base_seq

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest appended record."""
        return self._last_seq

    @property
    def pending_records(self) -> int:
        """Appended records still in the group-commit buffer (unflushed)."""
        with self._lock:
            return self._pending_records

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def append(self, op: str, payload: Dict[str, Any]) -> int:
        """Append one operation; returns its sequence number.

        ``payload`` values may be (nested) ``float64`` ndarrays, logged as
        raw buffers.  The encoded record enters the group-commit buffer;
        it reaches the OS page cache at the next bound crossing,
        :meth:`flush`, :meth:`sync`, read, or close.  With
        ``flush_records=1`` every append flushes, so a SIGKILL after
        ``append`` leaves the record replayable; at worst the final frame
        is torn, which recovery drops.
        """
        if op not in WAL_OPS:
            raise WalCorruptionError(f"unknown WAL op {op!r}")
        with self._lock:
            seq = self._last_seq + 1
            frame, self._last_digest = _record_frame(self._last_digest, seq, op, payload)
            self._pending += frame
            self._pending_records += 1
            self._last_seq = seq
            self.records_appended += 1
            if self.observer is not None:
                self.observer.record_wal_append(len(frame))
            if (
                self._pending_records >= self._flush_records
                or len(self._pending) >= self._flush_bytes
            ):
                self._flush_locked()
            return seq

    def _flush_locked(self) -> None:
        if not self._pending:
            return
        data = bytes(self._pending)
        self._handle.write(data)
        self._handle.flush()
        self._pending.clear()
        self._pending_records = 0
        self.bytes_written += len(data)
        self.flush_count += 1
        if self.observer is not None:
            self.observer.record_wal_flush(len(data))

    def flush(self) -> None:
        """Drain the group-commit buffer to the OS page cache."""
        with self._lock:
            self._flush_locked()

    def sync(self) -> None:
        """Force appended records to stable storage (checkpoint boundary)."""
        with self._lock:
            self._flush_locked()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._flush_locked()
                os.fsync(self._handle.fileno())
                self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def records(self, after: Optional[int] = None) -> Iterator[WalRecord]:
        """Yield verified ``(seq, op, payload)`` entries with ``seq > after``.

        ``after`` defaults to ``base_seq`` (everything in the log).  The
        group-commit buffer is drained first, then the file is re-read
        and re-verified from disk — the same code path a cold recovery
        uses, so tests exercise it constantly.  Payload arrays come back
        as ``float64`` ndarrays.  A file that ends before the last
        appended record raises :class:`~repro.exceptions.WalCorruptionError`.
        """
        floor = self._base_seq if after is None else int(after)
        with self._lock:
            self._flush_locked()
            last_seq = self._last_seq
        for record, _body in self._read_verified(last_seq):
            if record[0] > floor:
                yield record

    def _read_verified(self, last_seq: int) -> Iterator[Tuple[WalRecord, bytes]]:
        """Yield every record through ``last_seq``, re-read from disk, with its body.

        Takes no lock: callers drain the buffer first (``records`` then
        reads the snapshot it took; ``truncate_through`` holds the lock
        across read and rewrite).  Unlike recovery, a live handle has
        acknowledged ``last_seq``, so a file that stops short of it —
        torn or cut — raises.
        """
        scan = _ChainScan(self._path)
        yield from scan.records(through=last_seq)
        if scan.last_seq < last_seq:
            raise WalCorruptionError(
                f"WAL {self._path} ends at seq {scan.last_seq}, before the last "
                f"acknowledged seq {last_seq}"
            )

    def verify(self) -> int:
        """Re-verify the whole chain from disk; returns the record count."""
        return sum(1 for _ in self.records(after=self._base_seq))

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def truncate_through(self, seq: int) -> int:
        """Drop all records with ``seq <= the given value`` (compaction).

        Called after a checkpoint that covers ``seq``: the surviving tail
        is re-chained onto a fresh header whose ``base_seq`` is ``seq``,
        written atomically (tmp + fsync + ``os.replace``), so a crash
        during compaction leaves either the old or the new log — both
        verifiable.  Read and rewrite happen under the writer lock, so an
        append racing the compaction lands in the new file.  Returns the
        number of records dropped.
        """
        target = int(seq)
        with self._lock:
            if target < self._base_seq or target > self._last_seq:
                raise WalCorruptionError(
                    f"cannot truncate through seq {target}: log covers "
                    f"({self._base_seq}, {self._last_seq}]"
                )
            self._flush_locked()
            header, prev_digest = _header_frame(self._shard_id, target)
            out = [WAL2_MAGIC, header]
            for (rec_seq, _op, _payload), body in self._read_verified(self._last_seq):
                if rec_seq > target:
                    frame, prev_digest = _seal(prev_digest, body)
                    out.append(frame)
            tmp = self._path.with_name(self._path.name + ".tmp")
            with open(tmp, "wb") as handle:
                handle.write(b"".join(out))
                handle.flush()
                os.fsync(handle.fileno())
            self._handle.close()
            os.replace(tmp, self._path)
            # compaction deletes replayed records on the strength of the
            # new file being durable — fsync the directory so the rename
            # survives power loss, not just SIGKILL
            fsync_dir(self._path.parent)
            dropped = target - self._base_seq
            self._base_seq = target
            self._last_digest = prev_digest
            self._handle = open(self._path, "ab")
            return dropped
