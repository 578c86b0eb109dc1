"""WriteAheadLog: binary framing, hash chain, group commit, recovery,
corruption, and compaction."""

import hashlib
import pathlib
import struct
import threading

import numpy as np
import pytest

from repro.exceptions import ConfigError, WalCorruptionError
from repro.io import canonical_json
from repro.schemas import WAL_SCHEMA_V1
from repro.serving import ShardedMomentService, WriteAheadLog
from repro.serving.wal import (
    DEFAULT_FLUSH_BYTES,
    DEFAULT_FLUSH_RECORDS,
    WAL2_MAGIC,
    WAL_OPS,
    WAL_SCHEMA_V2,
)

_U32 = struct.Struct("<I")


@pytest.fixture
def wal_path(tmp_path):
    return tmp_path / "shard-000.wal"


@pytest.fixture
def wal(wal_path):
    log = WriteAheadLog.create(wal_path, shard_id=0)
    yield log
    log.close()


def _fill(wal, n=5):
    """Append n simple records; returns the (seq, op, payload) list."""
    written = []
    for i in range(n):
        op = WAL_OPS[i % len(WAL_OPS)]
        payload = {"key": f"k{i}", "i": i, "keys": [], "kinds": {}}
        seq = wal.append(op, payload)
        written.append((seq, op, payload))
    return written


def _sample_records(log, rng, n=6):
    """Append a representative op mix; returns the appended payloads."""
    payloads = []
    for i in range(n):
        block = rng.standard_normal((4 + i, 3))
        payloads.append({"key": f"k{i}", "samples": block})
        log.append("ingest", payloads[-1])
    return payloads


def _frame_spans(raw):
    """``(start, end)`` of every frame after the magic; index 0 is the header."""
    spans, pos = [], len(WAL2_MAGIC)
    while pos < len(raw):
        (length,) = _U32.unpack_from(raw, pos)
        spans.append((pos, pos + _U32.size + length))
        pos = spans[-1][1]
    return spans


class TestFraming:
    def test_create_writes_magic_and_header(self, tmp_path):
        path = tmp_path / "s.wal"
        log = WriteAheadLog.create(path, shard_id=7, base_seq=3)
        log.close()
        raw = path.read_bytes()
        assert raw.startswith(WAL2_MAGIC)
        assert WAL_SCHEMA_V2.encode() in raw
        reopened = WriteAheadLog.open(path)
        assert reopened.shard_id == 7
        assert reopened.base_seq == 3
        assert reopened.last_seq == 3
        reopened.close()

    def test_arrays_round_trip_bit_exactly(self, wal, rng):
        block = rng.standard_normal((16, 5)) * 1e6 + np.pi
        vector = rng.standard_normal(5)
        wal.append("ingest", {"key": "a", "samples": block})
        wal.append("ingest", {"key": "a", "samples": vector})
        records = list(wal.records())
        assert [op for _, op, _ in records] == ["ingest", "ingest"]
        out_block = records[0][2]["samples"]
        out_vector = records[1][2]["samples"]
        assert out_block.shape == block.shape  # 2-D stays 2-D (Chan path)
        assert out_vector.shape == vector.shape  # 1-D stays 1-D (Welford path)
        assert np.array_equal(out_block, block)
        assert np.array_equal(out_vector, vector)
        assert out_block.dtype == np.float64

    def test_nested_and_scalar_payloads_round_trip(self, wal, rng):
        scatter = rng.standard_normal((3, 3))
        payload = {
            "key": "a",
            "stats": {"n": 12, "mean": rng.standard_normal(3), "scatter": scatter},
        }
        wal.append("ingest_stats", payload)
        wal.append("touch", {"keys": ["a", "b", "a"], "kinds": {"estimate": 2}})
        records = list(wal.records())
        stats = records[0][2]["stats"]
        assert stats["n"] == 12
        assert np.array_equal(stats["scatter"], scatter)
        assert records[1][2] == {"keys": ["a", "b", "a"], "kinds": {"estimate": 2}}


class TestAppendAndReplay:
    def test_round_trip(self, wal_path):
        wal = WriteAheadLog.create(wal_path, shard_id=3)
        written = _fill(wal, 5)
        assert wal.shard_id == 3
        assert wal.base_seq == 0
        assert wal.last_seq == 5
        assert list(wal.records()) == written
        wal.close()

    def test_records_after_offset(self, wal_path):
        with WriteAheadLog.create(wal_path, shard_id=0) as wal:
            written = _fill(wal, 6)
            assert list(wal.records(after=4)) == written[4:]
            assert list(wal.records(after=6)) == []

    def test_sequence_numbers_continue_from_base_seq(self, wal_path):
        wal = WriteAheadLog.create(wal_path, shard_id=0, base_seq=100)
        assert wal.append("drop", {"key": "a"}) == 101
        assert wal.append("drop", {"key": "b"}) == 102
        wal.close()

    def test_unknown_op_rejected(self, wal_path):
        with WriteAheadLog.create(wal_path, shard_id=0) as wal:
            with pytest.raises(WalCorruptionError, match="unknown WAL op"):
                wal.append("mutate", {})

    def test_refuses_to_create_over_existing(self, wal_path):
        WriteAheadLog.create(wal_path, shard_id=0).close()
        with pytest.raises(WalCorruptionError, match="existing"):
            WriteAheadLog.create(wal_path, shard_id=0)

    def test_verify_counts_records(self, wal_path):
        with WriteAheadLog.create(wal_path, shard_id=0) as wal:
            _fill(wal, 7)
            assert wal.verify() == 7


class TestGroupCommit:
    def test_buffer_flushes_at_record_bound(self, tmp_path):
        log = WriteAheadLog.create(tmp_path / "s.wal", shard_id=0, flush_records=4)
        for _ in range(3):
            log.append("touch", {"keys": [], "kinds": {}})
        assert log.pending_records == 3
        assert log.flush_count == 0
        log.append("touch", {"keys": [], "kinds": {}})
        assert log.pending_records == 0
        assert log.flush_count == 1
        assert log.records_appended == 4
        log.close()

    def test_buffer_flushes_at_byte_bound(self, tmp_path, rng):
        log = WriteAheadLog.create(
            tmp_path / "s.wal", shard_id=0, flush_records=10_000, flush_bytes=4096
        )
        log.append("ingest", {"key": "a", "samples": rng.standard_normal((128, 8))})
        assert log.pending_records == 0  # 8 KiB frame crossed the 4 KiB bound
        assert log.flush_count == 1
        log.close()

    def test_reads_drain_the_buffer(self, tmp_path, rng):
        log = WriteAheadLog.create(tmp_path / "s.wal", shard_id=0, flush_records=100)
        log.append("ingest", {"key": "a", "samples": rng.standard_normal((2, 2))})
        assert log.pending_records == 1
        assert log.verify() == 1  # records() flushed first
        assert log.pending_records == 0
        log.close()

    def test_sync_and_close_drain_the_buffer(self, tmp_path):
        path = tmp_path / "s.wal"
        log = WriteAheadLog.create(path, shard_id=0, flush_records=100)
        log.append("drop", {"key": "a"})
        size_before = path.stat().st_size
        log.sync()
        assert path.stat().st_size > size_before
        log.append("drop", {"key": "b"})
        log.close()
        reopened = WriteAheadLog.open(path)
        assert reopened.last_seq == 2
        reopened.close()

    def test_observer_sees_appends_and_flushes(self, tmp_path):
        class Probe:
            appends = 0
            append_bytes = 0
            flushes = 0

            def record_wal_append(self, n_bytes):
                self.appends += 1
                self.append_bytes += n_bytes

            def record_wal_flush(self, n_bytes):
                self.flushes += 1

        probe = Probe()
        log = WriteAheadLog.create(
            tmp_path / "s.wal", shard_id=0, flush_records=2, observer=probe
        )
        for _ in range(4):
            log.append("touch", {"keys": [], "kinds": {}})
        assert probe.appends == 4
        assert probe.flushes == 2
        assert probe.append_bytes == log.bytes_written
        log.close()

    def test_create_and_open_share_default_bounds(self, wal_path):
        created = WriteAheadLog.create(wal_path, shard_id=0)
        assert created._flush_records == DEFAULT_FLUSH_RECORDS == 64
        assert created._flush_bytes == DEFAULT_FLUSH_BYTES
        created.close()
        reopened = WriteAheadLog.open(wal_path)
        assert reopened._flush_records == DEFAULT_FLUSH_RECORDS
        assert reopened._flush_bytes == DEFAULT_FLUSH_BYTES
        reopened.close()

    @pytest.mark.parametrize(
        "bounds",
        [{"flush_records": 0}, {"flush_bytes": -7}],
        ids=["records", "bytes"],
    )
    @pytest.mark.parametrize(
        "entry", ["create", "open", "constructor", "recover", "restore"]
    )
    def test_bounds_below_one_rejected_on_every_path(self, tmp_path, entry, bounds):
        """A bound refused on a fresh start is refused on recovery too."""
        wal_dir, ckpt = tmp_path / "wal", tmp_path / "ckpt"
        if entry in ("open", "recover", "restore"):
            with ShardedMomentService(n_shards=2, wal_dir=wal_dir) as service:
                service.checkpoint(ckpt)
        service_bounds = {f"wal_{name}": value for name, value in bounds.items()}
        with pytest.raises(ConfigError, match="must be >= 1"):
            if entry == "create":
                WriteAheadLog.create(tmp_path / "s.wal", shard_id=0, **bounds)
            elif entry == "open":
                WriteAheadLog.open(wal_dir / "shard-000.wal", **bounds)
            elif entry == "constructor":
                ShardedMomentService(wal_dir=wal_dir, **service_bounds)
            elif entry == "recover":
                ShardedMomentService.recover(wal_dir, **service_bounds)
            else:
                ShardedMomentService.restore(ckpt, wal_dir=wal_dir, **service_bounds)
        assert not (tmp_path / "s.wal").exists()


class TestOpenRecovery:
    def test_open_restores_chain_position(self, wal_path):
        wal = WriteAheadLog.create(wal_path, shard_id=2)
        written = _fill(wal, 4)
        wal.close()
        reopened = WriteAheadLog.open(wal_path)
        assert reopened.shard_id == 2
        assert reopened.last_seq == 4
        assert list(reopened.records()) == written
        # appends continue the chain seamlessly
        reopened.append("drop", {"key": "x"})
        assert reopened.verify() == 5
        reopened.close()

    def test_empty_file_is_corrupt(self, wal_path):
        wal_path.write_bytes(b"")
        with pytest.raises(WalCorruptionError, match="empty"):
            WriteAheadLog.open(wal_path)

    def test_v1_log_is_refused_with_migration_hint(self, wal_path):
        header = {
            "base_seq": 0,
            "schema": WAL_SCHEMA_V1,
            "schema_version": 1,
            "shard": 0,
        }
        line = {"header": header, "sha256": "0" * 64}
        wal_path.write_text(canonical_json(line) + "\n", encoding="utf-8")
        with pytest.raises(WalCorruptionError, match=WAL_SCHEMA_V1) as info:
            WriteAheadLog.open(wal_path)
        assert "repro replay" in str(info.value)

    def test_recovery_after_torn_write_continues_appending(self, wal_path):
        wal = WriteAheadLog.create(wal_path, shard_id=0)
        _fill(wal, 2)
        wal.close()
        good = wal_path.stat().st_size
        with open(wal_path, "ab") as handle:
            handle.write(b"garbage")
        reopened = WriteAheadLog.open(wal_path)
        assert wal_path.stat().st_size == good  # torn bytes truncated away
        assert reopened.append("drop", {"key": "y"}) == 3
        assert reopened.verify() == 3
        reopened.close()
        assert WriteAheadLog.open(wal_path).verify() == 3

    def test_torn_tail_dropped_at_every_cut(self, wal_path, rng):
        """Truncating anywhere inside the final frame loses only that frame."""
        log = WriteAheadLog.create(wal_path, shard_id=0)
        _sample_records(log, rng, n=3)
        log.close()
        intact = wal_path.read_bytes()
        for cut in (1, 7, 33):
            wal_path.write_bytes(intact[:-cut])
            recovered = WriteAheadLog.open(wal_path)
            assert recovered.last_seq == 2  # frame 3 torn, frames 1-2 intact
            assert recovered.verify() == 2
            recovered.close()
            wal_path.unlink()
            wal_path.write_bytes(intact)

    def test_corrupt_final_frame_digest_is_dropped(self, wal_path, rng):
        log = WriteAheadLog.create(wal_path, shard_id=0)
        _sample_records(log, rng, n=2)
        log.close()
        raw = bytearray(wal_path.read_bytes())
        raw[-1] ^= 0xFF  # flip a digest byte of the final frame
        wal_path.write_bytes(bytes(raw))
        recovered = WriteAheadLog.open(wal_path)
        assert recovered.last_seq == 1
        recovered.close()

    def test_pending_buffer_is_lost_on_kill_flushed_prefix_survives(self, wal_path):
        """Documented group-commit semantics: unflushed suffix may vanish."""
        log = WriteAheadLog.create(wal_path, shard_id=0, flush_records=3)
        for i in range(7):  # 2 full groups flushed, 1 record pending
            log.append("touch", {"keys": [f"k{i}"], "kinds": {}})
        assert log.pending_records == 1
        # simulate SIGKILL: read the file as-is, no flush/close
        survivor = WriteAheadLog.open(wal_path)
        assert survivor.last_seq == 6
        survivor.close()
        log.close()


class TestCorruption:
    def test_mid_chain_edit_raises(self, wal_path):
        wal = WriteAheadLog.create(wal_path, shard_id=0)
        _fill(wal, 5)
        wal.close()
        raw = wal_path.read_bytes()
        # silently edit record 2's payload without re-hashing
        assert raw.count(b'"i":2') == 1
        wal_path.write_bytes(raw.replace(b'"i":2', b'"i":9'))
        with pytest.raises(WalCorruptionError, match="corrupt at offset"):
            WriteAheadLog.open(wal_path)

    def test_records_after_broken_line_raise(self, wal_path):
        wal = WriteAheadLog.create(wal_path, shard_id=0)
        _fill(wal, 4)
        wal.close()
        raw = bytearray(wal_path.read_bytes())
        start, end = _frame_spans(raw)[2]
        # garbage body and digest behind an intact length prefix
        raw[start + _U32.size : end] = b"x" * (end - start - _U32.size)
        wal_path.write_bytes(bytes(raw))
        with pytest.raises(WalCorruptionError, match=f"corrupt at offset {start}"):
            WriteAheadLog.open(wal_path)

    def test_deleted_record_breaks_sequence(self, wal_path):
        wal = WriteAheadLog.create(wal_path, shard_id=0)
        _fill(wal, 4)
        wal.close()
        raw = wal_path.read_bytes()
        start, end = _frame_spans(raw)[2]
        wal_path.write_bytes(raw[:start] + raw[end:])
        with pytest.raises(WalCorruptionError):
            WriteAheadLog.open(wal_path)

    def test_header_tamper_raises(self, wal_path):
        WriteAheadLog.create(wal_path, shard_id=0).close()
        raw = wal_path.read_bytes()
        assert raw.count(b'"shard":0') == 1
        wal_path.write_bytes(raw.replace(b'"shard":0', b'"shard":9'))
        with pytest.raises(WalCorruptionError, match="hash check"):
            WriteAheadLog.open(wal_path)

    def test_foreign_schema_rejected(self, wal_path):
        body = canonical_json({"schema": "something-else"}).encode("utf-8")
        digest = hashlib.sha256(body).digest()
        wal_path.write_bytes(WAL2_MAGIC + _U32.pack(len(body) + 32) + body + digest)
        with pytest.raises(WalCorruptionError, match="declares schema"):
            WriteAheadLog.open(wal_path)

    def test_schema_marker_present(self, wal_path):
        WriteAheadLog.create(wal_path, shard_id=0).close()
        raw = wal_path.read_bytes()
        start, end = _frame_spans(raw)[0]
        assert WAL_SCHEMA_V2.encode("ascii") in raw[start:end]

    def test_file_ending_before_last_seq_raises(self, wal_path):
        """A log cut back at a frame boundary under a live handle is not a
        shorter history: every read path refuses it."""
        wal = WriteAheadLog.create(wal_path, shard_id=0, flush_records=1)
        _fill(wal, 3)
        boundary = wal_path.stat().st_size
        _fill(wal, 2)
        with open(wal_path, "r+b") as handle:
            handle.truncate(boundary)
        with pytest.raises(WalCorruptionError, match="before the last"):
            wal.verify()
        with pytest.raises(WalCorruptionError, match="before the last"):
            list(wal.records(after=4))
        with pytest.raises(WalCorruptionError, match="before the last"):
            wal.truncate_through(2)
        wal.close()


class TestCompaction:
    def test_truncate_through_drops_prefix(self, wal_path):
        wal = WriteAheadLog.create(wal_path, shard_id=1)
        written = _fill(wal, 6)
        dropped = wal.truncate_through(4)
        assert dropped == 4
        assert wal.base_seq == 4
        assert wal.last_seq == 6
        assert list(wal.records()) == written[4:]
        wal.close()
        # the rewritten file is a verifiable chain rooted at the new header
        reopened = WriteAheadLog.open(wal_path)
        assert reopened.base_seq == 4
        assert reopened.verify() == 2
        reopened.close()

    def test_truncate_through_keeps_array_tail(self, wal_path, rng):
        log = WriteAheadLog.create(wal_path, shard_id=0)
        payloads = _sample_records(log, rng, n=5)
        assert log.truncate_through(3) == 3
        records = list(log.records())
        assert [seq for seq, _, _ in records] == [4, 5]
        assert np.array_equal(records[0][2]["samples"], payloads[3]["samples"])
        # appends continue, and a cold reopen agrees
        log.append("drop", {"key": "k0"})
        log.close()
        reopened = WriteAheadLog.open(wal_path)
        assert reopened.base_seq == 3
        assert reopened.last_seq == 6
        assert reopened.verify() == 3
        reopened.close()

    def test_truncate_everything_leaves_appendable_log(self, wal_path):
        wal = WriteAheadLog.create(wal_path, shard_id=0)
        _fill(wal, 3)
        assert wal.truncate_through(3) == 3
        assert wal.verify() == 0
        assert wal.append("drop", {"key": "z"}) == 4
        wal.close()
        assert WriteAheadLog.open(wal_path).verify() == 1

    def test_truncate_out_of_range_raises(self, wal_path):
        wal = WriteAheadLog.create(wal_path, shard_id=0)
        _fill(wal, 2)
        with pytest.raises(WalCorruptionError, match="cannot truncate"):
            wal.truncate_through(7)
        with pytest.raises(WalCorruptionError, match="cannot truncate"):
            wal.truncate_through(-1)
        wal.close()

    def test_truncate_flushes_pending_first(self, wal_path, rng):
        log = WriteAheadLog.create(wal_path, shard_id=0, flush_records=100)
        _sample_records(log, rng, n=4)
        assert log.pending_records == 4
        log.truncate_through(2)
        assert log.verify() == 2
        log.close()

    def test_no_tmp_file_left_behind(self, wal_path):
        wal = WriteAheadLog.create(wal_path, shard_id=0)
        _fill(wal, 3)
        wal.truncate_through(2)
        wal.close()
        assert not wal_path.with_name(wal_path.name + ".tmp").exists()

    def test_append_racing_compaction_survives(self, wal_path, monkeypatch):
        """An append that arrives while compaction reads the surviving tail
        is acknowledged, so it must be in the rewritten log."""
        wal = WriteAheadLog.create(wal_path, shard_id=0, flush_records=1)
        _fill(wal, 5)
        racer = []
        real_read_bytes = pathlib.Path.read_bytes

        def read_bytes_with_racing_append(path):
            if path == wal_path and not racer:
                if wal._lock.locked():
                    # the compaction holds the writer lock: a concurrent
                    # append waits for the rewrite to finish
                    racer.append(
                        threading.Thread(
                            target=wal.append, args=("drop", {"key": "race"})
                        )
                    )
                    racer[0].start()
                else:
                    # unguarded read: the append lands inside the window
                    racer.append(None)
                    wal.append("drop", {"key": "race"})
            return real_read_bytes(path)

        monkeypatch.setattr(pathlib.Path, "read_bytes", read_bytes_with_racing_append)
        wal.truncate_through(3)
        if racer[0] is not None:
            racer[0].join()
        monkeypatch.undo()
        wal.append("drop", {"key": "after"})
        wal.close()
        reopened = WriteAheadLog.open(wal_path)
        assert reopened.base_seq == 3
        assert reopened.last_seq == 7
        assert reopened.verify() == 4
        assert [p["key"] for _, _, p in reopened.records()] == [
            "k3",
            "k4",
            "race",
            "after",
        ]
        reopened.close()
