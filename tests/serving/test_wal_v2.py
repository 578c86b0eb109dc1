"""WAL binary frames at the byte level: refused appends, header and
mid-chain corruption, torn-tail repair, and compaction bounds.

``test_wal.py`` covers the log end to end; these cases flip or append
raw bytes in a written file and check what ``open`` makes of it.
"""

import numpy as np
import pytest

from repro.exceptions import WalCorruptionError
from repro.serving.wal import WAL2_MAGIC, WriteAheadLog


@pytest.fixture
def wal(tmp_path):
    log = WriteAheadLog.create(tmp_path / "shard-000.wal", shard_id=0)
    yield log
    log.close()


def _sample_records(log, rng, n=6):
    """Append a representative op mix; returns the appended payloads."""
    payloads = []
    for i in range(n):
        block = rng.standard_normal((4 + i, 3))
        payloads.append({"key": f"k{i}", "samples": block})
        log.append("ingest", payloads[-1])
    return payloads


class TestFraming:
    def test_unknown_op_refused(self, wal):
        with pytest.raises(WalCorruptionError, match="unknown WAL op"):
            wal.append("evict", {})

    def test_create_refuses_existing_file(self, wal):
        with pytest.raises(WalCorruptionError, match="existing"):
            WriteAheadLog.create(wal.path, shard_id=0)


class TestRecovery:
    def test_recovery_truncates_file_to_verified_prefix(self, tmp_path, rng):
        path = tmp_path / "s.wal"
        log = WriteAheadLog.create(path, shard_id=0)
        _sample_records(log, rng, n=2)
        log.close()
        good = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b"\x99" * 11)  # SIGKILL mid-length-prefix
        recovered = WriteAheadLog.open(path)
        assert path.stat().st_size == good
        assert recovered.last_seq == 2
        # appends continue on the repaired chain
        recovered.append("drop", {"key": "k0"})
        recovered.close()
        reopened = WriteAheadLog.open(path)
        assert reopened.verify() == 3
        reopened.close()

    def test_mid_chain_corruption_raises(self, tmp_path, rng):
        path = tmp_path / "s.wal"
        log = WriteAheadLog.create(path, shard_id=0)
        payloads = _sample_records(log, rng, n=3)
        log.close()
        raw = bytearray(path.read_bytes())
        # flip one raw float byte in the middle record's array region:
        # frame boundaries stay intact, so this is NOT a torn tail
        needle = np.ascontiguousarray(payloads[1]["samples"]).tobytes()[:16]
        offset = bytes(raw).find(needle)
        assert offset > 0
        raw[offset] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(WalCorruptionError, match="corrupt"):
            WriteAheadLog.open(path)

    def test_header_corruption_raises(self, tmp_path):
        path = tmp_path / "s.wal"
        WriteAheadLog.create(path, shard_id=0).close()
        raw = bytearray(path.read_bytes())
        raw[len(WAL2_MAGIC) + 10] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(WalCorruptionError):
            WriteAheadLog.open(path)


class TestCompaction:
    def test_truncate_bounds_checked(self, wal, rng):
        _sample_records(wal, rng, n=2)
        with pytest.raises(WalCorruptionError, match="cannot truncate"):
            wal.truncate_through(3)
