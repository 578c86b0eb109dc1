"""One-pass WAL recovery: the same state as the two-pass oracle, hashed once.

Recovery applies each record while :meth:`WriteAheadLog.open` verifies it.
Every log shape below — clean, torn, delta-logged, failing lookups,
evictions, a checkpoint mid-log — must recover to a ``state_dict`` that
is sha-identical to the one the two-pass sequence in
``tests/serving/recovery_oracle.py`` builds.
"""

import hashlib
import json
import shutil
import struct
from types import SimpleNamespace

import numpy as np
import pytest

import repro.serving.wal as wal_module
from repro.cli import main
from repro.core.prior import PriorKnowledge
from repro.exceptions import ReproError, WalCorruptionError
from repro.io import canonical_json
from repro.schemas import WAL2_MAGIC
from repro.serving import ShardedMomentService, ShardWorker, WriteAheadLog
from repro.stats.suffstats import SufficientStats

from .recovery_oracle import two_pass_recover, two_pass_worker

D = 3
_U32 = struct.Struct("<I")


def _sha(state) -> str:
    return hashlib.sha256(canonical_json(state).encode("utf-8")).hexdigest()


def _frame_ends(raw: bytes):
    """End offset of every complete frame after the magic (header first)."""
    ends, pos = [], len(WAL2_MAGIC)
    while pos + _U32.size <= len(raw):
        end = pos + _U32.size + _U32.unpack_from(raw, pos)[0]
        if end > len(raw):
            break
        ends.append(end)
        pos = end
    return ends


@pytest.fixture
def prior(rng) -> PriorKnowledge:
    a = rng.standard_normal((D, D))
    return PriorKnowledge(rng.standard_normal(D), a @ a.T + D * np.eye(D), 12)


def _try(op, *args):
    """Run one operation; a :class:`ReproError` is part of the history."""
    try:
        op(*args)
    except ReproError:
        pass


def _drive(worker, prior, rng, n_keys=4):
    """Creates, 1-D and 2-D ingests, a stats merge, a drop, and queries —
    including lookups of keys that do not exist."""
    for i in range(n_keys):
        _try(worker.create_session, f"die/{i}", prior, 2.0, D + 2.0)
    for i in range(n_keys):
        _try(worker.ingest, f"die/{i}", rng.standard_normal(D))
        _try(worker.ingest, f"die/{i}", rng.standard_normal((6, D)))
        _try(worker.ingest, f"die/{i}", rng.standard_normal((2, D)))
    stats = SufficientStats.from_samples(rng.standard_normal((5, D)))
    _try(worker.ingest_stats, "die/1", stats)
    _try(worker.drop_session, f"die/{n_keys - 1}")
    _try(worker.query_many, [("estimate", "die/0", None), ("estimate", "die/2", None)])
    for missing in ("die/absent", f"die/{n_keys - 1}"):
        _try(worker.query_many, [("estimate", missing, None), ("estimate", "die/0", None)])
        _try(worker.collect, missing)


@pytest.fixture
def recover_both(tmp_path):
    """``(one_pass, oracle)`` workers for a log, each on its own copy of it.

    Their ``state_dict`` must be sha-identical and the two copies must be
    truncated identically.  Both stay open until teardown.
    """
    opened = []

    def recover(path, **kwargs):
        one_pass_path = shutil.copy(path, tmp_path / "one-pass.wal")
        oracle_path = shutil.copy(path, tmp_path / "oracle.wal")
        got = ShardWorker._recover(one_pass_path, **kwargs)
        opened.append(got)
        want = two_pass_worker(oracle_path, **kwargs)
        opened.append(want)
        assert _sha(got.state_dict()) == _sha(want.state_dict())
        assert (tmp_path / "one-pass.wal").read_bytes() == (
            tmp_path / "oracle.wal"
        ).read_bytes()
        return got, want

    yield recover
    for worker in opened:
        worker.close()


def _live(tmp_path, **worker_kwargs):
    flush_records = worker_kwargs.pop("flush_records", None)
    wal = WriteAheadLog.create(tmp_path / "live.wal", shard_id=0, flush_records=flush_records)
    return ShardWorker(shard_id=0, wal=wal, **worker_kwargs)


def _same_store(got, live) -> bool:
    """Sessions, statistics, clock and evictions all bit-identical (the
    error counter is live-only state, so whole-state sha is for the oracle)."""
    return _sha(got.store.to_dict()) == _sha(live.store.to_dict())


class TestOnePassEqualsTwoPass:
    def test_clean_log(self, prior, rng, tmp_path, recover_both):
        live = _live(tmp_path)
        _drive(live, prior, rng)
        live.close()
        got, _ = recover_both(live.wal.path)
        assert _same_store(got, live)
        assert got.wal.recovered_records == live.wal.last_seq
        assert got.wal.dropped_bytes == 0

    def test_torn_final_frame(self, prior, rng, tmp_path, recover_both):
        live = _live(tmp_path, flush_records=1)
        _drive(live, prior, rng)
        live.close()
        torn = b"\x40\x01\x00\x00half-a-frame"
        with open(live.wal.path, "ab") as handle:
            handle.write(torn)
        got, _ = recover_both(live.wal.path)
        assert _same_store(got, live)
        assert got.wal.dropped_bytes == len(torn)

    def test_final_frame_failing_its_hash(self, prior, rng, tmp_path, recover_both):
        live = _live(tmp_path)
        _drive(live, prior, rng)
        live.close()
        raw = bytearray(live.wal.path.read_bytes())
        last_frame = raw[_frame_ends(bytes(raw))[-2] :]
        raw[-1] ^= 0xFF
        live.wal.path.write_bytes(bytes(raw))
        got, _ = recover_both(live.wal.path)
        assert got.wal.last_seq == live.wal.last_seq - 1
        assert got.wal.dropped_bytes == len(last_frame)

    def test_torn_group_write(self, prior, rng, tmp_path, recover_both):
        live = _live(tmp_path, flush_records=4)
        _drive(live, prior, rng)
        live.wal.sync()
        before = len(_frame_ends(live.wal.path.read_bytes()))
        for _ in range(4):  # exactly one more group
            live.ingest("die/0", rng.standard_normal((3, D)))
        live.close()
        raw = live.wal.path.read_bytes()
        ends = _frame_ends(raw)
        assert len(ends) == before + 4
        # the group write died two and a half frames in
        cut = ends[before + 1] + (ends[before + 2] - ends[before + 1]) // 2
        live.wal.path.write_bytes(raw[:cut])
        got, _ = recover_both(live.wal.path)
        assert got.wal.last_seq == live.wal.last_seq - 2
        assert got.wal.dropped_bytes == cut - ends[before + 1]

    def test_delta_logged_blocks(self, prior, rng, tmp_path, recover_both):
        live = _live(tmp_path)
        _drive(live, prior, rng)
        for i in range(3):  # sample blocks merged as their statistics
            block = rng.standard_normal((6, D))
            _try(live.ingest_stats, f"die/{i}", SufficientStats.from_samples(block))
        live.close()
        with WriteAheadLog.open(live.wal.path) as log:
            assert any(op == "ingest_stats" for _, op, _ in log.records())
        got, _ = recover_both(live.wal.path)
        assert _same_store(got, live)

    def test_touches_naming_missing_keys(self, prior, rng, tmp_path, recover_both):
        live = _live(tmp_path)
        live.create_session("k", prior)
        for batch in (["k", "nope", "k", "nope"], ["nope"], ["k"]):
            _try(live.query_many, [("estimate", key, None) for key in batch])
        _try(live.collect, "nope")
        live.close()
        got, _ = recover_both(live.wal.path)
        assert _same_store(got, live)

    def test_ttl_and_capacity_evictions(self, prior, rng, tmp_path, recover_both):
        bounds = {"max_sessions": 3, "ttl_ops": 9}
        live = _live(tmp_path, **bounds)
        _drive(live, prior, rng, n_keys=6)
        for i in range(6):  # idle keys age out; creates push the LRU out
            _try(live.create_session, f"late/{i}", prior, None, None, True)
            _try(live.ingest, f"late/{i}", rng.standard_normal((2, D)))
            _try(live.ingest, f"die/{i}", rng.standard_normal(D))
        assert live.store.evictions > 0
        live.close()
        got, _ = recover_both(live.wal.path, **bounds)
        assert _same_store(got, live)

    def test_restore_from_checkpoint_mid_log(self, prior, rng, tmp_path, recover_both):
        live = _live(tmp_path)
        _drive(live, prior, rng)
        checkpoint = tmp_path / "s.ckpt"
        live.checkpoint(checkpoint)
        covered = live.wal.last_seq
        _drive(live, prior, rng)  # creates collide; the failures are history too
        _try(live.ingest, "die/0", rng.standard_normal(D))
        live.close()
        assert live.wal.last_seq > covered
        got, _ = recover_both(live.wal.path, checkpoint=checkpoint)
        assert _same_store(got, live)
        assert got.wal.recovered_records == live.wal.last_seq

    def test_router_recover_matches_per_shard_oracle(self, prior, rng, tmp_path):
        wal_dir = tmp_path / "wal"
        live = ShardedMomentService(n_shards=3, wal_dir=wal_dir, flush_rows=4)
        for i in range(9):
            live.create_session(f"pop/{i}", prior)
        for _ in range(40):
            live.ingest(f"pop/{int(rng.integers(9))}", rng.standard_normal(D))
        live.estimate("pop/0")
        live.close()
        oracle_dir = shutil.copytree(wal_dir, tmp_path / "oracle")
        recovered = ShardedMomentService.recover(wal_dir)
        oracle = two_pass_recover(oracle_dir)
        assert [_sha(w.state_dict()) for w in recovered.workers] == [
            _sha(w.state_dict()) for w in oracle
        ]
        recovered.close()
        for worker in oracle:
            worker.close()


class TestMidChainCorruption:
    def _corrupt_late_frame(self, path):
        raw = bytearray(path.read_bytes())
        ends = _frame_ends(bytes(raw))
        raw[ends[-3] + _U32.size + 2] ^= 0xFF  # second-to-last record's meta
        path.write_bytes(bytes(raw))

    def test_raises_after_applying_and_returns_no_service(
        self, prior, rng, tmp_path, monkeypatch
    ):
        wal_dir = tmp_path / "wal"
        live = ShardedMomentService(n_shards=2, wal_dir=wal_dir)
        for i in range(6):
            live.create_session(f"pop/{i}", prior)
            live.ingest(f"pop/{i}", rng.standard_normal((4, D)))
        live.close()
        self._corrupt_late_frame(wal_dir / "shard-000.wal")
        applied = []
        original = ShardWorker._apply_replayed
        monkeypatch.setattr(
            ShardWorker,
            "_apply_replayed",
            lambda self, record: applied.append(record[0]) or original(self, record),
        )
        result = None
        with pytest.raises(WalCorruptionError, match="corrupt at offset"):
            result = ShardedMomentService.recover(wal_dir)
        assert result is None
        # the records before the bad frame went to the store first
        assert applied == list(range(1, live.workers[0].wal.last_seq - 1))

    def test_restore_verifies_the_covered_prefix(self, prior, rng, tmp_path):
        live = _live(tmp_path)
        _drive(live, prior, rng)
        live.checkpoint(tmp_path / "s.ckpt")
        live.close()
        # the damaged record is covered by the checkpoint: never applied,
        # but still verified
        self._corrupt_late_frame(live.wal.path)
        with pytest.raises(WalCorruptionError):
            ShardWorker._recover(live.wal.path, tmp_path / "s.ckpt")


class TestHashedOnce:
    @pytest.fixture
    def counted(self, monkeypatch):
        """Counts of ``_verify_frame`` and WAL-module sha256 calls."""
        calls = {"verified": 0, "hashed": 0}
        verify_frame = wal_module._verify_frame

        def counting_verify(*args):
            calls["verified"] += 1
            return verify_frame(*args)

        def counting_sha256(*args):
            calls["hashed"] += 1
            return hashlib.sha256(*args)

        monkeypatch.setattr(wal_module, "_verify_frame", counting_verify)
        monkeypatch.setattr(wal_module, "hashlib", SimpleNamespace(sha256=counting_sha256))
        return calls

    def _service(self, prior, rng, wal_dir):
        live = ShardedMomentService(n_shards=2, wal_dir=wal_dir, flush_rows=3)
        for i in range(6):
            live.create_session(f"pop/{i}", prior)
        for _ in range(30):
            live.ingest(f"pop/{int(rng.integers(6))}", rng.standard_normal(D))
        return live

    def test_recover_hashes_each_frame_once(self, prior, rng, tmp_path, counted):
        live = self._service(prior, rng, tmp_path / "wal")
        live.close()
        n_records = sum(worker.wal.last_seq for worker in live.workers)
        counted.update(verified=0, hashed=0)  # count recovery only
        ShardedMomentService.recover(tmp_path / "wal").close()
        assert counted["verified"] == n_records
        assert counted["hashed"] == n_records + len(live.workers)  # + each header

    def test_restore_hashes_each_frame_once(self, prior, rng, tmp_path, counted):
        live = self._service(prior, rng, tmp_path / "wal")
        live.checkpoint(tmp_path / "ckpt")
        for _ in range(10):
            live.ingest(f"pop/{int(rng.integers(6))}", rng.standard_normal(D))
        live.close()
        n_records = sum(worker.wal.last_seq for worker in live.workers)
        counted.update(verified=0, hashed=0)
        ShardedMomentService.restore(tmp_path / "ckpt", wal_dir=tmp_path / "wal").close()
        assert counted["verified"] == n_records
        assert counted["hashed"] == n_records + len(live.workers)


class TestRecoveryCounters:
    def test_counters_surface_and_stay_out_of_checkpoints(self, prior, rng, tmp_path, recover_both):
        live = _live(tmp_path, flush_records=1)
        _drive(live, prior, rng)
        live.close()
        with open(live.wal.path, "ab") as handle:
            handle.write(b"\x10\x00\x00\x00torn")
        got, _ = recover_both(live.wal.path)
        gauges = got.stats()["wal"]
        assert gauges["recovered_records"] == live.wal.last_seq
        assert gauges["dropped_bytes"] == 8
        # recovering the truncated log again drops nothing, and the
        # counters stay out of checkpoints: the bytes are the same
        again = ShardWorker._recover(got.wal.path)
        assert again.stats()["wal"]["dropped_bytes"] == 0
        assert got.checkpoint(tmp_path / "a.ckpt") == again.checkpoint(tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
        again.close()

    def test_new_log_reports_zero(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "s.wal", shard_id=0)
        assert (wal.recovered_records, wal.dropped_bytes) == (0, 0)
        wal.close()

    def test_replay_verb_prints_the_pass(self, prior, rng, tmp_path, capsys):
        live = _live(tmp_path, flush_records=1)
        _drive(live, prior, rng)
        live.close()
        with open(live.wal.path, "ab") as handle:
            handle.write(b"\x10\x00\x00\x00torn")
        assert main(["replay", str(live.wal.path), "--out", str(tmp_path / "r.ckpt")]) == 0
        out = capsys.readouterr().out
        assert f"{live.wal.last_seq} record(s)" in out
        assert "8 torn-tail byte(s) dropped" in out
        recovered = ShardWorker.restore(tmp_path / "r.ckpt")
        assert _sha(recovered.store.to_dict()) == _sha(live.store.to_dict())


class TestShardLogIdentity:
    """A log is recovered only into the shard its header names."""

    def _service(self, prior, rng, wal_dir):
        live = ShardedMomentService(n_shards=3, wal_dir=wal_dir, flush_rows=1)
        for i in range(12):
            live.create_session(f"pop/{i}", prior)
            live.ingest(f"pop/{i}", rng.standard_normal((2, D)))
        return live

    def test_recover_refuses_a_missing_shard_log(self, prior, rng, tmp_path):
        wal_dir = tmp_path / "wal"
        self._service(prior, rng, wal_dir).close()
        (wal_dir / "shard-001.wal").unlink()
        with pytest.raises(WalCorruptionError, match=r"shard-002\.wal.*missing shard-001\.wal"):
            ShardedMomentService.recover(wal_dir)

    def test_recover_refuses_swapped_logs(self, prior, rng, tmp_path):
        wal_dir = tmp_path / "wal"
        self._service(prior, rng, wal_dir).close()
        first, second = wal_dir / "shard-000.wal", wal_dir / "shard-001.wal"
        first.rename(tmp_path / "swap.wal")
        second.rename(first)
        (tmp_path / "swap.wal").rename(second)
        with pytest.raises(WalCorruptionError, match=r"shard-000\.wal belongs to shard 1"):
            ShardedMomentService.recover(wal_dir)

    def test_restore_refuses_a_manifest_naming_another_shards_log(self, prior, rng, tmp_path):
        wal_dir, ckpt = tmp_path / "wal", tmp_path / "ckpt"
        live = self._service(prior, rng, wal_dir)
        live.checkpoint(ckpt)
        live.close()
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["shards"][2]["wal"]["file"] = "shard-000.wal"
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(WalCorruptionError, match=r"shard-000\.wal belongs to shard 0, not shard 2"):
            ShardedMomentService.restore(ckpt, wal_dir=wal_dir)

    def test_replay_verb_takes_the_shard_from_the_header(self, prior, rng, tmp_path, capsys):
        wal_dir = tmp_path / "wal"
        self._service(prior, rng, wal_dir).close()
        out = tmp_path / "r.ckpt"
        assert main(["replay", str(wal_dir / "shard-002.wal"), "--out", str(out)]) == 0
        assert "shard 2," in capsys.readouterr().out


class TestRingHome:
    """Recovery refuses a log holding a key its ring places on another
    shard: the key would be unreachable, or read short."""

    def test_recover_refuses_logs_of_another_ring(self, prior, rng, tmp_path):
        wal_dir = tmp_path / "wal"
        keys = [f"s/{i}" for i in range(20)]
        with ShardedMomentService(n_shards=4, wal_dir=wal_dir, virtual_nodes=8) as live:
            for key in keys:
                live.create_session(key, prior)
                live.ingest(key, rng.standard_normal((2, D)))
        with pytest.raises(
            WalCorruptionError,
            match=r"shard-00\d\.wal holds key 's/\d+' on shard \d, but the ring "
            r"\(4 shards, virtual_nodes=64\) places it on shard \d",
        ):
            ShardedMomentService.recover(wal_dir)
        with ShardedMomentService.recover(wal_dir, virtual_nodes=8) as recovered:
            assert recovered.session_keys() == sorted(keys)
            assert all(recovered.estimate(key).n_samples == 2 for key in keys)

    def test_recover_refuses_a_key_off_its_home_shard(
        self, prior, rng, tmp_path, monkeypatch, capsys
    ):
        import io

        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        probe = ShardedMomentService(n_shards=2)
        key = next(k for k in (f"k/{i}" for i in range(50)) if probe.shard_for(k) == 0)
        for shard in range(2):
            wal = WriteAheadLog.create(wal_dir / f"shard-{shard:03d}.wal", shard_id=shard)
            with ShardWorker(shard_id=shard, wal=wal) as worker:
                worker.create_session(key, prior)
                worker.ingest(key, rng.standard_normal((4, D)))
        with pytest.raises(
            WalCorruptionError,
            match=r"shard-001\.wal holds key 'k/\d+' on shard 1, .* places it on shard 0",
        ):
            ShardedMomentService.recover(wal_dir)
        monkeypatch.setattr("sys.stdin", io.StringIO('{"op": "shutdown"}\n'))
        capsys.readouterr()
        assert main(["serve", "--wal-dir", str(wal_dir)]) == 2
        assert "holds key" in capsys.readouterr().err

    def test_restore_refuses_a_manifest_of_another_ring(self, prior, rng, tmp_path):
        ckpt = tmp_path / "ckpt"
        with ShardedMomentService(n_shards=4) as live:
            for i in range(20):
                live.create_session(f"s/{i}", prior)
            live.checkpoint(ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["virtual_nodes"] = 8
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(WalCorruptionError, match=r"shard-00\d\.ckpt holds key 's/\d+'"):
            ShardedMomentService.restore(ckpt)
