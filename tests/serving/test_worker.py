"""ShardWorker: bit-identical WAL replay, crash recovery."""

import hashlib

import numpy as np
import pytest

from repro.core.prior import PriorKnowledge
from repro.exceptions import SessionNotFoundError
from repro.io import canonical_json
from repro.serving import ShardWorker, WriteAheadLog
from repro.stats.suffstats import SufficientStats

D = 3


def _sha(state) -> str:
    return hashlib.sha256(canonical_json(state).encode("utf-8")).hexdigest()


@pytest.fixture
def prior(rng) -> PriorKnowledge:
    a = rng.standard_normal((D, D))
    return PriorKnowledge(rng.standard_normal(D), a @ a.T + D * np.eye(D), 12)


def _drive(target, prior, rng, queries=True):
    """A deterministic mixed op stream: creates, 1-D/2-D ingest, stats
    merges, drops, and (optionally) all three query kinds."""
    for i in range(4):
        target.create_session(f"die/{i}", prior, kappa0=2.0, v0=D + 2.0)
    for i in range(4):
        key = f"die/{i}"
        target.ingest(key, rng.standard_normal(D))  # Welford path
        target.ingest(key, rng.standard_normal((6, D)))  # Chan block path
    shard_stats = SufficientStats.from_samples(rng.standard_normal((5, D)))
    target.ingest_stats("die/1", shard_stats)
    target.drop_session("die/3")
    if queries:
        lower, upper = np.full(D, -2.0), np.full(D, 2.0)
        target.query_many(
            [
                ("estimate", "die/0", None),
                ("loglik", "die/1", rng.standard_normal((4, D))),
                ("yield", "die/2", (lower, upper)),
                ("estimate", "die/0", None),
            ]
        )


class TestReplayBitIdentity:
    def test_replay_reproduces_state_sha(self, prior, rng, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "s.wal", shard_id=0)
        live = ShardWorker(shard_id=0, wal=wal)
        _drive(live, prior, rng)
        replayed = ShardWorker(shard_id=0)
        n = replayed.replay(wal)
        assert n == wal.last_seq
        # the replayed worker has no WAL, so compare the worker state sans
        # the covered-offset marker
        live_state = live.state_dict()
        assert live_state.pop("wal") == {"seq": wal.last_seq}
        assert _sha(live_state) == _sha(replayed.state_dict())
        wal.close()

    def test_replay_preserves_welford_vs_chan_rounding(self, prior, rng, tmp_path):
        """1-D and (n, d) ingests replay down their original code paths."""
        wal = WriteAheadLog.create(tmp_path / "s.wal", shard_id=0)
        live = ShardWorker(shard_id=0, wal=wal)
        live.create_session("k", prior)
        for _ in range(10):
            live.ingest("k", rng.standard_normal(D))
        live.ingest("k", rng.standard_normal((7, D)))
        replayed = ShardWorker(shard_id=0)
        replayed.replay(wal)
        a = live.store.get("k").stats
        b = replayed.store.get("k").stats
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.scatter, b.scatter)
        wal.close()

    def test_replay_reproduces_evictions(self, prior, rng, tmp_path):
        """LRU evictions are part of the replayed history (same bounds)."""
        wal = WriteAheadLog.create(tmp_path / "s.wal", shard_id=0)
        live = ShardWorker(shard_id=0, max_sessions=2, wal=wal)
        for i in range(5):
            live.create_session(f"k{i}", prior)
            live.ingest(f"k{i}", rng.standard_normal(D))
        assert live.store.evictions == 3
        replayed = ShardWorker(shard_id=0, max_sessions=2)
        replayed.replay(wal)
        assert replayed.store.evictions == 3
        assert replayed.session_keys() == live.session_keys()
        assert _sha(replayed.state_dict()) == _sha(
            {k: v for k, v in live.state_dict().items() if k != "wal"}
        )
        wal.close()

    def test_replay_swallows_failed_ops_but_keeps_their_ticks(
        self, prior, rng, tmp_path
    ):
        wal = WriteAheadLog.create(tmp_path / "s.wal", shard_id=0)
        live = ShardWorker(shard_id=0, wal=wal)
        live.create_session("k", prior)
        with pytest.raises(SessionNotFoundError):
            live.ingest("missing", rng.standard_normal(D))
        live.ingest("k", rng.standard_normal(D))
        replayed = ShardWorker(shard_id=0)
        assert replayed.replay(wal) == wal.last_seq
        assert replayed.store.clock == live.store.clock
        wal.close()

    def test_touch_replay_matches_live_ticks_past_missing_keys(
        self, prior, rng, tmp_path
    ):
        """A batch naming a missing key must replay every tick it caused.

        The live scorer re-attempts the snapshot on each request naming a
        key whose earlier snapshot failed — each attempt ticks the store
        clock — while a request whose key already snapshotted is served
        from the batch cache (no tick).  Regression: replay used to abort
        the touch loop at the first missing key, starving later keys of
        their ticks, and recorded each distinct key only once.
        """
        wal = WriteAheadLog.create(tmp_path / "s.wal", shard_id=0)
        live = ShardWorker(shard_id=0, wal=wal)
        live.create_session("k", prior)
        live.ingest("k", rng.standard_normal((4, D)))
        with pytest.raises(SessionNotFoundError):
            live.query_many(
                [
                    ("estimate", "ghost", None),  # attempt + tick, fails
                    ("estimate", "k", None),  # snapshot + tick
                    ("estimate", "ghost", None),  # re-attempt + tick, fails
                    ("estimate", "k", None),  # cached — no tick
                ]
            )
        replayed = ShardWorker(shard_id=0)
        replayed.replay(wal)
        assert replayed.store.clock == live.store.clock
        assert replayed.store.to_dict() == live.store.to_dict()
        live_requests = live.counters.snapshot()["requests"]
        assert replayed.counters.snapshot()["requests"] == live_requests
        wal.close()

    def test_touch_replay_preserves_eviction_decisions_after_failures(
        self, prior, rng, tmp_path
    ):
        """TTL eviction depends on the exact tick count, so the ticks a
        failing key causes must survive replay or recency diverges."""
        wal = WriteAheadLog.create(tmp_path / "s.wal", shard_id=0)
        live = ShardWorker(shard_id=0, ttl_ops=6, wal=wal)
        live.create_session("old", prior)
        live.create_session("new", prior)
        # repeated queries of an evicted/missing key keep ticking the
        # clock toward "old"'s TTL horizon
        with pytest.raises(SessionNotFoundError):
            live.query_many([("estimate", "ghost", None)] * 5)
        live.ingest("new", rng.standard_normal(D))
        assert live.session_keys() == ["new"]  # "old" aged out
        replayed = ShardWorker(shard_id=0, ttl_ops=6)
        replayed.replay(wal)
        assert replayed.session_keys() == live.session_keys()
        assert replayed.store.evictions == live.store.evictions
        assert replayed.store.to_dict() == live.store.to_dict()
        wal.close()

    def test_touch_records_reproduce_query_clock_ticks(self, prior, rng, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "s.wal", shard_id=0)
        live = ShardWorker(shard_id=0, wal=wal)
        _drive(live, prior, rng, queries=True)
        clock_after_queries = live.store.clock
        replayed = ShardWorker(shard_id=0)
        replayed.replay(wal)
        assert replayed.store.clock == clock_after_queries
        snap = replayed.counters.snapshot()
        live_snap = live.counters.snapshot()
        assert snap["requests_total"] == live_snap["requests_total"]
        assert snap["requests"] == live_snap["requests"]
        wal.close()


class TestCrashRecovery:
    def test_kill_mid_ingest_recovers_sha_identically(self, prior, rng, tmp_path):
        """SIGKILL mid-append: the torn record was never acknowledged, so
        recovery must equal the state after the last *acknowledged* op."""
        wal = WriteAheadLog.create(tmp_path / "s.wal", shard_id=0)
        live = ShardWorker(shard_id=0, wal=wal)
        live.create_session("k", prior)
        for _ in range(8):
            live.ingest("k", rng.standard_normal((3, D)))
        reference_sha = _sha(
            {k: v for k, v in live.state_dict().items() if k != "wal"}
        )
        wal.close()
        # simulate the process dying part-way through writing the next
        # ingest record: half a line, no newline
        with open(tmp_path / "s.wal", "ab") as handle:
            handle.write(b'{"prev": "abc", "record": {"seq": 99, "op": "ing')
        recovered_wal = WriteAheadLog.open(tmp_path / "s.wal")
        recovered = ShardWorker(shard_id=0)
        recovered.replay(recovered_wal)
        assert _sha(recovered.state_dict()) == reference_sha
        recovered_wal.close()

    def test_restore_replays_only_the_tail(self, prior, rng, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "s.wal", shard_id=0)
        live = ShardWorker(shard_id=0, wal=wal)
        live.create_session("k", prior)
        live.ingest("k", rng.standard_normal((4, D)))
        live.checkpoint(tmp_path / "s.ckpt")
        covered = wal.last_seq
        live.ingest("k", rng.standard_normal((4, D)))  # past the checkpoint
        live.ingest("k", rng.standard_normal(D))
        wal.sync()

        reopened = WriteAheadLog.open(tmp_path / "s.wal")
        assert reopened.last_seq == covered + 2
        restored = ShardWorker.restore(
            tmp_path / "s.ckpt", shard_id=0, wal=reopened
        )
        assert _sha(restored.state_dict()) == _sha(live.state_dict())
        wal.close()
        reopened.close()

    def test_compact_truncates_covered_prefix(self, prior, rng, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "s.wal", shard_id=0)
        live = ShardWorker(shard_id=0, wal=wal)
        live.create_session("k", prior)
        live.ingest("k", rng.standard_normal((4, D)))
        covered = wal.last_seq
        live.compact(tmp_path / "s.ckpt")
        assert wal.base_seq == covered
        assert wal.verify() == 0
        # post-compaction ops land in the truncated log and restore cleanly
        live.ingest("k", rng.standard_normal(D))
        wal.sync()
        reopened = WriteAheadLog.open(tmp_path / "s.wal")
        restored = ShardWorker.restore(
            tmp_path / "s.ckpt", shard_id=0, wal=reopened
        )
        assert _sha(restored.state_dict()) == _sha(live.state_dict())
        wal.close()
        reopened.close()

    def test_crash_between_checkpoint_and_truncate_is_harmless(
        self, prior, rng, tmp_path
    ):
        """Checkpoint lands, truncation doesn't: restore skips the covered
        prefix by sequence number and replays nothing twice."""
        wal = WriteAheadLog.create(tmp_path / "s.wal", shard_id=0)
        live = ShardWorker(shard_id=0, wal=wal)
        live.create_session("k", prior)
        live.ingest("k", rng.standard_normal((4, D)))
        live.checkpoint(tmp_path / "s.ckpt")  # covered, but NOT truncated
        wal.close()
        reopened = WriteAheadLog.open(tmp_path / "s.wal")
        assert reopened.verify() > 0  # full log still present
        restored = ShardWorker.restore(
            tmp_path / "s.ckpt", shard_id=0, wal=reopened
        )
        assert _sha(restored.state_dict()) == _sha(live.state_dict())
        reopened.close()


class TestWalV2AndDelta:
    """Binary-format logging, group commit, and suffstats-delta records."""

    def test_v2_replay_reproduces_state_sha(self, prior, rng, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "s.wal", shard_id=0, version=2)
        live = ShardWorker(shard_id=0, wal=wal)
        _drive(live, prior, rng)
        replayed = ShardWorker(shard_id=0)
        assert replayed.replay(wal) == wal.last_seq
        live_state = live.state_dict()
        live_state.pop("wal")
        assert _sha(live_state) == _sha(replayed.state_dict())
        wal.close()

    def test_kill_mid_ingest_recovers_v2(self, prior, rng, tmp_path):
        """The v1 kill test, on the binary format: torn frame bytes at the
        tail recover to the last acknowledged state."""
        wal = WriteAheadLog.create(
            tmp_path / "s.wal", shard_id=0, version=2, flush_records=1
        )
        live = ShardWorker(shard_id=0, wal=wal)
        live.create_session("k", prior)
        for _ in range(8):
            live.ingest("k", rng.standard_normal((3, D)))
        reference_sha = _sha(
            {k: v for k, v in live.state_dict().items() if k != "wal"}
        )
        wal.close()
        with open(tmp_path / "s.wal", "ab") as handle:
            handle.write(b"\x40\x01\x00\x00half-a-frame")  # torn length+body
        recovered_wal = WriteAheadLog.open(tmp_path / "s.wal")
        recovered = ShardWorker(shard_id=0)
        recovered.replay(recovered_wal)
        assert _sha(recovered.state_dict()) == reference_sha
        recovered_wal.close()

    def test_kill_mid_ingest_recovers_group_commit(self, prior, rng, tmp_path):
        """With group commit, the flushed prefix (+ the checkpoint barrier)
        defines exactly what recovery reproduces."""
        wal = WriteAheadLog.create(
            tmp_path / "s.wal", shard_id=0, version=2, flush_records=4
        )
        live = ShardWorker(shard_id=0, wal=wal)
        live.create_session("k", prior)
        for _ in range(6):
            live.ingest("k", rng.standard_normal((3, D)))
        wal.sync()  # the barrier a checkpoint would take
        reference_sha = _sha(
            {k: v for k, v in live.state_dict().items() if k != "wal"}
        )
        # two more acked-but-unflushed ingests, then SIGKILL (no close)
        live.ingest("k", rng.standard_normal((3, D)))
        live.ingest("k", rng.standard_normal((3, D)))
        assert wal.pending_records == 2
        recovered_wal = WriteAheadLog.open(tmp_path / "s.wal")
        recovered = ShardWorker(shard_id=0)
        recovered.replay(recovered_wal)
        assert _sha(recovered.state_dict()) == reference_sha
        recovered_wal.close()
        wal.close()

    def test_delta_logging_is_bit_identical_to_raw(self, prior, tmp_path):
        """Qualifying blocks logged as suffstats leave the *same* worker
        state as raw-sample logging — same bits, not just 1e-10."""
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        raw_wal = WriteAheadLog.create(tmp_path / "raw.wal", shard_id=0, version=2)
        raw = ShardWorker(shard_id=0, wal=raw_wal)
        delta_wal = WriteAheadLog.create(
            tmp_path / "delta.wal", shard_id=0, version=2
        )
        delta = ShardWorker(shard_id=0, wal=delta_wal, wal_delta_rows=4)
        for worker, rng in ((raw, rng_a), (delta, rng_b)):
            worker.create_session("k", prior, kappa0=2.0, v0=D + 2.0)
            worker.ingest("k", rng.standard_normal((8, D)))  # above threshold
            worker.ingest("k", rng.standard_normal((2, D)))  # below: raw
            worker.ingest("k", rng.standard_normal(D))  # 1-D: always raw
        assert _sha(raw.state_dict()) == _sha(delta.state_dict())
        raw_ops = [op for _, op, _ in raw_wal.records()]
        delta_ops = [op for _, op, _ in delta_wal.records()]
        assert raw_ops == ["create", "ingest", "ingest", "ingest"]
        assert delta_ops == ["create", "ingest_stats", "ingest", "ingest"]
        raw_wal.close()
        delta_wal.close()

    def test_delta_records_replay_bit_identically(self, prior, rng, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "s.wal", shard_id=0, version=2)
        live = ShardWorker(shard_id=0, wal=wal, wal_delta_rows=4)
        live.create_session("k", prior)
        for rows in (8, 2, 16, 1):
            live.ingest("k", rng.standard_normal((rows, D)))
        replayed = ShardWorker(shard_id=0)
        replayed.replay(wal)
        a = live.store.get("k").stats
        b = replayed.store.get("k").stats
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.scatter, b.scatter)
        live_state = live.state_dict()
        live_state.pop("wal")
        assert _sha(live_state) == _sha(replayed.state_dict())
        wal.close()

    def test_delta_wal_is_smaller_than_raw(self, prior, rng, tmp_path):
        raw_wal = WriteAheadLog.create(tmp_path / "raw.wal", shard_id=0, version=2)
        raw = ShardWorker(shard_id=0, wal=raw_wal)
        delta_wal = WriteAheadLog.create(
            tmp_path / "delta.wal", shard_id=0, version=2
        )
        delta = ShardWorker(shard_id=0, wal=delta_wal, wal_delta_rows=16)
        block = rng.standard_normal((512, D))
        for worker in (raw, delta):
            worker.create_session("k", prior)
            worker.ingest("k", block)
            worker.wal.sync()
        assert delta_wal.path.stat().st_size < raw_wal.path.stat().st_size / 10
        raw_wal.close()
        delta_wal.close()

    def test_stats_exposes_wal_gauges(self, prior, rng, tmp_path):
        wal = WriteAheadLog.create(
            tmp_path / "s.wal", shard_id=0, version=2, flush_records=2
        )
        worker = ShardWorker(shard_id=0, wal=wal)
        worker.create_session("k", prior)
        worker.ingest("k", rng.standard_normal((3, D)))
        out = worker.stats()
        assert out["wal"]["version"] == 2
        assert out["wal"]["records_appended"] == 2
        assert out["wal"]["flush_count"] == 1
        assert out["wal"]["pending_records"] == 0
        assert out["wal"]["bytes_written"] > 0
        # the WAL observes the worker's counters: gauges in the snapshot...
        assert out["wal_records"] == 2
        assert out["wal_bytes"] >= out["wal"]["bytes_written"]
        assert out["wal_flushes"] == 1
        # ...but never in persisted state (checkpoint bytes are pinned)
        assert "wal_records" not in worker.counters.state_dict()
        wal.close()
