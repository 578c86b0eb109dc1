"""ShardWorker: bit-identical WAL replay, crash recovery."""

import hashlib
import json

import numpy as np
import pytest

from repro.core.prior import PriorKnowledge
from repro.exceptions import DimensionError, ReproError, SessionNotFoundError
from repro.io import canonical_json
from repro.serving import ShardedMomentService, ShardWorker, WriteAheadLog, handle_request
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


class TestIngestShape:
    @pytest.mark.parametrize("samples", [5.0, np.ones((2, 2, D))])
    def test_scalar_and_3d_blocks_are_refused_before_logging(
        self, prior, rng, tmp_path, samples
    ):
        wal = WriteAheadLog.create(tmp_path / "s.wal", shard_id=0)
        with ShardWorker(shard_id=0, wal=wal) as worker:
            worker.create_session("k", prior)
            seq = wal.last_seq
            with pytest.raises(DimensionError):
                worker.ingest("k", samples)
            assert wal.last_seq == seq
            assert worker.ingest("k", rng.standard_normal(D)) == 1


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
        wal = WriteAheadLog.create(tmp_path / "s.wal", shard_id=0)
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
        wal = WriteAheadLog.create(tmp_path / "s.wal", shard_id=0, flush_records=1)
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
        wal = WriteAheadLog.create(tmp_path / "s.wal", shard_id=0, flush_records=4)
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
        """A block logged as its suffstats leaves the *same* worker state
        as the block logged raw and replayed — same bits, not just 1e-10.
        The raw side is the ``ingest`` record earlier builds wrote for a
        block, appended by hand."""
        rng = np.random.default_rng(5)
        blocks = [rng.standard_normal((8, D)), rng.standard_normal((2, D))]
        row = rng.standard_normal(D)
        delta_wal = WriteAheadLog.create(tmp_path / "delta.wal", shard_id=0)
        delta = ShardWorker(shard_id=0, wal=delta_wal)
        delta.create_session("k", prior, kappa0=2.0, v0=D + 2.0)
        delta.ingest_stats("k", SufficientStats.from_samples(blocks[0]))
        delta.ingest("k", blocks[1])  # a block: logged as its statistics
        delta.ingest("k", row)  # a 1-D row: logged raw
        raw_wal = WriteAheadLog.create(tmp_path / "raw.wal", shard_id=0)
        ShardWorker(shard_id=0, wal=raw_wal).create_session(
            "k", prior, kappa0=2.0, v0=D + 2.0
        )
        for samples in (*blocks, row):
            raw_wal.append("ingest", {"key": "k", "samples": samples})
        raw = ShardWorker(shard_id=0)
        assert raw.replay(raw_wal) == 4
        delta_state = delta.state_dict()
        delta_state.pop("wal")
        assert _sha(raw.state_dict()) == _sha(delta_state)
        raw_ops = [op for _, op, _ in raw_wal.records()]
        delta_ops = [op for _, op, _ in delta_wal.records()]
        assert raw_ops == ["create", "ingest", "ingest", "ingest"]
        assert delta_ops == ["create", "ingest_stats", "ingest_stats", "ingest"]
        raw_wal.close()
        delta_wal.close()

    def test_delta_records_replay_bit_identically(self, prior, rng, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "s.wal", shard_id=0)
        live = ShardWorker(shard_id=0, wal=wal)
        live.create_session("k", prior)
        for rows in (8, 2, 16, 1):
            block = rng.standard_normal((rows, D))
            if rows >= 4:
                live.ingest_stats("k", SufficientStats.from_samples(block))
            else:
                live.ingest("k", block)
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
        """A worker logs a block as its statistics: >10x smaller than the
        raw ``ingest`` record of the same block, which replays to the same
        state."""
        raw_wal = WriteAheadLog.create(tmp_path / "raw.wal", shard_id=0)
        raw = ShardWorker(shard_id=0, wal=raw_wal)
        delta_wal = WriteAheadLog.create(tmp_path / "delta.wal", shard_id=0)
        delta = ShardWorker(shard_id=0, wal=delta_wal)
        block = rng.standard_normal((512, D))
        for worker in (raw, delta):
            worker.create_session("k", prior)
        raw_wal.append("ingest", {"key": "k", "samples": block})
        delta.ingest("k", block)
        for worker in (raw, delta):
            worker.wal.sync()
        assert delta_wal.path.stat().st_size < raw_wal.path.stat().st_size / 10
        replayed = [ShardWorker(shard_id=0) for _ in range(2)]
        for worker, wal in zip(replayed, (raw_wal, delta_wal)):
            worker.replay(wal)
        assert _sha(replayed[0].state_dict()) == _sha(replayed[1].state_dict())
        raw_wal.close()
        delta_wal.close()

    def test_stats_exposes_wal_gauges(self, prior, rng, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "s.wal", shard_id=0, flush_records=2)
        worker = ShardWorker(shard_id=0, wal=wal)
        worker.create_session("k", prior)
        worker.ingest("k", rng.standard_normal((3, D)))
        out = worker.stats()
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


class _RawBlockWorker(ShardWorker):
    """A worker that logs every block as a raw ``ingest`` record and
    folds it down the block path, as builds before the statistics record
    did."""

    def ingest(self, key, samples):
        arr = np.asarray(samples, dtype=float)
        self.wal.append("ingest", {"key": str(key), "samples": arr})
        total = self.store.ingest(key, arr)
        self.counters.record_ingest(1 if arr.ndim == 1 else arr.shape[0])
        return total


#: Blocks ``SufficientStats.from_samples`` refuses: a non-finite value, a
#: scatter that overflows, and no rows.
REFUSED_BLOCKS = {
    "nan": [[1.0, np.nan, 0.0], [1.0, 1.0, 1.0]],
    "overflow": [[1e200, 2.0, 0.0], [1.0, 1.0, 1.0]],
    "empty": np.empty((0, D)),
}


class TestBlockStatisticsRecord:
    """A block is logged as its ``(n, mean, scatter)``: recovery matches
    logs of raw blocks, and a block the statistics refuse leaves no
    trace."""

    def test_raw_block_log_recovers_to_the_same_state(self, prior, tmp_path):
        paths = {"raw": tmp_path / "raw.wal", "stats": tmp_path / "stats.wal"}
        for kind, cls in (("raw", _RawBlockWorker), ("stats", ShardWorker)):
            with cls(shard_id=0, wal=WriteAheadLog.create(paths[kind], shard_id=0)) as live:
                _drive(live, prior, np.random.default_rng(11))
                live.ingest("die/0", np.random.default_rng(12).standard_normal((64, D)))
        ops = {}
        shas = {}
        for kind, path in paths.items():
            with ShardWorker._recover(path) as recovered:
                shas[kind] = _sha(recovered.state_dict())
                ops[kind] = [op for _, op, _ in recovered.wal.records()]
        assert shas["raw"] == shas["stats"]
        assert ops["raw"].count("ingest_stats") == 1  # the one stats merge
        assert ops["stats"].count("ingest") == 4  # the four 1-D rows

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("block", sorted(REFUSED_BLOCKS))
    @pytest.mark.parametrize("kind", ["worker", "router-1"])
    def test_refused_block_leaves_no_trace(self, prior, rng, tmp_path, kind, block):
        """``state_dict`` (store, counters, covered WAL seq), the store
        clock and the log are as they were before the refused block."""
        if kind == "worker":
            service = ShardWorker(wal=WriteAheadLog.create(tmp_path / "w.wal", shard_id=0))
            worker = service
        else:
            service = ShardedMomentService(n_shards=1, wal_dir=tmp_path / "wal")
            (worker,) = service.workers
        with service:
            service.create_session("k", prior)
            service.ingest("k", rng.standard_normal((3, D)))
            before = (_sha(worker.state_dict()), worker.store.clock, worker.wal.last_seq)
            with pytest.raises(ReproError):
                service.ingest("k", np.asarray(REFUSED_BLOCKS[block], dtype=float))
            after = (_sha(worker.state_dict()), worker.store.clock, worker.wal.last_seq)
            assert after == before


#: Updates a d = 2 session holding the row ``[1, 2]`` refuses: each
#: overflows the scatter once combined with that row.
REFUSED_UPDATES = {
    "row": {"samples": [1e200, 2.0]},
    "stats": {"stats": {"n": 2, "mean": [1e200, 2.0], "scatter": [[0.0, 0.0], [0.0, 0.0]]}},
}


class TestRefusedBeforeLogging:
    """An update the statistics refuse is refused before it is logged: the
    log, the clock, the LRU order and the counters stay as they were, live
    and after recovery."""

    CREATE = {"op": "create", "prior_mean": [0.0, 0.0],
              "prior_covariance": [[1.0, 0.0], [0.0, 1.0]]}

    @staticmethod
    def _state(service):
        """Each shard's ``state_dict`` (store with clock and LRU order,
        counters, covered WAL seq) and its last logged seq."""
        workers = [service] if isinstance(service, ShardWorker) else service.workers
        return [(_sha(worker.state_dict()), worker.wal.last_seq) for worker in workers]

    @pytest.mark.parametrize("update", sorted(REFUSED_UPDATES))
    @pytest.mark.parametrize("kind", ["worker", "router-1", "router-4"])
    def test_refused_update_leaves_no_trace(self, tmp_path, kind, update):
        if kind == "worker":
            service = ShardWorker(wal=WriteAheadLog.create(tmp_path / "w.wal", shard_id=0))
        else:
            n_shards = int(kind.split("-")[1])
            service = ShardedMomentService(
                n_shards=n_shards, flush_rows=1, wal_dir=tmp_path / "wal"
            )

        def call(**request):
            return handle_request(service, json.dumps(request))

        with service, np.errstate(over="ignore", invalid="ignore"):
            assert call(key="a", **self.CREATE)["ok"]
            assert call(op="ingest", key="a", samples=[1.0, 2.0])["n"] == 1
            assert call(key="b", **self.CREATE)["ok"]  # "a" is now least recent
            before = self._state(service)
            counted = service.stats()["ingested_samples"], service.stats()["ingest_calls"]
            for _ in range(2):
                refused = call(op="ingest", key="a", **REFUSED_UPDATES[update])
                assert refused["error"] == "NotSPDError"
                assert self._state(service) == before
            assert (service.stats()["ingested_samples"], service.stats()["ingest_calls"]) == counted
        if kind == "worker":
            recovered = ShardWorker._recover(tmp_path / "w.wal")
        else:
            recovered = ShardedMomentService.recover(tmp_path / "wal")
        with recovered:
            assert self._state(recovered) == before
