"""ShardedMomentService: hashing, merge-on-read equivalence, manifests."""

import json

import numpy as np
import pytest

from repro.core.prior import PriorKnowledge
from repro.exceptions import ConfigError, SessionNotFoundError
from repro.serving import (
    MANIFEST_SCHEMA,
    HashRing,
    ShardedMomentService,
    ShardWorker,
)

D = 3
KAPPA0 = 2.0
V0 = D + 2.0
KEYS = [f"die/{i}" for i in range(12)]


@pytest.fixture
def prior(rng) -> PriorKnowledge:
    a = rng.standard_normal((D, D))
    return PriorKnowledge(rng.standard_normal(D), a @ a.T + D * np.eye(D), 10)


@pytest.fixture
def blocks(rng):
    """Per-key sample blocks: a mix of single rows and small batches."""
    out = {}
    for i, key in enumerate(KEYS):
        n = 3 + (i % 4) * 2
        out[key] = rng.standard_normal((n, D)) + 0.1 * i
    return out


def _populate(service, prior, blocks, order=None):
    keys = list(blocks) if order is None else order
    for key in keys:
        service.create_session(key, prior, kappa0=KAPPA0, v0=V0, exist_ok=True)
    for key in keys:
        block = blocks[key]
        service.ingest(key, block[0])  # one Welford row
        if block.shape[0] > 1:
            service.ingest(key, block[1:])  # one Chan block


def _reference(prior, blocks):
    """Single-process answers for every key (a WAL-less worker)."""
    with ShardWorker() as svc:
        _populate(svc, prior, blocks)
        out = {}
        for key in KEYS:
            est = svc.query_many([("estimate", key, None)])[0]
            out[key] = (est.mean, est.covariance, est.n_samples)
        return out


class TestHashRing:
    def test_placement_is_deterministic(self):
        a, b = HashRing(8), HashRing(8)
        for key in KEYS:
            assert a.shard_for(key) == b.shard_for(key)

    def test_single_shard_is_always_zero(self):
        ring = HashRing(1)
        assert all(ring.shard_for(k) == 0 for k in KEYS)

    def test_every_shard_receives_keys(self):
        ring = HashRing(4, virtual_nodes=64)
        hits = {ring.shard_for(f"key/{i}") for i in range(500)}
        assert hits == {0, 1, 2, 3}

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ConfigError):
            HashRing(0)


class TestMergeOnReadEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    @pytest.mark.parametrize("placement", ["hash", "spread"])
    def test_matches_single_process(self, n_shards, placement, prior, blocks):
        reference = _reference(prior, blocks)
        with ShardedMomentService(
            n_shards=n_shards, placement=placement, flush_rows=4
        ) as svc:
            _populate(svc, prior, blocks)
            for key in KEYS:
                est = svc.estimate(key)
                mean, cov, n = reference[key]
                np.testing.assert_allclose(est.mean, mean, atol=1e-10)
                np.testing.assert_allclose(est.covariance, cov, atol=1e-10)
                assert est.n_samples == n

    def test_ingest_order_does_not_matter(self, prior, blocks, rng):
        reference = _reference(prior, blocks)
        for seed in (0, 1):
            order = list(KEYS)
            np.random.default_rng(seed).shuffle(order)
            with ShardedMomentService(
                n_shards=4, placement="spread", flush_rows=2
            ) as svc:
                _populate(svc, prior, blocks, order=order)
                for key in KEYS:
                    est = svc.estimate(key)
                    np.testing.assert_allclose(
                        est.mean, reference[key][0], atol=1e-10
                    )
                    np.testing.assert_allclose(
                        est.covariance, reference[key][1], atol=1e-10
                    )

    def test_loglik_and_yield_match(self, prior, blocks, rng):
        x = rng.standard_normal((5, D))
        lower, upper = np.full(D, -2.0), np.full(D, 2.0)
        with ShardWorker() as single:
            _populate(single, prior, blocks)
            ref_ll = single.query_many([("loglik", KEYS[0], x)])[0]
            ref_y = single.query_many([("yield", KEYS[1], (lower, upper))])[0]
        with ShardedMomentService(n_shards=4, flush_rows=4) as svc:
            _populate(svc, prior, blocks)
            assert svc.loglik(KEYS[0], x) == pytest.approx(ref_ll, abs=1e-10)
            # the box-probability integrator carries its own quadrature
            # tolerance; 1e-6 matches the single-process service suite
            assert svc.yield_prob(KEYS[1], lower, upper) == pytest.approx(
                ref_y, abs=1e-6
            )

    def test_missing_key_raises_everywhere(self, prior, blocks):
        for placement in ("hash", "spread"):
            with ShardedMomentService(n_shards=4, placement=placement) as svc:
                _populate(svc, prior, blocks)
                with pytest.raises(SessionNotFoundError):
                    svc.estimate("nope")


class TestLifecycle:
    def test_ingest_totals_are_monotone(self, prior, rng):
        with ShardedMomentService(n_shards=4, flush_rows=8) as svc:
            svc.create_session("k", prior)
            totals = [svc.ingest("k", rng.standard_normal(D)) for _ in range(20)]
            assert totals == sorted(totals)
            assert totals[-1] == 20

    def test_session_keys_union_and_drop(self, prior, blocks):
        with ShardedMomentService(n_shards=4, placement="spread") as svc:
            _populate(svc, prior, blocks)
            assert svc.session_keys() == sorted(KEYS)
            assert svc.drop_session(KEYS[0]) is True
            assert svc.drop_session(KEYS[0]) is False
            assert KEYS[0] not in svc.session_keys()

    def test_stats_shape(self, prior, blocks):
        with ShardedMomentService(n_shards=2) as svc:
            _populate(svc, prior, blocks)
            svc.estimate(KEYS[0])
            stats = svc.stats()
            assert stats["n_shards"] == 2
            assert stats["placement"] == "hash"
            assert len(stats["shards"]) == 2
            assert stats["sessions_live"] == len(KEYS)

    def test_invalid_placement_rejected(self):
        with pytest.raises(ConfigError):
            ShardedMomentService(n_shards=2, placement="mirror")


class TestPerKeyReadBarrier:
    """A query flushes the buffers of the keys it reads, and only those."""

    def test_query_flushes_only_the_queried_key(self, prior, rng):
        with ShardedMomentService(n_shards=4, flush_rows=16) as svc:
            for key in ("a", "b"):
                svc.create_session(key, prior, kappa0=KAPPA0, v0=V0)
                for _ in range(5):
                    svc.ingest(key, rng.standard_normal(D))
            assert svc.estimate("a").n_samples == 5
            coalescing = svc.stats()["coalescing"]
            # "b" was still buffered when stats() arrived
            assert coalescing["pending_keys"] == 1
            assert coalescing["pending_rows"] == 5
            assert coalescing["blocks"] == 2
            assert coalescing["barrier_blocks"] == 2

    def test_unqueried_keys_keep_coalescing(self, prior, rng):
        with ShardedMomentService(n_shards=2, flush_rows=8) as svc:
            for key in ("hot", "cold"):
                svc.create_session(key, prior, kappa0=KAPPA0, v0=V0)
            for _ in range(8):
                svc.ingest("hot", rng.standard_normal(D))
                svc.estimate("cold")
            coalescing = svc.stats()["coalescing"]
            # one full threshold block, no barrier-forced fragments
            assert coalescing["blocks"] == 1
            assert coalescing["rows"] == 8
            assert coalescing["barrier_blocks"] == 0

    def test_batch_barrier_covers_every_named_key(self, prior, blocks):
        reference = _reference(prior, blocks)
        with ShardedMomentService(n_shards=4, flush_rows=64) as svc:
            _populate(svc, prior, blocks)
            queries = [("estimate", key, None) for key in KEYS[3:7] + KEYS[3:5]]
            for (_, key, _), est in zip(queries, svc.query_many(queries)):
                np.testing.assert_allclose(est.mean, reference[key][0], atol=1e-10)
                assert est.n_samples == reference[key][2]
            assert svc.stats()["coalescing"]["pending_keys"] == len(KEYS) - 4

    def test_unreadable_buffer_does_not_fail_other_reads(self, prior, rng):
        """Rows buffered for a key that has no session fail that key's own
        read, not an unrelated one (a global drain used to raise here)."""
        with ShardedMomentService(n_shards=2, flush_rows=8) as svc:
            svc.create_session("real", prior, kappa0=KAPPA0, v0=V0)
            svc.ingest("ghost", rng.standard_normal(D))
            svc.ingest("real", rng.standard_normal(D))
            assert svc.estimate("real").n_samples == 1
            with pytest.raises(SessionNotFoundError):
                svc.estimate("ghost")

    @pytest.mark.parametrize("placement", ["hash", "spread"])
    def test_interleaved_reads_match_single_process(self, placement, prior, rng):
        keys = KEYS[:6]
        stream = [
            (keys[int(rng.integers(len(keys)))], rng.standard_normal(D))
            for _ in range(200)
        ]
        with ShardWorker() as single, ShardedMomentService(
            n_shards=4, placement=placement, flush_rows=8
        ) as svc:
            for service in (single, svc):
                for key in keys:
                    service.create_session(key, prior, kappa0=KAPPA0, v0=V0)
            for i, (key, row) in enumerate(stream):
                single.ingest(key, row)
                svc.ingest(key, row)
                if i % 7 == 0:
                    probe = keys[i % len(keys)]
                    expected = single.query_many([("estimate", probe, None)])[0]
                    got = svc.estimate(probe)
                    np.testing.assert_allclose(got.mean, expected.mean, atol=1e-10)
                    np.testing.assert_allclose(
                        got.covariance, expected.covariance, atol=1e-10
                    )
                    assert got.n_samples == expected.n_samples

    def test_recover_is_bit_identical_after_partial_barriers(
        self, prior, rng, tmp_path
    ):
        wal_dir = tmp_path / "wal"
        keys = KEYS[:8]
        svc = ShardedMomentService(n_shards=4, wal_dir=wal_dir, flush_rows=8)
        for key in keys:
            svc.create_session(key, prior, kappa0=KAPPA0, v0=V0)
        for i in range(300):
            svc.ingest(keys[int(rng.integers(len(keys)))], rng.standard_normal(D))
            if i % 11 == 0:
                svc.estimate(keys[i % len(keys)])
        svc.close()
        live = [worker.store.to_dict() for worker in svc.workers]
        recovered = ShardedMomentService.recover(wal_dir)
        assert [worker.store.to_dict() for worker in recovered.workers] == live
        recovered.close()


class TestSingleShardGate:
    def test_checkpoint_bytes_match_moment_service(self, prior, blocks, tmp_path):
        """``--shards 1`` is bit-identical to a bare WAL-less worker:
        counters, eviction order, and checkpoint bytes."""
        single = ShardWorker()
        sharded = ShardedMomentService(n_shards=1)
        for svc in (single, sharded):
            _populate(svc, prior, blocks)
            svc.query_many(
                [("estimate", k, None) for k in KEYS[:3]]
            )
            svc.drop_session(KEYS[-1])
        single.checkpoint(tmp_path / "single.ckpt")
        sharded.checkpoint(tmp_path / "sharded")
        shard_file = tmp_path / "sharded" / "shard-000.ckpt"
        assert shard_file.read_bytes() == (tmp_path / "single.ckpt").read_bytes()
        single.close()
        sharded.close()


class TestManifestCheckpoint:
    def test_manifest_round_trip(self, prior, blocks, tmp_path):
        with ShardedMomentService(n_shards=4, flush_rows=4) as svc:
            _populate(svc, prior, blocks)
            svc.estimate(KEYS[0])
            svc.checkpoint(tmp_path / "ckpt")
            live_reference = {k: svc.estimate(k).mean for k in KEYS}

        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["n_shards"] == 4
        assert len(manifest["shards"]) == 4

        restored = ShardedMomentService.restore(tmp_path / "ckpt")
        for key in KEYS:
            np.testing.assert_array_equal(
                restored.estimate(key).mean, live_reference[key]
            )
        restored.close()

    def test_restore_rejects_wrong_shape(self, prior, blocks, tmp_path):
        with ShardedMomentService(n_shards=2) as svc:
            _populate(svc, prior, blocks)
            svc.checkpoint(tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["schema"] = "something-else"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError):
            ShardedMomentService.restore(tmp_path / "ckpt")


class TestWalIntegration:
    def test_restore_replays_wal_tail(self, prior, blocks, rng, tmp_path):
        wal_dir = tmp_path / "wal"
        svc = ShardedMomentService(n_shards=2, wal_dir=wal_dir, flush_rows=1)
        _populate(svc, prior, blocks)
        svc.checkpoint(tmp_path / "ckpt")
        # ops past the checkpoint live only in the WALs
        svc.ingest(KEYS[0], rng.standard_normal((5, D)))
        svc.create_session("late", prior)
        svc.ingest("late", rng.standard_normal(D))
        expected = {k: svc.estimate(k).mean for k in KEYS + ["late"]}
        svc.close()

        restored = ShardedMomentService.restore(tmp_path / "ckpt", wal_dir=wal_dir)
        for key, mean in expected.items():
            np.testing.assert_array_equal(restored.estimate(key).mean, mean)
        restored.close()

    def test_recover_from_wal_alone(self, prior, blocks, rng, tmp_path):
        wal_dir = tmp_path / "wal"
        svc = ShardedMomentService(n_shards=4, wal_dir=wal_dir, flush_rows=1)
        _populate(svc, prior, blocks)
        expected = {k: svc.estimate(k).mean for k in KEYS}
        svc.close()

        recovered = ShardedMomentService.recover(wal_dir)
        assert recovered.n_shards == 4
        for key, mean in expected.items():
            np.testing.assert_array_equal(recovered.estimate(key).mean, mean)
        recovered.close()

    def test_recover_rebuilds_router_counters_from_shards(
        self, prior, blocks, tmp_path
    ):
        """WAL-only recovery derives top-level counters from the shard
        sums (regression: they used to stay zero)."""
        wal_dir = tmp_path / "wal"
        svc = ShardedMomentService(n_shards=2, wal_dir=wal_dir, flush_rows=1)
        _populate(svc, prior, blocks)
        expected_samples = svc.counters.state_dict()["ingested_samples"]
        svc.close()
        recovered = ShardedMomentService.recover(wal_dir)
        stats = recovered.stats()
        assert expected_samples > 0
        assert stats["ingested_samples"] == expected_samples
        shard_sum = sum(s["ingested_samples"] for s in stats["shards"])
        assert stats["ingested_samples"] == shard_sum
        recovered.close()

    def test_recover_single_shard_counters_match_worker(self, prior, blocks, tmp_path):
        """In single-shard mode every count lives on the worker, so a
        WAL-only recovery reproduces the full counter state exactly."""
        wal_dir = tmp_path / "wal"
        svc = ShardedMomentService(n_shards=1, wal_dir=wal_dir)
        _populate(svc, prior, blocks)
        svc.query_many([("estimate", key, None) for key in KEYS[:3]])
        expected = svc.workers[0].counters.state_dict()
        svc.close()
        recovered = ShardedMomentService.recover(wal_dir)
        assert recovered.workers[0].counters.state_dict() == expected
        assert recovered.counters.state_dict()["requests"] == expected["requests"]
        recovered.close()

    def test_restore_reconciles_counters_with_wal_tail(
        self, prior, blocks, rng, tmp_path
    ):
        """Counters must reflect the replayed WAL tail, not the stale
        manifest snapshot, and multi-shard router-only request counts
        survive via the manifest."""
        wal_dir = tmp_path / "wal"
        svc = ShardedMomentService(n_shards=2, wal_dir=wal_dir, flush_rows=1)
        _populate(svc, prior, blocks)
        svc.estimate(KEYS[0])
        svc.checkpoint(tmp_path / "ckpt")
        checkpoint_requests = svc.counters.state_dict()["requests"]
        # this ingest lives only in the WAL tails
        svc.ingest(KEYS[0], rng.standard_normal((5, D)))
        expected_samples = svc.counters.state_dict()["ingested_samples"]
        svc.close()
        restored = ShardedMomentService.restore(tmp_path / "ckpt", wal_dir=wal_dir)
        state = restored.counters.state_dict()
        assert state["ingested_samples"] == expected_samples
        assert state["requests"] == checkpoint_requests
        restored.close()

    def test_compact_truncates_all_shards(self, prior, blocks, rng, tmp_path):
        wal_dir = tmp_path / "wal"
        svc = ShardedMomentService(n_shards=2, wal_dir=wal_dir, flush_rows=1)
        _populate(svc, prior, blocks)
        svc.compact(tmp_path / "ckpt")
        for worker in svc.workers:
            assert worker.wal is not None
            assert worker.wal.verify() == 0
        # post-compaction ops restore from checkpoint + truncated tails
        svc.ingest(KEYS[0], rng.standard_normal((4, D)))
        expected = svc.estimate(KEYS[0]).mean
        svc.close()
        restored = ShardedMomentService.restore(tmp_path / "ckpt", wal_dir=wal_dir)
        np.testing.assert_array_equal(restored.estimate(KEYS[0]).mean, expected)
        restored.close()
