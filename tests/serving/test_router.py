"""ShardedMomentService: hashing, merge-on-read equivalence, manifests."""

import json
import sys
import threading

import numpy as np
import pytest

from repro.core.prior import PriorKnowledge
from repro.exceptions import ConfigError, DimensionError, SessionNotFoundError
from repro.serving import (
    MANIFEST_SCHEMA,
    HashRing,
    ShardedMomentService,
    ShardWorker,
    WriteAheadLog,
    handle_request,
    merge_all,
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


def _spread_estimates(n_shards, prior, blocks):
    """Each key's blocks rotated over ``n_shards`` bare workers, read by
    Chan-merging every worker's statistics (:func:`merge_all`): the
    split-and-merge layout that additivity of ``(n, mean, scatter)``
    makes equal to one worker."""
    workers = [ShardWorker(shard_id=i) for i in range(n_shards)]
    _populate(_Rotating(workers), prior, blocks)
    out = {}
    for key in KEYS:
        views = [worker.collect(key) for worker in workers]
        merged = views[0]
        merged.stats = merge_all([view.stats for view in views])
        mean, cov = merged.map_moments()
        out[key] = (mean, cov, merged.n_ingested)
    return out


class _Rotating:
    """Creates a key on every worker; sends its blocks round-robin."""

    def __init__(self, workers):
        self.workers = workers
        self.cursor = {}

    def create_session(self, key, *args, **kwargs):
        for worker in self.workers:
            worker.create_session(key, *args, **kwargs)

    def ingest(self, key, block):
        cursor = self.cursor.get(key, 0)
        self.cursor[key] = cursor + 1
        self.workers[cursor % len(self.workers)].ingest(key, block)


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
        """The router (``hash``: each key on its home shard) and the
        split-and-merge oracle (``spread``) both match one worker."""
        reference = _reference(prior, blocks)
        if placement == "spread":
            got = _spread_estimates(n_shards, prior, blocks)
        else:
            with ShardedMomentService(n_shards=n_shards, flush_rows=4) as svc:
                _populate(svc, prior, blocks)
                got = {}
                for key in KEYS:
                    est = svc.estimate(key)
                    got[key] = (est.mean, est.covariance, est.n_samples)
        for key in KEYS:
            mean, cov, n = reference[key]
            np.testing.assert_allclose(got[key][0], mean, atol=1e-10)
            np.testing.assert_allclose(got[key][1], cov, atol=1e-10)
            assert got[key][2] == n

    def test_ingest_order_does_not_matter(self, prior, blocks, rng):
        reference = _reference(prior, blocks)
        for seed in (0, 1):
            order = list(KEYS)
            np.random.default_rng(seed).shuffle(order)
            with ShardedMomentService(n_shards=4, flush_rows=2) as svc:
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
        with ShardedMomentService(n_shards=4) as svc:
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
        with ShardedMomentService(n_shards=4) as svc:
            _populate(svc, prior, blocks)
            assert len({svc.shard_for(key) for key in KEYS}) > 1
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

    @pytest.mark.parametrize("n_shards", [1, 4])
    @pytest.mark.parametrize("samples", [5.0, np.ones((2, 2, D))])
    def test_ingest_rejects_scalar_and_3d_blocks(self, prior, rng, n_shards, samples):
        with ShardedMomentService(n_shards=n_shards, flush_rows=8) as svc:
            svc.create_session("k", prior)
            with pytest.raises(DimensionError):
                svc.ingest("k", samples)
            assert svc.ingest("k", rng.standard_normal(D)) == 1
            assert svc.estimate("k").n_samples == 1

    def test_invalid_placement_rejected(self, prior, tmp_path):
        """Every key lives on its ring home: there is no placement option,
        and a manifest naming another placement is not restored."""
        with pytest.raises(TypeError):
            ShardedMomentService(n_shards=2, placement="spread")
        with ShardedMomentService(n_shards=2) as svc:
            svc.create_session("k", prior)
            svc.checkpoint(tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["placement"] == "hash"
        manifest["placement"] = "spread"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="placement 'spread'"):
            ShardedMomentService.restore(tmp_path / "ckpt")


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

    @pytest.mark.parametrize("placement", ["hash"])
    def test_interleaved_reads_match_single_process(self, placement, prior, rng):
        keys = KEYS[:6]
        stream = [
            (keys[int(rng.integers(len(keys)))], rng.standard_normal(D))
            for _ in range(200)
        ]
        with ShardWorker() as single, ShardedMomentService(
            n_shards=4, flush_rows=8
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


class TestOneShardIdentity:
    """A one-shard router hands its worker every block exactly as the client
    sent it: 1-D rows stay 1-D (the Welford path), so runs of single rows
    into a non-empty session leave the bits a bare worker leaves."""

    @staticmethod
    def _script(svc, prior, rng):
        for key in KEYS[:4]:
            svc.create_session(key, prior, kappa0=KAPPA0, v0=V0)
        for key in KEYS[:4]:
            for _ in range(3):
                svc.ingest(key, rng.standard_normal(D))
            svc.ingest(key, rng.standard_normal((3, D)))
            svc.ingest(key, rng.standard_normal(D))
            svc.ingest(key, rng.standard_normal(D))
            svc.ingest(key, rng.standard_normal((2, D)))
        svc.query_many([("estimate", key, None) for key in KEYS[:3]])
        svc.drop_session(KEYS[3])
        for samples in (rng.standard_normal(D), np.zeros((0, D))):
            with pytest.raises((SessionNotFoundError, DimensionError)):
                svc.ingest(KEYS[3], samples)
        svc.ingest(KEYS[0], rng.standard_normal(D))
        with pytest.raises(SessionNotFoundError):
            svc.query_many([("estimate", KEYS[0], None), ("estimate", KEYS[3], None)])

    @staticmethod
    def _wal_shapes(path):
        with WriteAheadLog.open(path) as log:
            return [
                (op, {name: np.shape(value) for name, value in payload.items()
                      if isinstance(value, np.ndarray)})
                for _, op, payload in log.records()
            ]

    @pytest.mark.parametrize("logged", [False, True], ids=["no_wal", "wal"])
    def test_matches_bare_worker(self, logged, prior, tmp_path):
        worker_wal = tmp_path / "worker.wal"
        worker = ShardWorker(
            wal=WriteAheadLog.create(worker_wal, shard_id=0) if logged else None
        )
        router = ShardedMomentService(
            n_shards=1, wal_dir=tmp_path / "wal" if logged else None
        )
        for svc in (worker, router):
            self._script(svc, prior, np.random.default_rng(11))
        worker.checkpoint(tmp_path / "worker.ckpt")
        router.checkpoint(tmp_path / "router")
        worker.close()
        router.close()
        assert (tmp_path / "router" / "shard-000.ckpt").read_bytes() == (
            tmp_path / "worker.ckpt"
        ).read_bytes()
        if logged:
            shapes = self._wal_shapes(worker_wal)
            assert ("ingest", {"samples": (D,)}) in shapes
            assert self._wal_shapes(tmp_path / "wal" / "shard-000.wal") == shapes


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


def _call(service, **request):
    return handle_request(service, json.dumps(request))


class _WorkerFront:
    """Drives a bare WAL-backed ``ShardWorker`` through recover and restore."""

    def __init__(self, tmp_path):
        self.tmp_path = tmp_path
        self.service = ShardWorker(wal=WriteAheadLog.create(tmp_path / "w.wal", shard_id=0))

    def recover(self):
        self.service.close()
        self.service = ShardWorker._recover(self.tmp_path / "w.wal")

    def restore(self):
        self.service.checkpoint(self.tmp_path / "w.ckpt")
        self.service.close()
        self.service = ShardWorker.restore(self.tmp_path / "w.ckpt")


class _RouterFront:
    """The same for ``ShardedMomentService`` (default coalescing)."""

    def __init__(self, tmp_path, n_shards):
        self.tmp_path = tmp_path
        self.service = ShardedMomentService(n_shards=n_shards, wal_dir=tmp_path / "wal")

    def recover(self):
        self.service.close()
        self.service = ShardedMomentService.recover(self.tmp_path / "wal")

    def restore(self):
        self.service.checkpoint(self.tmp_path / "ckpt")
        self.service.close()
        self.service = ShardedMomentService.restore(self.tmp_path / "ckpt")


class TestIngestAck:
    """An ingest ack's ``n`` is the session's row count after that ingest,
    buffered rows included, whichever service fronts the protocol."""

    EXPECTED = [1, 2, 3, 1, 5, 5, 6, 7, 6, 2, 8, 3]

    @staticmethod
    def _script(prior, rng):
        create = {
            "op": "create",
            "prior_mean": prior.mean.tolist(),
            "prior_covariance": prior.covariance.tolist(),
            "kappa0": KAPPA0,
            "v0": V0,
        }

        def row():
            return {"op": "ingest", "samples": rng.standard_normal(D).tolist()}

        def block(n):
            return {"op": "ingest", "samples": rng.standard_normal((n, D)).tolist()}

        stats = {"n": 4, "mean": [0.5] * D, "scatter": np.eye(D).tolist()}
        return [
            ("a", create), ("a", row()), ("a", row()), ("a", row()),
            ("a", {"op": "drop"}), ("a", create), ("a", row()),
            ("b", create), ("b", block(5)),
            ("a", {"op": "ingest", "stats": stats}),
            ("a", dict(create, exist_ok=True)), ("a", row()),
            "recover",
            ("a", row()), ("b", row()),
            ("b", {"op": "drop"}), ("b", create), ("b", block(2)),
            "restore",
            ("a", row()), ("b", row()),
        ]

    def _acks(self, front, script):
        acks = []
        for step in script:
            if isinstance(step, str):
                getattr(front, step)()
                continue
            key, request = step
            response = _call(front.service, key=key, **request)
            assert response["ok"], response
            if request["op"] == "ingest":
                acks.append(response["n"])
        front.service.close()
        return acks

    @pytest.mark.parametrize("n_shards, placement", [(1, "hash"), (4, "hash")])
    def test_router_acks_match_worker(self, n_shards, placement, prior, tmp_path):
        script = self._script(prior, np.random.default_rng(7))
        (tmp_path / "worker").mkdir()
        (tmp_path / "router").mkdir()
        worker = self._acks(_WorkerFront(tmp_path / "worker"), script)
        router = self._acks(_RouterFront(tmp_path / "router", n_shards), script)
        assert worker == self.EXPECTED
        assert router == worker

    def test_concurrent_acks_count_every_row_once(self, prior, rng):
        """Clients on more threads than cores: every ack is a distinct
        count, and they add up to the session's rows."""
        n_clients, n_rows = 4, 200
        rows = rng.standard_normal((n_clients, n_rows, D))
        acks = [[] for _ in range(n_clients)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ShardedMomentService(n_shards=4, flush_rows=8) as svc:
                svc.create_session("k", prior, kappa0=KAPPA0, v0=V0)

                def client(i):
                    for row in rows[i]:
                        acks[i].append(svc.ingest("k", row))

                threads = [threading.Thread(target=client, args=(i,)) for i in range(n_clients)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                total = n_clients * n_rows
                assert sorted(ack for per in acks for ack in per) == list(range(1, total + 1))
                assert svc.estimate("k").n_samples == total
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "n_shards, placement, flush_rows",
        [(1, "hash", 1), (1, "hash", 8), (4, "hash", 8)],
    )
    def test_exist_ok_create_acks_buffered_rows(
        self, n_shards, placement, flush_rows, prior, rng
    ):
        """An ``exist_ok`` create answers the ingest ack's ``n``: rows on
        the home shard, after the create flushes the rows the router
        still buffers (19 rows at ``flush_rows=8`` leave 3 buffered)."""
        create = {
            "op": "create",
            "key": "k",
            "prior_mean": prior.mean.tolist(),
            "prior_covariance": prior.covariance.tolist(),
            "kappa0": KAPPA0,
            "v0": V0,
        }
        rows = rng.standard_normal((19, D))
        router = ShardedMomentService(n_shards=n_shards, flush_rows=flush_rows)
        with ShardWorker() as worker, router:
            for svc in (worker, router):
                assert _call(svc, **create)["n"] == 0
                acks = [
                    _call(svc, op="ingest", key="k", samples=row.tolist())["n"] for row in rows
                ]
                assert acks == list(range(1, 20))
                assert _call(svc, **create, exist_ok=True)["n"] == 19
                assert _call(svc, op="ingest", key="k", samples=rows[0].tolist())["n"] == 20
                assert _call(svc, **create, exist_ok=True)["n"] == 20
                assert _call(svc, op="drop", key="k")["dropped"]
                assert _call(svc, **create)["n"] == 0

    def test_refused_flush_leaves_the_count(self):
        """Rows a flush could not apply stop counting: the next ack is the
        session's real row count again."""
        with ShardedMomentService(n_shards=4) as svc:
            _call(svc, op="create", key="k", prior_mean=[0.0, 0.0],
                  prior_covariance=[[1.0, 0.0], [0.0, 1.0]])
            assert _call(svc, op="ingest", key="k", samples=[1.0, np.nan])["n"] == 1
            assert _call(svc, op="ingest", key="k", samples=[1.0, 2.0])["n"] == 2
            assert _call(svc, op="estimate", key="k")["error"] == "DimensionError"
            assert _call(svc, op="ingest", key="k", samples=[1.0, 2.0])["n"] == 1
            assert svc.estimate("k").n_samples == 1


class TestRowCountAfterEviction:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_evicted_session_counts_zero(self, n_shards, prior, rng):
        """A create ack's ``n`` for a session evicted since its last ingest
        is 0, as on a bare worker, not the rows acknowledged before."""
        rows = rng.standard_normal((3, D))
        router = ShardedMomentService(
            n_shards=n_shards, max_sessions_per_shard=1, flush_rows=3
        )
        # a key that shares "a"'s home shard, so creating it evicts "a"
        other = next(key for key in KEYS if router.shard_for(key) == router.shard_for("a"))
        with ShardWorker(max_sessions=1) as worker, router:
            for svc in (worker, router):
                svc.create_session("a", prior, kappa0=KAPPA0, v0=V0)
                assert [svc.ingest("a", row) for row in rows] == [1, 2, 3]
                assert svc.row_count("a") == 3
                svc.create_session(other, prior, kappa0=KAPPA0, v0=V0)
                assert svc.row_count("a") == 0
                assert svc.session_keys() == [other]
            assert [w.row_count("a") for w in router.workers] == [0] * n_shards

    @pytest.mark.parametrize("n_shards, placement", [(1, "hash"), (2, "hash")])
    def test_buffered_rows_die_with_their_session(
        self, n_shards, placement, prior, rng, tmp_path
    ):
        """Rows still buffered when their session is evicted do not reach
        the next session created under the key: its create ack and its
        estimate count 0, as on a bare worker, live and after recovery."""
        create = {
            "op": "create",
            "prior_mean": prior.mean.tolist(),
            "prior_covariance": prior.covariance.tolist(),
            "kappa0": KAPPA0,
            "v0": V0,
        }
        rows = rng.standard_normal((3, D))
        wal_dir = tmp_path / "wal"
        router = ShardedMomentService(
            n_shards=n_shards,
            max_sessions_per_shard=1,
            flush_rows=8,
            wal_dir=wal_dir,
        )
        # a key that shares "a"'s home shard, so creating it evicts "a"
        other = next(key for key in KEYS if router.shard_for(key) == router.shard_for("a"))
        with ShardWorker(max_sessions=1) as worker, router:
            for svc in (worker, router):
                assert _call(svc, key="a", **create)["n"] == 0
                assert svc.ingest("a", rows) == 3
                assert _call(svc, key=other, **create)["n"] == 0
                assert _call(svc, key="a", **create)["n"] == 0
                assert _call(svc, op="estimate", key="a")["n"] == 0
                assert svc.ingest("a", rows[0]) == 1
        with ShardedMomentService.recover(
            wal_dir, max_sessions_per_shard=1, flush_rows=8
        ) as recovered:
            assert recovered.row_count("a") == 1
            assert recovered.estimate("a").n_samples == 1
            assert recovered.session_keys() == ["a"]


class TestCallerBuffers:
    """A buffered block is the router's own copy: a client may reuse its
    array once the ingest is acknowledged."""

    @pytest.mark.parametrize("n_shards", [1, 4])
    @pytest.mark.parametrize("shape", [(1, 2), (2,)], ids=["block", "row"])
    def test_reused_buffer_keeps_acknowledged_rows(self, n_shards, shape, tmp_path):
        prior = PriorKnowledge(np.zeros(2), np.eye(2), 4)
        rows = np.array([[1.0, 2.0], [3.0, 5.0], [-2.0, 7.0]])
        with ShardWorker() as reference:
            reference.create_session("k", prior, kappa0=1.0, v0=3.0)
            reference.ingest("k", rows)
            (want,) = reference.query_many([("estimate", "k", None)])
        wal_dir = tmp_path / "wal"
        with ShardedMomentService(n_shards=n_shards, flush_rows=64, wal_dir=wal_dir) as svc:
            svc.create_session("k", prior, kappa0=1.0, v0=3.0)
            buf = np.empty(shape)
            for i, row in enumerate(rows):
                buf[...] = row.reshape(shape)
                assert svc.ingest("k", buf) == i + 1
            buf[...] = 100.0
            live = svc.estimate("k")
        with ShardedMomentService.recover(wal_dir) as recovered:
            replayed = recovered.estimate("k")
        for got in (live, replayed):
            assert got.n_samples == 3
            np.testing.assert_array_equal(got.mean, want.mean)
            np.testing.assert_array_equal(got.covariance, want.covariance)


class TestCoalescingLoss:
    """Known defect, pinned: coalesced rows are validated when their buffer
    flushes, not when they are acknowledged, so one bad row loses the
    acknowledged good rows flushed with it (docs/SERVING.md, "Ingest
    coalescing")."""

    @pytest.mark.xfail(
        strict=True,
        reason="a refused flush drops every row buffered with the bad one",
    )
    @pytest.mark.parametrize(
        "bad_row", [[1.0, np.nan], [1.0, 2.0, 3.0]], ids=["nan", "wrong_width"]
    )
    def test_bad_row_keeps_acknowledged_rows(self, bad_row, tmp_path):
        wal_dir = tmp_path / "wal"
        with ShardedMomentService(n_shards=4, wal_dir=wal_dir) as svc:
            _call(svc, op="create", key="k", prior_mean=[0.0, 0.0],
                  prior_covariance=[[1.0, 0.0], [0.0, 1.0]])
            _call(svc, op="ingest", key="k", samples=bad_row)  # acked or refused
            assert _call(svc, op="ingest", key="k", samples=[1.0, 2.0])["ok"]
            estimate = _call(svc, op="estimate", key="k")
            assert estimate["ok"] and estimate["n"] == 1
        with ShardedMomentService.recover(wal_dir) as recovered:
            assert recovered.estimate("k").n_samples == 1
