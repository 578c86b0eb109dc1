"""Sessions with equal prior moments share one validated, read-only prior.

A wire ``create``, a replayed WAL ``create`` record and a restored
checkpoint all build their prior through :meth:`PriorKnowledge.shared`,
so each distinct ``(mean, covariance, n_samples)`` is validated once and
held once, however many sessions fuse against it.
"""

import gc
import json
import weakref

import numpy as np
import pytest

from repro.core import prior as prior_module
from repro.core.prior import PriorKnowledge
from repro.exceptions import NotSPDError
from repro.serving import ShardedMomentService, ShardWorker, WriteAheadLog, handle_request

MEAN = [0.25, -1.0, 3.5]
COV = [[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]]


def _create(service, key, mean=MEAN, cov=COV, n_samples=40):
    request = {
        "op": "create",
        "key": key,
        "prior_mean": mean,
        "prior_covariance": cov,
        "prior_n_samples": n_samples,
        "kappa0": 2.0,
        "v0": 6.0,
    }
    return handle_request(service, json.dumps(request))


def _prior(worker, key):
    return worker.store.snapshot([key])[0].prior


def _live_entries():
    gc.collect()
    return len(prior_module._SHARED)


class TestOneObjectPerPrior:
    def test_wire_creates_share_the_prior(self):
        with ShardWorker() as worker:
            for key in ("a", "b", "c"):
                assert _create(worker, key)["ok"]
            assert _create(worker, "d", n_samples=41)["ok"]
            a, b, c, d = (_prior(worker, key) for key in "abcd")
            assert a is b is c
            assert d is not a
            np.testing.assert_array_equal(a.mean, MEAN)
            assert not a.mean.flags.writeable and not a.covariance.flags.writeable

    def test_shards_hold_one_prior(self):
        with ShardedMomentService(n_shards=3) as svc:
            keys = [f"k{i}" for i in range(12)]
            assert all(_create(svc, key)["ok"] for key in keys)
            homes = {key: svc.workers[svc.shard_for(key)] for key in keys}
            assert len({id(worker) for worker in homes.values()}) == 3
            priors = {id(_prior(worker, key)) for key, worker in homes.items()}
            assert len(priors) == 1

    def test_wal_replay_shares_the_prior(self, tmp_path):
        path = tmp_path / "w.wal"
        with ShardWorker(wal=WriteAheadLog.create(path, shard_id=0)) as worker:
            # two equal priors built apart: replay still folds them into one
            for key in ("a", "b"):
                built = PriorKnowledge(np.array(MEAN), np.array(COV), 40)
                worker.create_session(key, built, kappa0=2.0, v0=6.0)
            live = _prior(worker, "a")
            assert live is not _prior(worker, "b")
        replayed = ShardWorker()
        with WriteAheadLog.open(path) as wal:
            assert replayed.replay(wal) == 2
        assert _prior(replayed, "a") is _prior(replayed, "b")
        assert _prior(replayed, "a") is not live

    def test_checkpoint_restore_shares_the_prior(self, tmp_path):
        with ShardWorker() as worker:
            for key in ("a", "b", "c"):
                _create(worker, key)
            _create(worker, "x", mean=[0.0, 0.0, 0.0])
            worker.checkpoint(tmp_path / "w.ckpt")
        restored = ShardWorker.restore(tmp_path / "w.ckpt")
        a, b, c, x = (_prior(restored, key) for key in "abcx")
        assert a is b is c
        assert x is not a

    def test_recovery_in_a_serving_process_reuses_its_priors(self, tmp_path):
        wal_dir = tmp_path / "wal"
        with ShardedMomentService(n_shards=2, wal_dir=wal_dir) as svc:
            _create(svc, "a")
            served = _prior(svc._home("a"), "a")
        with ShardedMomentService.recover(wal_dir) as recovered:
            assert _prior(recovered._home("a"), "a") is served


class TestDistinctInputs:
    def test_n_samples_shape_and_single_bits_give_distinct_priors(self):
        mean, cov = np.array(MEAN), np.array(COV)
        base = PriorKnowledge.shared(mean, cov, 40)
        assert PriorKnowledge.shared(mean.copy(), cov.copy(), 40) is base
        assert PriorKnowledge.shared(mean, cov, 41) is not base

        # one bit apart: the next float up, and -0.0 against 0.0
        bumped_mean = mean.copy()
        bumped_mean[1] = np.nextafter(bumped_mean[1], np.inf)
        assert PriorKnowledge.shared(bumped_mean, cov, 40) is not base
        bumped_cov = cov.copy()
        bumped_cov[2, 2] = np.nextafter(bumped_cov[2, 2], np.inf)
        assert PriorKnowledge.shared(mean, bumped_cov, 40) is not base
        zero = PriorKnowledge.shared([0.0, -1.0, 3.5], cov, 40)
        assert PriorKnowledge.shared([-0.0, -1.0, 3.5], cov, 40) is not zero

        # same bytes, different shape: a 0-d and a 1-element mean
        scalar = PriorKnowledge.shared(np.float64(1.5), [[2.0]])
        vector = PriorKnowledge.shared([1.5], [[2.0]])
        assert scalar is not vector
        assert scalar.mean.shape == vector.mean.shape == (1,)

    def test_reused_caller_buffer_does_not_move_the_prior(self):
        mean, cov = np.array(MEAN), np.array(COV)
        prior = PriorKnowledge.shared(mean, cov, 3)
        mean[0] = 100.0
        cov[0, 0] = 50.0
        np.testing.assert_array_equal(prior.mean, MEAN)
        np.testing.assert_array_equal(prior.covariance, COV)
        moved = PriorKnowledge.shared(mean, cov, 3)
        assert moved is not prior and moved.mean[0] == 100.0
        assert PriorKnowledge.shared(MEAN, COV, 3) is prior


class TestTableLifetime:
    def test_entry_disappears_with_its_last_session(self):
        before = _live_entries()
        mean = [7.0, -7.0, 0.5]  # moments no other test uses
        with ShardWorker() as worker:
            _create(worker, "a", mean=mean)
            _create(worker, "b", mean=mean)
            ref = weakref.ref(_prior(worker, "a"))
            assert _live_entries() == before + 1
            worker.drop_session("a")
            assert _live_entries() == before + 1
            worker.drop_session("b")
            assert _live_entries() == before
        assert ref() is None

    def test_invalid_prior_is_refused_every_time_and_never_kept(self):
        before = _live_entries()
        not_spd = [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        with ShardWorker() as worker:
            for _ in range(3):
                with pytest.raises(NotSPDError, match="not positive definite"):
                    PriorKnowledge.shared(MEAN, not_spd)
                response = _create(worker, "k", cov=not_spd)
                assert not response["ok"] and response["error"] == "NotSPDError"
            assert _live_entries() == before
            assert worker.session_keys() == []
