"""Serving entry points end to end: equivalence, errors, checkpoints, counters.

Queries run through the one-shard :class:`ShardedMomentService`; single-file
checkpoints and the store-level counters through :class:`ShardWorker`.
"""

import numpy as np
import pytest

from repro.core.bmf import BMFEstimator
from repro.core.prior import PriorKnowledge
from repro.exceptions import (
    ConfigError,
    DimensionError,
    SessionNotFoundError,
    SpecificationError,
)
from repro.serving import ShardedMomentService, ShardWorker, WriteAheadLog
from repro.serving.queue import build_requests
from repro.stats.multivariate_gaussian import MultivariateGaussian
from repro.yieldest.parametric import gaussian_box_probability

D = 4
KAPPA0 = 2.0
V0 = D + 3.0


@pytest.fixture
def prior(rng) -> PriorKnowledge:
    a = rng.standard_normal((D, D))
    return PriorKnowledge(rng.standard_normal(D), a @ a.T + D * np.eye(D))


@pytest.fixture
def samples(rng) -> np.ndarray:
    return rng.standard_normal((40, D)) @ np.diag([1.0, 0.5, 2.0, 1.5])


def _feed(target, prior, samples):
    target.create_session("dut", prior, kappa0=KAPPA0, v0=V0)
    for row in samples:
        target.ingest("dut", row)
    return target


@pytest.fixture
def service(prior, samples):
    with ShardedMomentService() as svc:
        yield _feed(svc, prior, samples)


@pytest.fixture
def worker(prior, samples):
    with ShardWorker() as single:
        yield _feed(single, prior, samples)


class TestQueries:
    def test_estimate_matches_one_shot_bmf(self, service, prior, samples):
        estimate = service.estimate("dut")
        reference = BMFEstimator(prior, kappa0=KAPPA0, v0=V0).estimate(samples)
        np.testing.assert_allclose(estimate.mean, reference.mean, atol=1e-10)
        np.testing.assert_allclose(
            estimate.covariance, reference.covariance, atol=1e-10
        )
        assert estimate.n_samples == samples.shape[0]
        assert estimate.method == "bmf"
        assert estimate.info["kappa0"] == KAPPA0

    def test_loglik_matches_scalar_gaussian(self, service, prior, samples):
        value = service.loglik("dut", samples[:10])
        reference = BMFEstimator(prior, kappa0=KAPPA0, v0=V0).estimate(samples)
        gaussian = MultivariateGaussian(reference.mean, reference.covariance)
        assert value == pytest.approx(gaussian.loglik(samples[:10]), abs=1e-8)

    def test_yield_matches_scalar_box_probability(self, service, prior, samples):
        lower, upper = np.full(D, -3.0), np.full(D, 3.0)
        value = service.yield_prob("dut", lower, upper)
        reference = BMFEstimator(prior, kappa0=KAPPA0, v0=V0).estimate(samples)
        expected = gaussian_box_probability(
            reference.mean, reference.covariance, lower, upper
        )
        assert value == pytest.approx(expected, abs=1e-6)

    def test_query_many_mixed_kinds(self, service, samples):
        lower, upper = np.full(D, -2.0), np.full(D, 2.0)
        results = service.query_many(
            [
                ("estimate", "dut", None),
                ("loglik", "dut", samples[:5]),
                ("yield", "dut", (lower, upper)),
            ]
        )
        assert results[0].dim == D
        assert np.isfinite(results[1])
        assert 0.0 <= results[2] <= 1.0

    def test_sync_and_batched_paths_agree(self, service, samples):
        """The one-query helpers and query_many run the same scoring code."""
        single_est = service.estimate("dut")
        batch_est = service.query_many([("estimate", "dut", None)])[0]
        assert np.array_equal(single_est.mean, batch_est.mean)
        assert np.array_equal(single_est.covariance, batch_est.covariance)
        single_ll = service.loglik("dut", samples[:7])
        batch_ll = service.query_many([("loglik", "dut", samples[:7])])[0]
        assert single_ll == batch_ll

    def test_empty_session_returns_prior_mode(self, service, prior):
        service.create_session("fresh", prior, kappa0=KAPPA0, v0=V0)
        estimate = service.estimate("fresh")
        np.testing.assert_allclose(estimate.mean, prior.mean, atol=1e-12)
        assert estimate.n_samples == 0


class TestErrors:
    def test_unknown_session(self, service):
        with pytest.raises(SessionNotFoundError):
            service.estimate("ghost")

    def test_bad_loglik_payload(self, service):
        with pytest.raises(DimensionError):
            service.loglik("dut", np.zeros((3, D + 1)))
        with pytest.raises(DimensionError):
            service.loglik("dut", np.zeros((0, D)))

    def test_bad_yield_bounds(self, service):
        with pytest.raises(SpecificationError):
            service.yield_prob("dut", np.zeros(D), np.zeros(D))
        with pytest.raises(SpecificationError):
            service.yield_prob("dut", np.zeros(D - 1), np.ones(D - 1))

    def test_error_does_not_poison_the_batch(self, worker, samples):
        """One bad request in a scored batch fails alone."""
        requests = build_requests(
            [
                ("estimate", "dut", None),
                ("estimate", "ghost", None),
                ("loglik", "dut", samples[:3]),
            ],
            worker.counters.record_request,
        )
        worker.score_requests(requests)
        futures = [request.future for request in requests]
        assert futures[0].result().dim == D
        with pytest.raises(SessionNotFoundError):
            futures[1].result()
        assert np.isfinite(futures[2].result())

    def test_unknown_kind_in_query_many(self, service):
        with pytest.raises(ConfigError):
            service.query_many([("divine", "dut", None)])


class TestCheckpointRestore:
    def test_save_kill_restore_identical(self, worker, tmp_path, samples):
        """The acceptance criterion: restore is bit-identical."""
        before = worker.query_many([("estimate", "dut", None)])[0]
        path = tmp_path / "service.ckpt"
        worker.checkpoint(path)
        worker.close()  # "kill" the process's service

        restored = ShardWorker.restore(path)
        after = restored.query_many([("estimate", "dut", None)])[0]
        assert np.array_equal(after.mean, before.mean)
        assert np.array_equal(after.covariance, before.covariance)
        # counters carried over
        assert restored.counters.ingest_calls == samples.shape[0]

    def test_restore_continues_streaming_identically(
        self, prior, samples, tmp_path
    ):
        """Checkpoint mid-stream, keep ingesting on both sides: identical."""
        straight = _feed(ShardWorker(), prior, samples)
        interrupted = _feed(ShardWorker(), prior, samples[:17])
        path = tmp_path / "mid.ckpt"
        interrupted.checkpoint(path)
        resumed = ShardWorker.restore(path)
        for row in samples[17:]:
            resumed.ingest("dut", row)

        a = straight.query_many([("estimate", "dut", None)])[0]
        b = resumed.query_many([("estimate", "dut", None)])[0]
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.covariance, b.covariance)

    def test_restore_rejects_foreign_state_version(self, worker, tmp_path):
        from repro.serving.checkpoint import load_checkpoint, save_checkpoint

        path = tmp_path / "service.ckpt"
        worker.checkpoint(path)
        state = load_checkpoint(path)
        state["state_version"] = 99
        save_checkpoint(state, path)
        with pytest.raises(ConfigError, match="state_version"):
            ShardWorker.restore(path)


class TestCountersAndStats:
    def test_stats_shape(self, worker, samples):
        worker.query_many([("estimate", "dut", None)])
        worker.query_many([("loglik", "dut", samples[:4])])
        stats = worker.stats()
        assert stats["requests"]["estimate"] >= 1
        assert stats["requests"]["loglik"] >= 1
        assert stats["ingested_samples"] == samples.shape[0]
        assert stats["sessions_live"] == 1
        assert stats["latency_ms_p50"] is not None
        assert stats["latency_ms_p99"] >= stats["latency_ms_p50"]

    def test_close_is_idempotent(self, tmp_path):
        worker = ShardWorker(wal=WriteAheadLog.create(tmp_path / "w.wal", shard_id=0))
        worker.close()
        worker.close()

    def test_context_manager(self, prior, samples, tmp_path):
        """Leaving the block closes the WAL, flushing its group-commit buffer."""
        path = tmp_path / "w.wal"
        wal = WriteAheadLog.create(path, shard_id=0, version=2, flush_records=64)
        with ShardWorker(wal=wal) as worker:
            _feed(worker, prior, samples[:3])
        reopened = WriteAheadLog.open(path)
        assert reopened.verify() == 4
        reopened.close()
