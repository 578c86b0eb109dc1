"""Sufficient-statistics accumulator: exactness, mergeability, equivalence.

The acceptance bar for the streaming refactor: ingesting N samples
one-at-a-time (or shard-by-shard in any split/merge order) must reproduce
the one-shot :class:`~repro.core.bmf.BMFEstimator` MAP moments to 1e-10.
"""

import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bmf import BMFEstimator, map_moments, map_moments_from_stats
from repro.core.prior import PriorKnowledge
from repro.exceptions import DimensionError, HyperParameterError, NotSPDError
from repro.serving import (
    ShardedMomentService,
    ShardWorker,
    WriteAheadLog,
    handle_request,
    serve_loop,
)
from repro.serving.suffstats import map_moments_stack
from repro.stats.moments import sample_mean, scatter_matrix
from repro.stats.suffstats import SufficientStats, merge_all


@pytest.fixture
def samples(rng) -> np.ndarray:
    scale = np.diag([1.0, 2.0, 0.5, 1.5, 0.8])
    return rng.standard_normal((60, 5)) @ scale + rng.standard_normal(5)


class TestAccumulator:
    def test_empty_state(self):
        stats = SufficientStats.empty(3)
        assert stats.n == 0
        assert stats.dim == 3
        assert np.array_equal(stats.mean, np.zeros(3))
        assert np.array_equal(stats.scatter, np.zeros((3, 3)))

    def test_from_samples_matches_batch_formulas(self, samples):
        stats = SufficientStats.from_samples(samples)
        assert stats.n == samples.shape[0]
        # bit-identical, not merely close: same formulas, same array.
        assert np.array_equal(stats.mean, sample_mean(samples))
        assert np.array_equal(stats.scatter, scatter_matrix(samples))

    def test_push_stream_matches_one_shot(self, samples):
        stats = SufficientStats.empty(samples.shape[1])
        for row in samples:
            stats.push(row)
        ref = SufficientStats.from_samples(samples)
        assert stats.n == ref.n
        np.testing.assert_allclose(stats.mean, ref.mean, atol=1e-12)
        np.testing.assert_allclose(stats.scatter, ref.scatter, atol=1e-10)

    def test_push_batch_on_empty_is_bit_identical(self, samples):
        stats = SufficientStats.empty(samples.shape[1]).push_batch(samples)
        ref = SufficientStats.from_samples(samples)
        assert stats == ref

    @pytest.mark.parametrize("splits", [(10, 50), (1, 59), (20, 20, 20), (7, 13, 40)])
    def test_shard_merge_any_split(self, samples, splits):
        edges = np.cumsum((0,) + splits)
        shards = [
            SufficientStats.from_samples(samples[a:b])
            for a, b in zip(edges[:-1], edges[1:])
        ]
        merged = merge_all(shards)
        ref = SufficientStats.from_samples(samples)
        assert merged.n == ref.n
        np.testing.assert_allclose(merged.mean, ref.mean, atol=1e-12)
        np.testing.assert_allclose(merged.scatter, ref.scatter, atol=1e-9)

    def test_merge_order_irrelevant(self, samples):
        shards = [SufficientStats.from_samples(samples[a : a + 15]) for a in range(0, 60, 15)]
        forward = merge_all(shards)
        backward = merge_all(shards[::-1])
        np.testing.assert_allclose(forward.mean, backward.mean, atol=1e-12)
        np.testing.assert_allclose(forward.scatter, backward.scatter, atol=1e-9)

    def test_merge_with_empty_is_identity(self, samples):
        stats = SufficientStats.from_samples(samples)
        merged = stats.copy().merge(SufficientStats.empty(samples.shape[1]))
        assert merged == stats
        other = SufficientStats.empty(samples.shape[1]).merge(stats)
        assert other == stats

    def test_merge_does_not_mutate_inputs(self, samples):
        a = SufficientStats.from_samples(samples[:30])
        b = SufficientStats.from_samples(samples[30:])
        b_before = b.copy()
        merge_all([a, b])
        assert b == b_before

    def test_copy_is_independent(self, samples):
        stats = SufficientStats.from_samples(samples[:10])
        clone = stats.copy()
        clone.push(samples[10])
        assert stats.n == 10
        assert clone.n == 11

    def test_json_round_trip_is_bit_exact(self, samples):
        stats = SufficientStats.from_samples(samples)
        payload = json.loads(json.dumps(stats.to_dict()))
        restored = SufficientStats.from_dict(payload)
        assert restored == stats  # __eq__ is array_equal, i.e. bit-exact

    def test_dimension_errors(self):
        stats = SufficientStats.empty(3)
        with pytest.raises(DimensionError):
            stats.push(np.zeros(2))
        with pytest.raises(DimensionError):
            stats.push(np.array([1.0, np.nan, 0.0]))
        with pytest.raises(DimensionError):
            stats.merge(SufficientStats.empty(2))
        with pytest.raises(DimensionError):
            stats.merge("not stats")
        with pytest.raises(DimensionError):
            merge_all([])
        with pytest.raises(DimensionError):
            SufficientStats.empty(0)
        with pytest.raises(DimensionError):
            SufficientStats.from_dict({"n": 1, "mean": [0.0]})


@st.composite
def _sample_blocks(draw):
    """``(n, d)`` blocks including n = 1, d = 1 and |mean| >> spread."""
    n = draw(st.integers(min_value=1, max_value=70))
    d = draw(st.integers(min_value=1, max_value=6))
    offset = draw(st.sampled_from([0.0, 1.0, -3.0e3, 1.0e8, -6.0e12]))
    spread = draw(st.sampled_from([1.0, 1e-3, 1e-6]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return offset + spread * rng.standard_normal((n, d))


class TestFusedFold:
    """``from_samples`` validates once and computes the mean once; its
    numbers and its errors must stay those of the batch formulas."""

    @settings(max_examples=80, deadline=None)
    @given(block=_sample_blocks())
    def test_bit_identical_to_batch_formulas(self, block):
        stats = SufficientStats.from_samples(block)
        assert stats.n == block.shape[0]
        assert np.array_equal(stats.mean, sample_mean(block))
        assert np.array_equal(stats.scatter, scatter_matrix(block))
        # a single-block push_batch is the same fold
        assert SufficientStats.empty(block.shape[1]).push_batch(block) == stats

    def test_non_finite_row_is_a_dimension_error(self):
        block = np.ones((4, 3))
        block[2, 1] = np.nan
        with pytest.raises(DimensionError):
            SufficientStats.from_samples(block)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_overflowing_scatter_is_not_spd(self):
        with pytest.raises(NotSPDError):
            SufficientStats.from_samples([[1e200, 0.0], [-1e200, 0.0]])

    def test_zero_columns_is_a_dimension_error(self):
        with pytest.raises(DimensionError):
            SufficientStats.from_samples(np.empty((3, 0)))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_overflowing_merge_is_not_spd(self):
        left = SufficientStats.from_samples([[1e200], [1e200]])
        right = SufficientStats.from_samples([[-1e200], [-1e200]])
        with pytest.raises(NotSPDError):
            left.merge(right)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_overflowing_push_is_not_spd(self):
        stats = SufficientStats.empty(1).push([1e200])
        with pytest.raises(NotSPDError):
            stats.push([-1e200])


class TestMergeAllAtScale:
    """Associativity at fleet size: 100+ shard accumulators, any order."""

    N_SHARDS = 128
    ROWS_PER_SHARD = 9
    DIM = 4

    @pytest.fixture
    def shard_parts(self, rng):
        samples = rng.multivariate_normal(
            mean=rng.standard_normal(self.DIM) * 50.0,  # |mean| >> spread
            cov=np.eye(self.DIM),
            size=self.N_SHARDS * self.ROWS_PER_SHARD,
        )
        shards = [
            SufficientStats.from_samples(
                samples[i * self.ROWS_PER_SHARD : (i + 1) * self.ROWS_PER_SHARD]
            )
            for i in range(self.N_SHARDS)
        ]
        return samples, shards

    @pytest.mark.parametrize("permutation_seed", [0, 1, 2, 3, 4])
    def test_permuted_merge_matches_one_shot(self, shard_parts, permutation_seed):
        samples, shards = shard_parts
        order = np.random.default_rng(permutation_seed).permutation(len(shards))
        merged = merge_all([shards[i] for i in order])
        ref = SufficientStats.from_samples(samples)
        assert merged.n == ref.n
        np.testing.assert_allclose(merged.mean, ref.mean, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(
            merged.scatter, ref.scatter, rtol=1e-10, atol=1e-10
        )

    def test_permutations_agree_with_each_other(self, shard_parts):
        _, shards = shard_parts
        baseline = merge_all(shards)
        for seed in range(3):
            order = np.random.default_rng(100 + seed).permutation(len(shards))
            permuted = merge_all([shards[i] for i in order])
            assert permuted.n == baseline.n
            np.testing.assert_allclose(
                permuted.mean, baseline.mean, rtol=0.0, atol=1e-10
            )
            np.testing.assert_allclose(
                permuted.scatter, baseline.scatter, rtol=1e-10, atol=1e-10
            )

    def test_empty_sequence_is_an_error(self):
        with pytest.raises(DimensionError, match="at least one"):
            merge_all([])
        with pytest.raises(DimensionError, match="at least one"):
            merge_all(iter(()))

    def test_inputs_unmutated_at_scale(self, shard_parts):
        _, shards = shard_parts
        before = [shard.copy() for shard in shards]
        merge_all(shards)
        assert all(a == b for a, b in zip(shards, before))


class TestStreamingEquivalence:
    """The PR's acceptance criterion, verbatim."""

    KAPPA0 = 3.0
    V0 = 9.0

    @pytest.fixture
    def prior(self, samples) -> PriorKnowledge:
        cov = np.cov(samples, rowvar=False) * 1.1 + 0.05 * np.eye(samples.shape[1])
        return PriorKnowledge(sample_mean(samples) + 0.05, cov)

    def test_one_at_a_time_matches_one_shot_estimator(self, samples, prior):
        reference = BMFEstimator(prior, kappa0=self.KAPPA0, v0=self.V0).estimate(
            samples
        )
        stats = SufficientStats.empty(samples.shape[1])
        for row in samples:
            stats.push(row)
        mu, sigma = map_moments_from_stats(prior, stats, self.KAPPA0, self.V0)
        np.testing.assert_allclose(mu, reference.mean, atol=1e-10)
        np.testing.assert_allclose(sigma, reference.covariance, atol=1e-10)

    @pytest.mark.parametrize("order", ["forward", "reverse", "interleaved"])
    def test_shard_split_merge_any_order(self, samples, prior, order):
        reference = BMFEstimator(prior, kappa0=self.KAPPA0, v0=self.V0).estimate(
            samples
        )
        shards = []
        for a in range(0, samples.shape[0], 12):
            shard = SufficientStats.empty(samples.shape[1])
            for row in samples[a : a + 12]:
                shard.push(row)
            shards.append(shard)
        if order == "reverse":
            shards = shards[::-1]
        elif order == "interleaved":
            shards = shards[::2] + shards[1::2]
        merged = merge_all(shards)
        mu, sigma = map_moments_from_stats(prior, merged, self.KAPPA0, self.V0)
        np.testing.assert_allclose(mu, reference.mean, atol=1e-10)
        np.testing.assert_allclose(sigma, reference.covariance, atol=1e-10)

    def test_map_moments_delegates_bit_identically(self, samples, prior):
        """The batch entry point now routes through suffstats — exactly."""
        mu_direct, sigma_direct = map_moments(prior, samples, self.KAPPA0, self.V0)
        stats = SufficientStats.from_samples(samples)
        mu_stats, sigma_stats = map_moments_from_stats(
            prior, stats, self.KAPPA0, self.V0
        )
        assert np.array_equal(mu_direct, mu_stats)
        assert np.array_equal(sigma_direct, sigma_stats)

    def test_zero_samples_returns_prior_mode(self, prior):
        stats = SufficientStats.empty(prior.dim)
        mu, sigma = map_moments_from_stats(prior, stats, self.KAPPA0, self.V0)
        np.testing.assert_allclose(mu, prior.mean, atol=1e-14)
        d = prior.dim
        expected = (self.V0 - d) * prior.covariance / (self.V0 - d)
        np.testing.assert_allclose(sigma, expected, atol=1e-12)


class TestMapMomentsStack:
    def test_stack_matches_scalar_per_member(self, rng):
        d, b = 4, 6
        priors, kappas, nus, stats_list = [], [], [], []
        for i in range(b):
            a = rng.standard_normal((d, d))
            priors.append(
                PriorKnowledge(rng.standard_normal(d), a @ a.T + d * np.eye(d))
            )
            kappas.append(0.5 + i)
            nus.append(d + 2.0 + i)
            stats_list.append(
                SufficientStats.from_samples(rng.standard_normal((10 + 5 * i, d)))
            )
        # include one empty session (prior-mode member) in the stack
        stats_list[2] = SufficientStats.empty(d)
        mu, sigma = map_moments_stack(
            np.stack([p.mean for p in priors]),
            np.stack([p.covariance for p in priors]),
            np.asarray(kappas),
            np.asarray(nus),
            np.asarray([s.n for s in stats_list]),
            np.stack([s.mean for s in stats_list]),
            np.stack([s.scatter for s in stats_list]),
        )
        for i in range(b):
            mu_ref, sigma_ref = map_moments_from_stats(
                priors[i], stats_list[i], kappas[i], nus[i]
            )
            np.testing.assert_allclose(mu[i], mu_ref, atol=1e-10)
            np.testing.assert_allclose(sigma[i], sigma_ref, atol=1e-10)

    def test_stack_validation(self, rng):
        d = 3
        mu_e = np.zeros((2, d))
        sig_e = np.stack([np.eye(d)] * 2)
        good = dict(
            kappa0=np.ones(2),
            v0=np.full(2, d + 1.0),
            counts=np.zeros(2),
            means=np.zeros((2, d)),
            scatters=np.zeros((2, d, d)),
        )
        with pytest.raises(HyperParameterError):
            map_moments_stack(mu_e, sig_e, np.array([0.0, 1.0]), good["v0"],
                              good["counts"], good["means"], good["scatters"])
        with pytest.raises(HyperParameterError):
            map_moments_stack(mu_e, sig_e, good["kappa0"], np.array([d - 1.0, d + 1.0]),
                              good["counts"], good["means"], good["scatters"])
        with pytest.raises(DimensionError):
            map_moments_stack(mu_e, np.zeros((2, d, d + 1)), good["kappa0"], good["v0"],
                              good["counts"], good["means"], good["scatters"])
        with pytest.raises(DimensionError):
            map_moments_stack(mu_e, sig_e, good["kappa0"], good["v0"],
                              np.array([-1.0, 0.0]), good["means"], good["scatters"])


#: One refused update per accumulator path, on a d = 2 session holding
#: the row ``[1, 2]``: each overflows the scatter (``NotSPDError``).
REFUSED = {
    "push": ({"samples": [1e200, 2.0]}, lambda s: s.push([1e200, 2.0])),
    "push_batch": (
        {"samples": [[1e200, 2.0]]},
        lambda s: s.push_batch([[1e200, 2.0]]),
    ),
    "merge": (
        {"stats": {"n": 2, "mean": [1e200, 2.0], "scatter": [[0.0, 0.0], [0.0, 0.0]]}},
        lambda s: s.merge(SufficientStats.from_samples([[1e200, 2.0], [1e200, 2.0]])),
    ),
}


def _call(service, **request):
    return handle_request(service, json.dumps(request))


def _session_stats(service, key):
    """The live accumulator of ``key`` (one store clock tick)."""
    worker = service if isinstance(service, ShardWorker) else service.workers[service.shard_for(key)]
    return worker.store.snapshot([key])[0].stats


def _service(kind, tmp_path):
    wal_dir = tmp_path / "wal"
    if kind == "worker":
        return ShardWorker(wal=WriteAheadLog.create(tmp_path / "w.wal", shard_id=0))
    return ShardedMomentService(n_shards=4, flush_rows=1, wal_dir=wal_dir)


def _wal_records(service):
    workers = [service] if isinstance(service, ShardWorker) else service.workers
    return sum(worker.wal.last_seq for worker in workers)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestRefusedUpdates:
    """A refused update leaves the accumulator, and so the session, exactly
    as it was before the call."""

    @pytest.mark.parametrize("op", sorted(REFUSED))
    def test_accumulator_is_unchanged(self, op):
        stats = SufficientStats.empty(2).push([1.0, 2.0])
        before = stats.copy()
        with pytest.raises(NotSPDError):
            REFUSED[op][1](stats)
        assert stats == before
        # and it keeps accepting rows
        assert stats.push([3.0, 5.0]).n == 2

    @pytest.mark.parametrize("kind", ["worker", "router-4"])
    @pytest.mark.parametrize("op", sorted(REFUSED))
    def test_session_is_unchanged(self, op, kind, tmp_path):
        with _service(kind, tmp_path) as svc:
            create = _call(svc, op="create", key="a", prior_mean=[0.0, 0.0],
                           prior_covariance=[[1.0, 0.0], [0.0, 1.0]])
            assert create["ok"]
            assert _call(svc, op="ingest", key="a", samples=[1.0, 2.0])["n"] == 1
            before = _session_stats(svc, "a").copy()
            refused = _call(svc, op="ingest", key="a", **REFUSED[op][0])
            assert not refused["ok"] and refused["error"] == "NotSPDError"
            assert _session_stats(svc, "a") == before
            estimate = _call(svc, op="estimate", key="a")
            assert estimate["n"] == 1 and np.isfinite(estimate["mean"]).all()
            assert _call(svc, op="ingest", key="a", samples=[3.0, 5.0])["n"] == 2

    @pytest.mark.parametrize("kind", ["worker", "router-4"])
    @pytest.mark.parametrize("bad", ["mean", "scatter"])
    def test_non_finite_stats_are_refused_before_logging(self, bad, kind, tmp_path):
        stats = {"n": 3, "mean": [0.0, 0.0], "scatter": [[1.0, 0.0], [0.0, 1.0]]}
        stats[bad] = [float("nan"), 0.0] if bad == "mean" else [[1.0, 0.0], [0.0, float("inf")]]
        with _service(kind, tmp_path) as svc:
            _call(svc, op="create", key="a", prior_mean=[0.0, 0.0],
                  prior_covariance=[[1.0, 0.0], [0.0, 1.0]])
            records, counted = _wal_records(svc), svc.stats()["ingested_samples"]
            refused = _call(svc, op="ingest", key="a", stats=stats)
            assert not refused["ok"] and refused["error"] == "DimensionError"
            assert _wal_records(svc) == records
            assert svc.stats()["ingested_samples"] == counted
            estimate = _call(svc, op="estimate", key="a")
            assert estimate["n"] == 0 and np.isfinite(estimate["covariance"]).all()

    def test_logged_non_finite_stats_still_replay(self, tmp_path):
        """The refusal is at ingest: a log that already holds such a record
        replays as it always did."""
        prior = PriorKnowledge(np.zeros(2), np.eye(2), 4)
        path = tmp_path / "w.wal"
        with ShardWorker(wal=WriteAheadLog.create(path, shard_id=0)) as worker:
            worker.create_session("a", prior)
            worker.wal.append("ingest_stats", {"key": "a", "stats": {
                "n": 3, "mean": [float("nan"), 0.0], "scatter": [[1.0, 0.0], [0.0, 1.0]]}})
        with ShardWorker._recover(path) as recovered:
            stats = _session_stats(recovered, "a")
            assert stats.n == 3 and np.isnan(stats.mean[0])


class TestOverflowIsSilent:
    """An update refused for an overflowing scatter answers
    ``NotSPDError`` and nothing else: no NumPy ``RuntimeWarning`` reaches
    stderr, live through ``serve_loop`` or when its log recovers."""

    LINES = [
        json.dumps(request)
        for request in (
            {"op": "create", "key": "a", "prior_mean": [0.0, 0.0],
             "prior_covariance": [[1.0, 0.0], [0.0, 1.0]]},
            {"op": "ingest", "key": "a", "samples": [1.0, 2.0]},
            {"op": "ingest", "key": "a", "samples": [1e200, 2.0]},
            {"op": "ingest", "key": "a", "samples": [[1e200, 2.0], [1.0, 1.0]]},
            # the mean overflows, so the scatter holds inf - inf as well
            {"op": "ingest", "key": "a", "samples": [[1e308, 2.0], [1e308, 1.0]]},
        )
    ]

    @pytest.mark.parametrize("kind", ["worker", "router-1"])
    def test_serve_loop_and_recovery_warn_nothing(self, kind, tmp_path):
        out = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if kind == "worker":
                live = ShardWorker(wal=WriteAheadLog.create(tmp_path / "w.wal", shard_id=0))
            else:
                live = ShardedMomentService(n_shards=1, wal_dir=tmp_path / "wal")
            with live:
                assert serve_loop(live, self.LINES, out=out) == 5
            if kind == "worker":
                recovered = ShardWorker._recover(tmp_path / "w.wal")
            else:
                recovered = ShardedMomentService.recover(tmp_path / "wal")
            with recovered:
                assert _session_stats(recovered, "a").n == 1
        errors = [json.loads(line).get("error") for line in out.getvalue().splitlines()]
        assert errors == [None, None] + ["NotSPDError"] * 3
