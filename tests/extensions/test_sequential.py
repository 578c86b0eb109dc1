"""Streaming BMF: rows pushed one by one into a ``SufficientStats``.

By conjugacy the normal-Wishart posterior touches the data only through
``(n, Xbar, S)``, so a stream folded row by row with
:meth:`SufficientStats.push` and read through
:func:`~repro.core.bmf.map_moments_from_stats` ends exactly where the
one-shot :class:`~repro.core.bmf.BMFEstimator` does.  The
``sequential-bmf`` registry name is that pinned estimator.
"""

import numpy as np
import pytest

from repro.core.bmf import BMFEstimator, map_moments, map_moments_from_stats
from repro.core.registry import EstimatorSpec, make_estimator
from repro.exceptions import DimensionError, HyperParameterError
from repro.stats.suffstats import SufficientStats

KAPPA0, V0 = 3.0, 15.0


def _stream(prior, rows, kappa0=KAPPA0, v0=V0):
    """Push ``rows`` one at a time; the accumulator and the running MAP after each."""
    stats = SufficientStats.empty(prior.dim)
    states = []
    for row in rows:
        stats.push(row)
        states.append(map_moments_from_stats(prior, stats, kappa0, v0))
    return stats, states


class TestConstruction:
    def test_rejects_bad_hyperparams(self, synthetic_prior):
        stats = SufficientStats.empty(synthetic_prior.dim)
        with pytest.raises(HyperParameterError):
            map_moments_from_stats(synthetic_prior, stats, 0.0, 15.0)
        with pytest.raises(HyperParameterError):
            map_moments_from_stats(synthetic_prior, stats, 1.0, 5.0)
        with pytest.raises(HyperParameterError):
            make_estimator(
                EstimatorSpec("sequential-bmf", {"kappa0": 0.0, "v0": 15.0}),
                prior=synthetic_prior,
            )

    def test_initial_estimate_is_prior_mode(self, synthetic_prior):
        stats = SufficientStats.empty(synthetic_prior.dim)
        mean, cov = map_moments_from_stats(synthetic_prior, stats, KAPPA0, V0)
        assert stats.n == 0
        assert np.allclose(mean, synthetic_prior.mean)
        assert np.allclose(cov, synthetic_prior.covariance, rtol=1e-8)


class TestStreamingEqualsBatch:
    """The conjugacy guarantee: streaming == batch, exactly."""

    def test_matches_map_moments(self, synthetic_prior, gaussian5, rng):
        data = gaussian5.sample(13, rng)
        stats, states = _stream(synthetic_prior, data)
        mu, sigma = map_moments(synthetic_prior, data, KAPPA0, V0)
        np.testing.assert_allclose(states[-1][0], mu, rtol=0, atol=1e-12)
        np.testing.assert_allclose(states[-1][1], sigma, rtol=0, atol=1e-12)
        assert stats.n == 13

    def test_observe_one_by_one(self, synthetic_prior, gaussian5, rng):
        data = gaussian5.sample(5, rng)
        stats = SufficientStats.empty(synthetic_prior.dim)
        for row in data:
            stats.push(row)
        mu, _sigma = map_moments(synthetic_prior, data, KAPPA0, V0)
        mean, _cov = map_moments_from_stats(synthetic_prior, stats, KAPPA0, V0)
        np.testing.assert_allclose(mean, mu, rtol=0, atol=1e-12)

    def test_history_grows(self, synthetic_prior, gaussian5, rng):
        """The running estimate read after each pushed row counts that row."""
        stats = SufficientStats.empty(synthetic_prior.dim)
        pinned = BMFEstimator(synthetic_prior, kappa0=KAPPA0, v0=V0)
        counts = []
        for row in gaussian5.sample(4, rng):
            counts.append(pinned.estimate_from_stats(stats.push(row)).n_samples)
        assert counts == [1, 2, 3, 4]


class TestStepsAndConvergence:
    def test_steps_shrink(self, synthetic_prior, gaussian5, rng):
        _stats, states = _stream(synthetic_prior, gaussian5.sample(60, rng))
        steps = [
            np.linalg.norm(b[0] - a[0]) for a, b in zip(states, states[1:])
        ]
        assert np.mean(steps[-5:]) < np.mean(steps[:5])


class TestValidation:
    def test_rejects_wrong_length(self, synthetic_prior):
        stats = SufficientStats.empty(synthetic_prior.dim)
        with pytest.raises(DimensionError):
            stats.push(np.zeros(3))
        assert stats.n == 0

    def test_rejects_empty_batch(self, synthetic_prior):
        stats = SufficientStats.empty(synthetic_prior.dim)
        with pytest.raises(DimensionError):
            stats.push_batch(np.empty((0, 5)))
        assert stats.n == 0


class TestOneShotEquivalence:
    """A sample-at-a-time stream reproduces the one-shot BMFEstimator to
    1e-12, via the shared suffstats substrate."""

    def test_streamed_matches_one_shot_estimator(
        self, synthetic_prior, gaussian5, rng
    ):
        data = gaussian5.sample(48, rng)
        stats, _states = _stream(synthetic_prior, data)
        pinned = BMFEstimator(synthetic_prior, kappa0=KAPPA0, v0=V0)
        reference = pinned.estimate(data)
        streamed = pinned.estimate_from_stats(stats)
        np.testing.assert_allclose(streamed.mean, reference.mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            streamed.covariance, reference.covariance, rtol=0, atol=1e-12
        )
        assert streamed.n_samples == reference.n_samples == 48

    def test_exposes_suffstats_accumulator(self, gaussian5, rng):
        data = gaussian5.sample(7, rng)
        stats = SufficientStats.empty(5)
        for row in data:
            stats.push(row)
        reference = SufficientStats.from_samples(data)
        assert stats.n == 7
        np.testing.assert_allclose(stats.mean, reference.mean, atol=1e-12)
        np.testing.assert_allclose(stats.scatter, reference.scatter, atol=1e-12)

    def test_registry_name_is_pinned_bmf(self, synthetic_prior, gaussian5, rng):
        """``sequential-bmf`` is pinned BMF at ``(1, d + 1)`` unless told otherwise."""
        data = gaussian5.sample(9, rng)
        estimate = make_estimator("sequential-bmf", prior=synthetic_prior).estimate(data)
        d = synthetic_prior.dim
        reference = BMFEstimator(synthetic_prior, kappa0=1.0, v0=d + 1.0).estimate(data)
        assert estimate.method == "bmf"
        assert estimate.info == {"kappa0": 1.0, "v0": d + 1.0}
        np.testing.assert_array_equal(estimate.mean, reference.mean)
        np.testing.assert_array_equal(estimate.covariance, reference.covariance)
