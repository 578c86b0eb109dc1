"""Tests for the multivariate BMF estimator (Eq. 31-32, Algorithm 1)."""

import numpy as np
import pytest

from repro.core.bmf import (
    BMFEstimator,
    map_moments,
    map_moments_from_stats,
    map_moments_stack,
)
from repro.core.errors import covariance_error, mean_error
from repro.core.hypergrid import HyperParameterGrid
from repro.core.mle import MLEstimator
from repro.core.prior import PriorKnowledge
from repro.exceptions import HyperParameterError, InsufficientDataError
from repro.linalg.validation import is_spd
from repro.stats.moments import mle_covariance
from repro.stats.suffstats import SufficientStats


class TestMapMoments:
    """Closed-form checks against Eq. 31-32."""

    def test_formula_against_manual(self, synthetic_prior, gaussian5, rng):
        data = gaussian5.sample(10, rng)
        kappa0, v0 = 3.0, 15.0
        mu, sigma = map_moments(synthetic_prior, data, kappa0, v0)

        xbar = data.mean(axis=0)
        expected_mu = (kappa0 * synthetic_prior.mean + 10 * xbar) / (kappa0 + 10)
        assert np.allclose(mu, expected_mu)

        centered = data - xbar
        scatter = centered.T @ centered
        diff = synthetic_prior.mean - xbar
        expected_sigma = (
            (v0 - 5) * synthetic_prior.covariance
            + scatter
            + kappa0 * 10 / (kappa0 + 10) * np.outer(diff, diff)
        ) / (v0 + 10 - 5)
        assert np.allclose(sigma, expected_sigma)

    def test_matches_normal_wishart_posterior_mode(
        self, synthetic_prior, gaussian5, rng
    ):
        """Eq. 31-32 must be the posterior mode of the conjugate update."""
        data = gaussian5.sample(12, rng)
        nw = synthetic_prior.to_normal_wishart(kappa0=4.0, v0=25.0)
        mode = nw.posterior(data).map_estimate()
        mu, sigma = map_moments(synthetic_prior, data, 4.0, 25.0)
        assert np.allclose(mode.mean, mu)
        assert np.allclose(mode.covariance, sigma, rtol=1e-8)

    def test_large_kappa_returns_prior_mean(self, synthetic_prior, gaussian5, rng):
        """Eq. 33: kappa0 -> inf keeps the early mean."""
        data = gaussian5.sample(10, rng)
        mu, _ = map_moments(synthetic_prior, data, 1e9, 15.0)
        assert np.allclose(mu, synthetic_prior.mean, atol=1e-6)

    def test_small_kappa_returns_sample_mean(self, synthetic_prior, gaussian5, rng):
        """Eq. 34: kappa0 -> 0 recovers the MLE mean."""
        data = gaussian5.sample(10, rng)
        mu, _ = map_moments(synthetic_prior, data, 1e-9, 15.0)
        assert np.allclose(mu, data.mean(axis=0), atol=1e-6)

    def test_large_v0_returns_prior_covariance(self, synthetic_prior, gaussian5, rng):
        """Eq. 35: v0 -> inf keeps the early covariance."""
        data = gaussian5.sample(10, rng)
        _, sigma = map_moments(synthetic_prior, data, 1.0, 1e9)
        assert np.allclose(sigma, synthetic_prior.covariance, rtol=1e-5)

    def test_mle_limit_eq36(self, synthetic_prior, gaussian5, rng):
        """kappa0 -> 0, v0 -> d recovers the MLE covariance (Eq. 36)."""
        data = gaussian5.sample(10, rng)
        _, sigma = map_moments(synthetic_prior, data, 1e-12, 5.0 + 1e-9)
        assert np.allclose(sigma, mle_covariance(data), atol=1e-6)

    def test_single_sample_works(self, synthetic_prior, gaussian5, rng):
        data = gaussian5.sample(1, rng)
        mu, sigma = map_moments(synthetic_prior, data, 2.0, 12.0)
        assert is_spd(sigma)

    def test_rejects_bad_hyperparams(self, synthetic_prior, gaussian5, rng):
        data = gaussian5.sample(5, rng)
        with pytest.raises(HyperParameterError):
            map_moments(synthetic_prior, data, -1.0, 12.0)
        with pytest.raises(HyperParameterError):
            map_moments(synthetic_prior, data, 1.0, 5.0)

    def test_rejects_dim_mismatch(self, synthetic_prior, rng):
        with pytest.raises(InsufficientDataError):
            map_moments(synthetic_prior, rng.standard_normal((5, 3)), 1.0, 12.0)

    def test_scalar_path_is_a_stack_member_bit_for_bit(self, synthetic_prior, rng):
        """Eq. 31-32 exist once: the scalar call is the B = 1 stack call, and
        a stack member does not depend on its neighbours."""
        d = synthetic_prior.dim
        stats = [SufficientStats.empty(d)] + [
            SufficientStats.from_samples(rng.standard_normal((n, d)) + 1.0)
            for n in (1, 3, 40)
        ]
        kappas, nus = [0.5, 2.0, 30.0, 1e3], [d + 0.1, d + 4.0, 50.0, 1e3]
        mu, sigma = map_moments_stack(
            np.stack([synthetic_prior.mean] * len(stats)),
            np.stack([synthetic_prior.covariance] * len(stats)),
            np.asarray(kappas),
            np.asarray(nus),
            np.asarray([s.n for s in stats], dtype=float),
            np.stack([s.mean for s in stats]),
            np.stack([s.scatter for s in stats]),
            eig_floor_rel=0.0,
        )
        for i, member in enumerate(stats):
            mu_i, sigma_i = map_moments_from_stats(
                synthetic_prior, member, kappas[i], nus[i]
            )
            np.testing.assert_array_equal(mu_i, mu[i])
            np.testing.assert_array_equal(sigma_i, sigma[i])


class TestHyperParamValidation:
    @pytest.mark.parametrize(
        "kappa0, v0",
        [(np.nan, 8.0), (np.inf, 8.0), (0.0, 8.0), (1.0, np.nan), (1.0, np.inf), (1.0, 5.0)],
    )
    def test_rejects_non_finite_or_out_of_range(self, synthetic_prior, kappa0, v0):
        stats = SufficientStats.from_samples(np.ones((3, 5)))
        with pytest.raises(HyperParameterError, match="kappa0|v0"):
            map_moments_from_stats(synthetic_prior, stats, kappa0, v0)
        with pytest.raises(HyperParameterError, match="kappa0|v0"):
            BMFEstimator(synthetic_prior, kappa0=kappa0, v0=v0)


class TestBMFEstimator:
    def test_pinned_mode_matches_map_moments(self, synthetic_prior, gaussian5, rng):
        data = gaussian5.sample(10, rng)
        est = BMFEstimator(synthetic_prior, kappa0=2.0, v0=18.0).estimate(data)
        mu, sigma = map_moments(synthetic_prior, data, 2.0, 18.0)
        assert np.allclose(est.mean, mu)
        assert np.allclose(est.covariance, sigma, rtol=1e-6)
        assert est.info == {"kappa0": 2.0, "v0": 18.0}

    def test_cv_mode_selects_from_grid(self, synthetic_prior, gaussian5, rng):
        grid = HyperParameterGrid.paper_default(5, n_kappa=4, n_v=4)
        estimator = BMFEstimator(synthetic_prior, grid=grid)
        est = estimator.estimate(gaussian5.sample(16, rng), rng=rng)
        assert est.info["kappa0"] in grid.kappa0_values
        assert est.info["v0"] in grid.v0_values
        assert estimator.last_cv_result is not None

    def test_estimate_is_spd(self, synthetic_prior, gaussian5, rng):
        est = BMFEstimator(synthetic_prior).estimate(gaussian5.sample(6, rng), rng=rng)
        assert is_spd(est.covariance)

    def test_beats_mle_with_good_prior_small_n(self, gaussian5, rng):
        """The paper's headline behaviour on a synthetic workload."""
        prior = PriorKnowledge(gaussian5.mean, gaussian5.covariance)
        bmf_wins = 0
        for k in range(20):
            data = gaussian5.sample(8, rng)
            bmf = BMFEstimator(prior).estimate(data, rng=rng)
            mle = MLEstimator().estimate(data)
            if covariance_error(bmf.covariance, gaussian5.covariance) < covariance_error(
                mle.covariance, gaussian5.covariance
            ):
                bmf_wins += 1
        assert bmf_wins >= 16

    def test_ignores_bad_prior_with_large_n(self, gaussian5, rng):
        """CV must discount a wrong prior once data dominates (Eq. 34/36)."""
        bad_prior = PriorKnowledge(
            gaussian5.mean + 10.0, gaussian5.covariance * 9.0
        )
        data = gaussian5.sample(300, rng)
        bmf = BMFEstimator(bad_prior).estimate(data, rng=rng)
        # With 300 samples and a terrible prior the estimate must be close
        # to the truth, i.e. the prior was effectively ignored.
        assert mean_error(bmf.mean, gaussian5.mean) < 1.0
        assert covariance_error(bmf.covariance, gaussian5.covariance) < (
            0.5 * covariance_error(bad_prior.covariance, gaussian5.covariance)
        )

    def test_rejects_partial_pinning(self, synthetic_prior):
        with pytest.raises(HyperParameterError):
            BMFEstimator(synthetic_prior, kappa0=1.0)

    def test_rejects_invalid_pinned_values(self, synthetic_prior):
        with pytest.raises(HyperParameterError):
            BMFEstimator(synthetic_prior, kappa0=0.0, v0=12.0)
        with pytest.raises(HyperParameterError):
            BMFEstimator(synthetic_prior, kappa0=1.0, v0=5.0)

    def test_needs_two_samples(self, synthetic_prior, gaussian5, rng):
        with pytest.raises(InsufficientDataError):
            BMFEstimator(synthetic_prior).estimate(gaussian5.sample(1, rng))

    def test_reproducible_with_rng(self, synthetic_prior, gaussian5):
        data = gaussian5.sample(12, np.random.default_rng(0))
        a = BMFEstimator(synthetic_prior).estimate(data, rng=np.random.default_rng(1))
        b = BMFEstimator(synthetic_prior).estimate(data, rng=np.random.default_rng(1))
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.covariance, b.covariance)

    def test_posterior_returns_normal_wishart(self, synthetic_prior, gaussian5, rng):
        data = gaussian5.sample(10, rng)
        post = BMFEstimator(synthetic_prior, kappa0=2.0, v0=18.0).posterior(data)
        assert post.kappa0 == pytest.approx(12.0)
        assert post.v0 == pytest.approx(28.0)


class TestPosteriorDeterminism:
    def test_posterior_threads_rng_to_fold_split(
        self, synthetic_prior, gaussian5
    ):
        # The CV fold split inside posterior() must honour the caller's
        # generator: same seed, same posterior.
        data = gaussian5.sample(16, np.random.default_rng(2))
        est = BMFEstimator(synthetic_prior)
        a = est.posterior(data, rng=np.random.default_rng(7))
        b = est.posterior(data, rng=np.random.default_rng(7))
        assert a.kappa0 == b.kappa0 and a.v0 == b.v0
        np.testing.assert_array_equal(a.mu0, b.mu0)
        np.testing.assert_array_equal(a.T0, b.T0)

    def test_posterior_matches_estimate_selection(
        self, synthetic_prior, gaussian5
    ):
        data = gaussian5.sample(16, np.random.default_rng(3))
        est = BMFEstimator(synthetic_prior)
        point = est.estimate(data, rng=np.random.default_rng(11))
        post = est.posterior(data, rng=np.random.default_rng(11))
        assert post.kappa0 == pytest.approx(
            point.info["kappa0"] + data.shape[0]
        )
