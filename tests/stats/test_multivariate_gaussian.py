"""Tests for the multivariate Gaussian (Eq. 5-9)."""

import numpy as np
import pytest
from scipy import stats as sps

from repro.exceptions import DimensionError, NotSPDError
from repro.stats.multivariate_gaussian import MultivariateGaussian, gaussian_loglik


class TestConstruction:
    def test_dim(self, gaussian5):
        assert gaussian5.dim == 5

    def test_rejects_shape_mismatch(self, spd5):
        with pytest.raises(DimensionError):
            MultivariateGaussian(np.zeros(3), spd5)

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(NotSPDError):
            MultivariateGaussian(np.zeros(2), np.diag([1.0, -1.0]))

    def test_precision_is_inverse(self, gaussian5):
        assert np.allclose(
            gaussian5.precision @ gaussian5.covariance, np.eye(5), atol=1e-8
        )

    def test_log_det(self, gaussian5):
        _s, expected = np.linalg.slogdet(gaussian5.covariance)
        assert gaussian5.log_det_covariance == pytest.approx(expected)


class TestDensities:
    def test_logpdf_matches_scipy(self, gaussian5, rng):
        x = gaussian5.sample(20, rng)
        ref = sps.multivariate_normal(gaussian5.mean, gaussian5.covariance)
        assert np.allclose(gaussian5.logpdf(x), ref.logpdf(x))

    def test_pdf_positive(self, gaussian5, rng):
        x = gaussian5.sample(10, rng)
        assert np.all(gaussian5.pdf(x) > 0.0)

    def test_loglik_is_sum(self, gaussian5, rng):
        x = gaussian5.sample(15, rng)
        assert gaussian5.loglik(x) == pytest.approx(float(np.sum(gaussian5.logpdf(x))))

    def test_mahalanobis_zero_at_mean(self, gaussian5):
        assert gaussian5.mahalanobis_sq(gaussian5.mean[None, :])[0] == pytest.approx(0.0)

    def test_gaussian_loglik_helper(self, gaussian5, rng):
        x = gaussian5.sample(5, rng)
        assert gaussian_loglik(
            gaussian5.mean, gaussian5.covariance, x
        ) == pytest.approx(gaussian5.loglik(x))

    def test_rejects_wrong_width(self, gaussian5):
        with pytest.raises(DimensionError):
            gaussian5.logpdf(np.zeros((3, 4)))


class TestSampling:
    def test_sample_shape(self, gaussian5, rng):
        assert gaussian5.sample(7, rng).shape == (7, 5)

    def test_sample_moments_converge(self, gaussian5, rng):
        x = gaussian5.sample(60000, rng)
        assert np.allclose(x.mean(axis=0), gaussian5.mean, atol=0.06)
        assert np.allclose(np.cov(x.T, bias=True), gaussian5.covariance, atol=0.25)

    def test_reproducible_with_seed(self, gaussian5):
        a = gaussian5.sample(5, np.random.default_rng(3))
        b = gaussian5.sample(5, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_rejects_zero_samples(self, gaussian5):
        with pytest.raises(ValueError):
            gaussian5.sample(0)


class TestDerivedDistributions:
    def test_marginal_moments(self, gaussian5):
        marg = gaussian5.marginal([0, 2])
        assert np.allclose(marg.mean, gaussian5.mean[[0, 2]])
        assert np.allclose(
            marg.covariance, gaussian5.covariance[np.ix_([0, 2], [0, 2])]
        )

    def test_marginal_rejects_out_of_range(self, gaussian5):
        with pytest.raises(DimensionError):
            gaussian5.marginal([0, 9])

    def test_conditional_reduces_variance(self, gaussian5):
        cond = gaussian5.conditional([0], [gaussian5.mean[0]])
        marg = gaussian5.marginal([1, 2, 3, 4])
        assert np.all(np.diag(cond.covariance) <= np.diag(marg.covariance) + 1e-12)

    def test_conditional_at_mean_keeps_mean(self, gaussian5):
        cond = gaussian5.conditional([1], [gaussian5.mean[1]])
        expected = gaussian5.mean[[0, 2, 3, 4]]
        assert np.allclose(cond.mean, expected)

    def test_conditional_rejects_all_dims(self, gaussian5):
        with pytest.raises(DimensionError):
            gaussian5.conditional(list(range(5)), gaussian5.mean)

    def test_kl_self_is_zero(self, gaussian5):
        assert gaussian5.kl_divergence(gaussian5) == pytest.approx(0.0, abs=1e-10)

    def test_kl_positive(self, gaussian5):
        other = MultivariateGaussian(gaussian5.mean + 1.0, gaussian5.covariance)
        assert gaussian5.kl_divergence(other) > 0.0

    def test_kl_known_value_univariate(self):
        # KL(N(0,1) || N(1,1)) = 1/2.
        p = MultivariateGaussian([0.0], [[1.0]])
        q = MultivariateGaussian([1.0], [[1.0]])
        assert p.kl_divergence(q) == pytest.approx(0.5)

class TestPrecisionCaching:
    def test_precision_is_cached(self, gaussian5):
        first = gaussian5.precision
        assert gaussian5.precision is first

    def test_cached_precision_is_readonly(self, gaussian5):
        with pytest.raises(ValueError):
            gaussian5.precision[0, 0] = 0.0

    def test_cached_precision_still_correct(self, spd5, rng):
        g = MultivariateGaussian(rng.standard_normal(5), spd5)
        np.testing.assert_allclose(
            g.precision, np.linalg.inv(spd5), rtol=1e-8, atol=1e-10
        )


class TestGaussianLoglikBatch:
    def _stack(self, rng, b=6, d=3):
        means = rng.standard_normal((b, d))
        covs = np.empty((b, d, d))
        for i in range(b):
            a = rng.standard_normal((d, d))
            covs[i] = a @ a.T + d * np.eye(d)
        return means, covs

    def test_matches_per_gaussian_loglik(self, rng):
        from repro.stats.multivariate_gaussian import gaussian_loglik_batch

        means, covs = self._stack(rng)
        x = rng.standard_normal((9, 3))
        got = gaussian_loglik_batch(means, covs, x)
        assert got.shape == (6,)
        for i in range(6):
            assert got[i] == pytest.approx(
                MultivariateGaussian(means[i], covs[i]).loglik(x), abs=1e-10
            )

    def test_per_member_blocks_match_shared_calls_bitwise(self, rng):
        """A ``(B, n, d)`` stack scores each member on its own block, bit for
        bit as a one-member call with that block shared; a non-finite row
        scores NaN instead of being refused."""
        from repro.stats.multivariate_gaussian import gaussian_loglik_batch

        means, covs = self._stack(rng)
        blocks = rng.standard_normal((6, 5, 3))
        blocks[4, 2, 0] = np.nan
        got = gaussian_loglik_batch(means, covs, blocks)
        for i in range(6):
            if i == 4:
                assert np.isnan(got[i])
                continue
            alone = gaussian_loglik_batch(means[i : i + 1], covs[i : i + 1], blocks[i])
            assert got[i] == alone[0]
        with pytest.raises(DimensionError):
            gaussian_loglik_batch(means, covs, blocks[:4])

    def test_irreparable_member_scores_minus_inf(self, rng):
        from repro.stats.multivariate_gaussian import gaussian_loglik_batch

        means, covs = self._stack(rng, b=3)
        covs[1] = np.nan
        got = gaussian_loglik_batch(means, covs, rng.standard_normal((4, 3)))
        assert np.isfinite(got[0]) and np.isfinite(got[2])
        assert got[1] == -np.inf

    def test_no_repair_propagates_failure(self, rng):
        from repro.stats.multivariate_gaussian import gaussian_loglik_batch

        means, covs = self._stack(rng, b=2)
        covs[0] = np.diag([1.0, 1.0, -1.0])
        got = gaussian_loglik_batch(
            means, covs, rng.standard_normal((4, 3)), repair=False
        )
        assert got[0] == -np.inf and np.isfinite(got[1])
