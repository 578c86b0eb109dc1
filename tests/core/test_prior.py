"""Tests for the early-stage prior container (Eq. 17-21)."""

import pickle

import numpy as np
import pytest

from repro.core.prior import PriorKnowledge
from repro.exceptions import DimensionError, HyperParameterError, InsufficientDataError
from repro.linalg.batched import whitened_eigh_batched


class TestConstruction:
    def test_from_explicit_moments(self, spd5):
        prior = PriorKnowledge(np.zeros(5), spd5)
        assert prior.dim == 5
        assert prior.n_samples == 0

    def test_rejects_shape_mismatch(self, spd5):
        with pytest.raises(DimensionError):
            PriorKnowledge(np.zeros(3), spd5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_mean(self, spd5, bad):
        mean = np.zeros(5)
        mean[2] = bad
        with pytest.raises(DimensionError, match="non-finite"):
            PriorKnowledge(mean, spd5)

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(Exception):
            PriorKnowledge(np.zeros(2), np.diag([1.0, -1.0]))

    def test_from_samples(self, gaussian5, rng):
        data = gaussian5.sample(200, rng)
        prior = PriorKnowledge.from_samples(data)
        assert np.allclose(prior.mean, data.mean(axis=0))
        assert np.allclose(prior.covariance, np.cov(data.T, bias=True))
        assert prior.n_samples == 200

    def test_from_samples_needs_d_plus_one(self, gaussian5, rng):
        with pytest.raises(InsufficientDataError):
            PriorKnowledge.from_samples(gaussian5.sample(5, rng))


class TestFrozenMoments:
    def test_reusing_the_callers_buffers_does_not_move_the_prior(self, spd5):
        mean, cov = np.zeros(5), spd5.copy()
        prior = PriorKnowledge(mean, cov)
        mean[0] = 5.0
        cov[0, 0] = 1e6
        assert prior.mean[0] == 0.0
        assert prior.covariance[0, 0] == spd5[0, 0]

    def test_mean_is_read_only(self, synthetic_prior):
        with pytest.raises(ValueError):
            synthetic_prior.mean[0] = 1.0

    def test_mean_stays_read_only_through_pickle(self, synthetic_prior):
        clone = pickle.loads(pickle.dumps(synthetic_prior))
        np.testing.assert_array_equal(clone.mean, synthetic_prior.mean)
        with pytest.raises(ValueError):
            clone.mean[0] = 1.0


class TestDerived:
    def test_precision_is_inverse(self, synthetic_prior):
        assert np.allclose(
            synthetic_prior.precision @ synthetic_prior.covariance,
            np.eye(5),
            atol=1e-8,
        )

    def test_to_normal_wishart_mode_matches(self, synthetic_prior):
        nw = synthetic_prior.to_normal_wishart(kappa0=2.0, v0=15.0)
        mu_m, lam_m = nw.mode()
        assert np.allclose(mu_m, synthetic_prior.mean)
        assert np.allclose(lam_m, synthetic_prior.precision, rtol=1e-8)

    def test_to_normal_wishart_rejects_small_v0(self, synthetic_prior):
        with pytest.raises(HyperParameterError):
            synthetic_prior.to_normal_wishart(kappa0=1.0, v0=4.0)

    def test_min_v0(self, synthetic_prior):
        assert synthetic_prior.min_v0() == 5.0

    def test_frozen(self, synthetic_prior):
        with pytest.raises(Exception):
            synthetic_prior.dim = 3


class TestWhitening:
    def test_is_computed_once(self, synthetic_prior):
        assert synthetic_prior.whitening is synthetic_prior.whitening

    def test_covariance_is_read_only(self, synthetic_prior):
        with pytest.raises(ValueError):
            synthetic_prior.covariance[0, 0] = 1.0

    def test_covariance_stays_read_only_through_pickle(self, synthetic_prior):
        factor = synthetic_prior.whitening
        clone = pickle.loads(pickle.dumps(synthetic_prior))
        with pytest.raises(ValueError):
            clone.covariance[0, 0] = 1.0
        np.testing.assert_array_equal(clone.whitening.linv, factor.linv)

    def test_bit_identical_to_whitening_the_covariance(self, synthetic_prior, rng):
        a = rng.standard_normal((4, 5, 5))
        stack = a @ np.swapaxes(a, -1, -2)
        got = synthetic_prior.whitening.whitened_eigh(stack)
        want = whitened_eigh_batched(stack, synthetic_prior.covariance)
        np.testing.assert_array_equal(got.values, want.values)
        np.testing.assert_array_equal(got.proj, want.proj)
        assert (got.base_logdet, got.base_cond) == (want.base_logdet, want.base_cond)
