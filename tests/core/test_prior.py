"""Tests for the early-stage prior container (Eq. 17-21)."""

import numpy as np
import pytest

from repro.core.prior import PriorKnowledge
from repro.exceptions import DimensionError, HyperParameterError, InsufficientDataError


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
