"""Batched Gaussian box probabilities vs the scalar Genz path."""

import numpy as np
import pytest

from repro.exceptions import DimensionError
from repro.yieldest.parametric import (
    gaussian_box_probabilities,
    gaussian_box_probability,
)


@pytest.fixture
def bank(rng):
    d, k = 4, 10
    means = rng.normal(size=(k, d))
    covs = np.empty((k, d, d))
    for i in range(k):
        a = rng.standard_normal((d, d))
        covs[i] = a @ a.T + d * np.eye(d)
    return means, covs


class TestBatchedBoxProbabilities:
    def test_matches_scalar(self, bank):
        means, covs = bank
        lower, upper = -2.0 * np.ones(4), 2.0 * np.ones(4)
        batched = gaussian_box_probabilities(means, covs, lower, upper)
        scalar = np.array(
            [
                gaussian_box_probability(means[i], covs[i], lower, upper)
                for i in range(len(means))
            ]
        )
        # The Genz integrator is quasi-Monte-Carlo (~1e-4 jitter between
        # calls); the standardization itself is exact.
        np.testing.assert_allclose(batched, scalar, atol=5e-4)

    def test_values_in_unit_interval(self, bank):
        means, covs = bank
        probs = gaussian_box_probabilities(
            means, covs, -np.ones(4), np.ones(4)
        )
        assert np.all((probs >= 0.0) & (probs <= 1.0))

    def test_shape_mismatch_raises(self, bank):
        means, covs = bank
        with pytest.raises(DimensionError):
            gaussian_box_probabilities(means, covs[:-1], -1.0, 1.0)

    def test_bad_bounds_raise(self, bank):
        means, covs = bank
        with pytest.raises(DimensionError):
            gaussian_box_probabilities(means, covs, 1.0, -1.0)

