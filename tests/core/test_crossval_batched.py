"""Sufficient-statistics CV scorer vs the per-candidate oracle, and score_at.

The production scorer is only allowed to exist because it is
*numerically indistinguishable* from the per-candidate loop kept in
``cv_oracles``: same scores to ``1e-10``, same ``-inf`` pattern, same
winner — including candidates that travel the jitter/eigenvalue-clip
repair ladder.
"""

import warnings

import numpy as np
import pytest

from repro.core.bmf import BMFEstimator
from repro.core.crossval import TwoDimensionalCV
from repro.core.hypergrid import HyperParameterGrid
from repro.core.prior import PriorKnowledge
from repro.exceptions import HyperParameterError
from repro.linalg.batched import cholesky_batched

from .cv_oracles import cv_fold_stats, cv_loop_select, map_moments


def random_prior(rng, d):
    a = rng.standard_normal((d, d))
    return PriorKnowledge(rng.standard_normal(d), a @ a.T + d * np.eye(d))


def assert_equivalent(prior, samples, grid, n_folds, seed):
    cv = TwoDimensionalCV(prior, grid, n_folds=n_folds)
    rb = cv.select(samples, rng=np.random.default_rng(seed))
    rl = cv_loop_select(prior, grid, samples, n_folds, rng=np.random.default_rng(seed))
    finite_b = np.isfinite(rb.scores)
    finite_l = np.isfinite(rl.scores)
    np.testing.assert_array_equal(finite_b, finite_l)
    np.testing.assert_allclose(
        rb.scores[finite_l], rl.scores[finite_l], rtol=1e-10, atol=1e-10
    )
    assert rb.kappa0 == rl.kappa0
    assert rb.v0 == rl.v0
    return rb, rl


class TestBatchedLoopEquivalence:
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("n_folds", [2, 3, 4])
    def test_random_problems(self, d, n_folds):
        rng = np.random.default_rng(100 * d + n_folds)
        prior = random_prior(rng, d)
        samples = rng.multivariate_normal(prior.mean, prior.covariance, size=24)
        grid = HyperParameterGrid.paper_default(d)
        assert_equivalent(prior, samples, grid, n_folds, seed=d)

    def test_degenerate_v0_hits_repair_path(self):
        # All-identical samples zero out every fold's scatter; with
        # v0 - d = 1e-13 the candidate covariance is numerically singular,
        # so plain Cholesky fails and the repair ladder must engage —
        # identically in the scorer and the oracle.
        d = 4
        rng = np.random.default_rng(3)
        prior = random_prior(rng, d)
        row = rng.standard_normal(d) + 50.0
        samples = np.tile(row, (8, 1))
        grid = HyperParameterGrid(
            kappa0_values=np.array([1e4]),
            v0_values=np.array([d + 1e-13]),
            dim=d,
        )
        stats = cv_fold_stats(samples, 2, np.random.default_rng(0))
        _, sigma = map_moments(prior, stats[0], 1e4, d + 1e-13)
        _, plain_ok = cholesky_batched(sigma)
        assert not plain_ok.all(), "candidate must actually need repair"
        assert_equivalent(prior, samples, grid, n_folds=2, seed=0)

    def test_rank_deficient_folds(self):
        # Fewer training samples than dimensions: scatter is rank
        # deficient, so small-v0 candidates lean on the prior term alone.
        d = 5
        rng = np.random.default_rng(11)
        prior = random_prior(rng, d)
        samples = rng.multivariate_normal(prior.mean, prior.covariance, size=6)
        grid = HyperParameterGrid(
            kappa0_values=np.geomspace(1e-2, 1e3, 8),
            v0_values=d + np.geomspace(1e-9, 1e2, 8),
            dim=d,
        )
        assert_equivalent(prior, samples, grid, n_folds=3, seed=11)

    def test_winner_consistent_across_many_seeds(self, synthetic_prior, gaussian5):
        grid = HyperParameterGrid.paper_default(5)
        for seed in range(5):
            samples = gaussian5.sample(20, rng=np.random.default_rng(1000 + seed))
            assert_equivalent(synthetic_prior, samples, grid, n_folds=4, seed=seed)


class TestNoUsableCandidate:
    """A grid on which every candidate scores -inf has no winner."""

    @pytest.fixture
    def huge(self):
        # Fold scatters of rows this large overflow float64.
        return np.random.default_rng(0).standard_normal((16, 3)) * 1e160

    @pytest.fixture
    def prior3(self):
        return PriorKnowledge(np.zeros(3), np.eye(3))

    def test_select_raises_without_warnings(self, prior3, huge):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HyperParameterError, match="overflows float64"):
                TwoDimensionalCV(prior3).select(huge, rng=np.random.default_rng(1))

    def test_bmf_estimate_names_the_cause(self, prior3, huge):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HyperParameterError, match="scores -inf"):
                BMFEstimator(prior3).estimate(huge, rng=np.random.default_rng(1))

    def test_every_candidate_indefinite_raises(self, prior3):
        # Finite fold statistics, but a prior mean so far from the data
        # that every candidate's Eq. 32 rank-one term overflows.
        prior = PriorKnowledge(np.full(3, 1e160), np.eye(3))
        samples = np.random.default_rng(2).standard_normal((12, 3))
        grid = HyperParameterGrid(
            kappa0_values=np.array([1.0, 10.0]), v0_values=np.array([4.0, 8.0]), dim=3
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HyperParameterError, match="non-finite or stays indefinite"):
                TwoDimensionalCV(prior, grid).select(samples, rng=np.random.default_rng(0))

    def test_partially_unusable_grid_scores_minus_inf_quietly(self):
        # Rows near 1e154 (identical in float64) keep the fold statistics
        # finite, but the rank-one prior-distance term overflows unless
        # kappa0 is tiny: the large-kappa0 candidate must score -inf
        # without a division warning while the other keeps its score.
        d = 3
        prior = PriorKnowledge(np.zeros(d), np.eye(d))
        samples = np.random.default_rng(4).standard_normal((12, d)) + 1e154
        grid = HyperParameterGrid(
            kappa0_values=np.array([1e-300, 1e300]), v0_values=np.array([d + 1.0]), dim=d
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = TwoDimensionalCV(prior, grid).select(
                samples, rng=np.random.default_rng(0)
            )
        assert np.isneginf(result.scores[1, 0])
        assert np.isfinite(result.scores[0, 0])
        assert result.kappa0 == 1e-300


class TestScoreAt:
    @pytest.fixture
    def result(self, synthetic_prior, gaussian5, rng):
        samples = gaussian5.sample(20, rng=rng)
        cv = TwoDimensionalCV(synthetic_prior, n_folds=3)
        return cv.select(samples, rng=np.random.default_rng(5))

    def test_exact_grid_point(self, result):
        i, j = 2, 7
        got = result.score_at(
            float(result.kappa0_values[i]), float(result.v0_values[j])
        )
        assert got == result.scores[i, j]

    def test_float_roundtrip_within_atol(self, result):
        # A JSON round-trip perturbs the decimal repr at most in the last
        # ulp — far inside the default relative atol.
        k = float(repr(float(result.kappa0_values[4])))
        v = float(repr(float(result.v0_values[4])))
        assert result.score_at(k, v) == result.scores[4, 4]

    def test_off_grid_kappa_raises(self, result):
        k = float(result.kappa0_values[0]) * 1.5
        with pytest.raises(HyperParameterError, match="kappa0"):
            result.score_at(k, float(result.v0_values[0]))

    def test_off_grid_v0_raises(self, result):
        mid = 0.5 * float(result.v0_values[3] + result.v0_values[4])
        with pytest.raises(HyperParameterError, match="v0"):
            result.score_at(float(result.kappa0_values[0]), mid)

    def test_atol_override(self, result):
        k = float(result.kappa0_values[2]) * (1.0 + 1e-6)
        with pytest.raises(HyperParameterError):
            result.score_at(k, float(result.v0_values[2]))
        assert result.score_at(
            k, float(result.v0_values[2]), atol=1e-4
        ) == pytest.approx(result.scores[2, 2])
