"""Numerical-stability integration tests: extreme scales end to end.

AMS metrics span huge magnitude ranges (the paper: "gain and power metrics
may differ by more than seven orders of magnitude").  These tests push the
whole pipeline with metrics 15 decades apart and with nearly-collinear
metrics, the two ways real datasets break naive implementations.
"""

import numpy as np
import pytest

from repro.core.pipeline import FusionPipeline
from repro.linalg.validation import is_spd
from repro.stats.multivariate_gaussian import MultivariateGaussian
from repro.yieldest.parametric import YieldEstimator
from repro.yieldest.specs import Specification, SpecificationSet


@pytest.fixture
def extreme_pair(rng):
    """Early/late banks whose metrics span 15 orders of magnitude."""
    d = 4
    scales = np.array([1e7, 1.0, 1e-4, 1e-8])
    a = rng.standard_normal((d, d))
    corr = a @ a.T / d + np.eye(d)
    std = np.sqrt(np.diag(corr))
    corr = corr / np.outer(std, std)
    cov = corr * np.outer(scales, scales) * 0.01
    mean = scales * 3.0
    truth_early = MultivariateGaussian(mean, cov)
    truth_late = MultivariateGaussian(mean * 1.1, cov * 1.05)
    early = truth_early.sample(600, rng)
    late = truth_late.sample(400, rng)
    return early, late, mean, mean * 1.1, truth_late


class TestExtremeScales:
    def test_pipeline_survives(self, extreme_pair, rng):
        early, late, e_nom, l_nom, truth = extreme_pair
        pipeline = FusionPipeline.fit(early, e_nom, l_nom)
        result = pipeline.estimate(late[:16], rng=rng)
        assert np.all(np.isfinite(result.mean))
        assert is_spd(result.covariance / np.outer(
            np.sqrt(np.diag(result.covariance)), np.sqrt(np.diag(result.covariance))
        ))
        # The fused mean lands within 50% of the truth per metric.
        rel = np.abs(result.mean - truth.mean) / np.abs(truth.mean)
        assert np.all(rel < 0.5)

    def test_yield_from_extreme_moments(self, extreme_pair, rng):
        early, late, e_nom, l_nom, truth = extreme_pair
        pipeline = FusionPipeline.fit(early, e_nom, l_nom)
        result = pipeline.estimate(late[:32], rng=rng)
        stds = np.sqrt(np.diag(truth.covariance))
        specs = SpecificationSet(
            tuple(
                Specification.window(
                    f"m{j}",
                    float(truth.mean[j] - 2 * stds[j]),
                    float(truth.mean[j] + 2 * stds[j]),
                )
                for j in range(4)
            )
        )
        report = YieldEstimator(specs).from_moments(result.mean, result.covariance)
        # 2-sigma box of a (correlated) 4-D Gaussian: yield well inside (0, 1).
        assert 0.5 < report.total_yield < 0.999

    def test_cross_validation_stable(self, extreme_pair, rng):
        """The CV must not blow up on raw-scale leakage: all candidates
        are evaluated in the isotropic space, so scores stay finite."""
        from repro.core.crossval import TwoDimensionalCV
        from repro.core.preprocessing import ShiftScaleTransform
        from repro.core.prior import PriorKnowledge

        early, late, e_nom, l_nom, _truth = extreme_pair
        transform = ShiftScaleTransform.fit(early, e_nom, l_nom)
        prior = PriorKnowledge.from_samples(transform.transform(early, "early"))
        result = TwoDimensionalCV(prior).select(
            transform.transform(late[:24], "late"), rng=rng
        )
        finite = result.scores[np.isfinite(result.scores)]
        assert finite.size > 0.9 * result.scores.size


class TestNearCollinearMetrics:
    def test_pipeline_with_correlation_099(self, rng):
        """Two metrics at rho=0.99: fusion must stay SPD and sensible."""
        d = 3
        cov = np.array(
            [
                [1.0, 0.99, 0.2],
                [0.99, 1.0, 0.2],
                [0.2, 0.2, 1.0],
            ]
        )
        truth = MultivariateGaussian(np.zeros(d), cov)
        early = truth.sample(500, rng) + 1.0
        late = truth.sample(200, rng) + 1.5
        pipeline = FusionPipeline.fit(early, np.ones(d), np.full(d, 1.5))
        result = pipeline.estimate(late[:10], rng=rng)
        corr = result.covariance / np.outer(
            np.sqrt(np.diag(result.covariance)),
            np.sqrt(np.diag(result.covariance)),
        )
        assert corr[0, 1] > 0.9
        assert is_spd(result.covariance)

    def test_mle_floor_rescues_rank_deficiency(self, rng):
        """n=3 < d=5: the MLE estimator must still produce usable output."""
        from repro.core.mle import MLEstimator

        data = rng.standard_normal((3, 5))
        est = MLEstimator().estimate(data)
        assert is_spd(est.covariance)
        assert np.isfinite(est.loglik(data))
