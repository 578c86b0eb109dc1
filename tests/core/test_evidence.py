"""Tests for evidence-based (marginal-likelihood) hyper-parameter selection."""

import warnings

import numpy as np
import pytest

from repro.core.bmf import BMFEstimator
from repro.core.evidence import EvidenceSelector, log_evidence
from repro.core.hypergrid import HyperParameterGrid
from repro.core.prior import PriorKnowledge
from repro.exceptions import HyperParameterError, InsufficientDataError
from repro.stats.multivariate_gaussian import MultivariateGaussian

from .cv_oracles import evidence_loop_select


class TestLogEvidence:
    def test_matches_monte_carlo_estimate(self, synthetic_prior, gaussian5, rng):
        """The closed form must agree with brute-force Monte-Carlo
        integration of the likelihood over the prior."""
        data = gaussian5.sample(6, rng)
        kappa0, v0 = 4.0, 20.0
        analytic = log_evidence(synthetic_prior, data, kappa0, v0)

        nw = synthetic_prior.to_normal_wishart(kappa0, v0)
        mus, lams = nw.sample(4000, rng)
        logliks = np.empty(4000)
        for k in range(4000):
            sigma = np.linalg.inv(lams[k])
            logliks[k] = MultivariateGaussian(mus[k], sigma).loglik(data)
        # log E[exp(loglik)] via log-sum-exp.
        m = logliks.max()
        mc = m + np.log(np.mean(np.exp(logliks - m)))
        assert analytic == pytest.approx(mc, abs=0.5)

    def test_additivity_over_batches(self, synthetic_prior, gaussian5, rng):
        """Chain rule: log p(D1, D2) = log p(D1) + log p(D2 | D1)."""
        data = gaussian5.sample(10, rng)
        kappa0, v0 = 3.0, 15.0
        joint = log_evidence(synthetic_prior, data, kappa0, v0)

        first = log_evidence(synthetic_prior, data[:4], kappa0, v0)
        nw_post = synthetic_prior.to_normal_wishart(kappa0, v0).posterior(data[:4])
        post_prior = PriorKnowledge(
            nw_post.mu0, np.linalg.inv((nw_post.v0 - 5) * nw_post.T0)
        )
        second = log_evidence(post_prior, data[4:], nw_post.kappa0, nw_post.v0)
        assert joint == pytest.approx(first + second, rel=1e-8)

    def test_dim_mismatch(self, synthetic_prior, rng):
        with pytest.raises(InsufficientDataError):
            log_evidence(synthetic_prior, rng.standard_normal((5, 3)), 1.0, 10.0)


class TestEvidenceSelector:
    def test_surface_shape(self, synthetic_prior, gaussian5, rng):
        grid = HyperParameterGrid.paper_default(5, n_kappa=4, n_v=3)
        result = EvidenceSelector(synthetic_prior, grid).select(gaussian5.sample(16, rng))
        assert result.scores.shape == (4, 3)
        assert np.all(np.isfinite(result.scores))
        assert result.best_log_evidence == pytest.approx(np.max(result.scores))

    def test_deterministic(self, synthetic_prior, gaussian5):
        data = gaussian5.sample(12, np.random.default_rng(1))
        a = EvidenceSelector(synthetic_prior).select(data)
        b = EvidenceSelector(synthetic_prior).select(data)
        assert a.kappa0 == b.kappa0 and a.v0 == b.v0

    def test_good_prior_beats_bad_prior_on_v0(self, gaussian5, rng):
        good = PriorKnowledge(gaussian5.mean, gaussian5.covariance)
        bad = PriorKnowledge(gaussian5.mean, gaussian5.covariance * 30.0)
        data = gaussian5.sample(24, rng)
        v_good = EvidenceSelector(good).select(data).v0
        v_bad = EvidenceSelector(bad).select(data).v0
        assert v_good > v_bad

    def test_needs_two_samples(self, synthetic_prior, gaussian5, rng):
        with pytest.raises(InsufficientDataError):
            EvidenceSelector(synthetic_prior).select(gaussian5.sample(1, rng))


class TestBMFWithEvidenceSelector:
    def test_estimator_option(self, synthetic_prior, gaussian5, rng):
        est = BMFEstimator(synthetic_prior, selector="evidence").estimate(
            gaussian5.sample(16, rng)
        )
        est.validate()
        assert est.info["v0"] > 5.0

    def test_rejects_unknown_selector(self, synthetic_prior):
        with pytest.raises(HyperParameterError):
            BMFEstimator(synthetic_prior, selector="aic")

    def test_comparable_accuracy_to_cv(self, gaussian5, rng):
        """With a faithful prior both selectors should land in the same
        accuracy ballpark (within 2x on average covariance error)."""
        prior = PriorKnowledge(gaussian5.mean + 0.05, gaussian5.covariance * 1.05)
        cv_errs, ev_errs = [], []
        for _ in range(10):
            data = gaussian5.sample(12, rng)
            for sel, bucket in (("cv", cv_errs), ("evidence", ev_errs)):
                est = BMFEstimator(prior, selector=sel).estimate(data, rng=rng)
                bucket.append(
                    np.linalg.norm(est.covariance - gaussian5.covariance)
                )
        assert np.mean(ev_errs) < 2.0 * np.mean(cv_errs)
        assert np.mean(cv_errs) < 2.0 * np.mean(ev_errs)


class TestLogEvidenceGrid:
    def test_matches_scalar_loop(self, synthetic_prior, gaussian5, rng):
        from repro.core.evidence import log_evidence_grid

        data = gaussian5.sample(14, rng)
        grid = HyperParameterGrid.paper_default(5, n_kappa=6, n_v=5)
        surface = log_evidence_grid(synthetic_prior, data, grid)
        assert surface.shape == (6, 5)
        for i, kappa0 in enumerate(grid.kappa0_values):
            for j, v0 in enumerate(grid.v0_values):
                expected = log_evidence(
                    synthetic_prior, data, float(kappa0), float(v0)
                )
                assert surface[i, j] == pytest.approx(expected, rel=1e-8)

    def test_selector_scoring_modes_agree(self, synthetic_prior, gaussian5, rng):
        data = gaussian5.sample(16, rng)
        selector = EvidenceSelector(synthetic_prior)
        batched = selector.select(data)
        loop = evidence_loop_select(synthetic_prior, selector.grid, data)
        assert batched.kappa0 == loop.kappa0
        assert batched.v0 == loop.v0
        np.testing.assert_allclose(batched.scores, loop.scores, rtol=1e-10)

    def test_no_finite_candidate_raises(self):
        # The scatter of rows this large overflows float64, so every
        # candidate's log evidence is -inf: no winner, and no warning.
        prior = PriorKnowledge(np.zeros(3), np.eye(3))
        huge = np.random.default_rng(0).standard_normal((16, 3)) * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HyperParameterError, match="log evidence -inf"):
                EvidenceSelector(prior).select(huge)
            with pytest.raises(HyperParameterError, match="log evidence -inf"):
                BMFEstimator(prior, selector="evidence").estimate(huge)
