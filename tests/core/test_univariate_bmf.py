"""Reference [7]'s univariate BMF (the test oracle) and its d = 1 consistency."""

import numpy as np
import pytest

from repro.core.bmf import map_moments
from repro.core.prior import PriorKnowledge
from repro.core.registry import EstimatorSpec, make_estimator
from repro.exceptions import DimensionError, HyperParameterError, InsufficientDataError

from .normal_gamma_oracle import NormalGammaPrior


def _univariate_bmf(mean_e, var_e, kappa0, alpha0):
    """The ``univariate-bmf`` registry estimator on early moments ``(mean_e, var_e)``."""
    prior = PriorKnowledge(np.array([mean_e]), np.array([[var_e]]))
    spec = EstimatorSpec("univariate-bmf", {"kappa0": kappa0, "alpha0": alpha0})
    return make_estimator(spec, prior=prior)


class TestNormalGammaPrior:
    def test_mode_anchored_at_early_moments(self):
        prior = NormalGammaPrior.from_early_stage(2.0, 4.0, kappa0=1.5, alpha0=3.0)
        mu_m, lambda_m = prior.mode()
        assert mu_m == pytest.approx(2.0)
        assert 1.0 / lambda_m == pytest.approx(4.0)

    def test_rejects_bad_hyperparams(self):
        with pytest.raises(HyperParameterError):
            NormalGammaPrior(0.0, -1.0, 2.0, 1.0)
        with pytest.raises(HyperParameterError):
            NormalGammaPrior(0.0, 1.0, 0.4, 1.0)
        with pytest.raises(HyperParameterError):
            NormalGammaPrior.from_early_stage(0.0, -2.0, 1.0, 2.0)

    def test_posterior_counting(self, rng):
        prior = NormalGammaPrior.from_early_stage(0.0, 1.0, 2.0, 3.0)
        post = prior.posterior(rng.standard_normal(10))
        assert post.kappa0 == pytest.approx(12.0)
        assert post.alpha0 == pytest.approx(8.0)

    def test_sequential_equals_batch(self, rng):
        prior = NormalGammaPrior.from_early_stage(0.5, 2.0, 1.0, 2.0)
        data = rng.standard_normal(12)
        batch = prior.posterior(data)
        seq = prior.posterior(data[:5]).posterior(data[5:])
        assert seq.mu0 == pytest.approx(batch.mu0)
        assert seq.kappa0 == pytest.approx(batch.kappa0)
        assert seq.alpha0 == pytest.approx(batch.alpha0)
        assert seq.beta0 == pytest.approx(batch.beta0)

    def test_posterior_needs_data(self):
        prior = NormalGammaPrior.from_early_stage(0.0, 1.0, 1.0, 2.0)
        with pytest.raises(InsufficientDataError):
            prior.posterior(np.array([]))


class TestUnivariateBMF:
    """The ``univariate-bmf`` registry name: pinned d = 1 BMF, ``v0 = 2 alpha0``."""

    def test_large_kappa_trusts_prior_mean(self, rng):
        est = _univariate_bmf(3.0, 1.0, kappa0=1e8, alpha0=2.0)
        mean = est.estimate(rng.standard_normal(10)).mean[0]
        assert mean == pytest.approx(3.0, abs=1e-4)

    def test_small_kappa_trusts_data(self, rng):
        data = rng.standard_normal(50) + 1.0
        est = _univariate_bmf(10.0, 1.0, kappa0=1e-8, alpha0=0.6)
        assert est.estimate(data).mean[0] == pytest.approx(float(data.mean()), abs=1e-4)

    def test_variance_positive(self, rng):
        est = _univariate_bmf(0.0, 2.0, kappa0=1.0, alpha0=2.0)
        assert est.estimate(rng.standard_normal(8)).covariance[0, 0] > 0.0

    def test_reports_bmf_hyperparams(self, rng):
        estimate = _univariate_bmf(0.0, 2.0, kappa0=1.5, alpha0=3.0).estimate(
            rng.standard_normal(8)
        )
        assert estimate.method == "bmf"
        assert estimate.info == {"kappa0": 1.5, "v0": 6.0}

    def test_rejects_multivariate_prior(self, synthetic_prior):
        with pytest.raises(DimensionError):
            make_estimator("univariate-bmf", prior=synthetic_prior)

    def test_rejects_alpha0_at_half(self):
        with pytest.raises(HyperParameterError):
            _univariate_bmf(0.0, 1.0, kappa0=1.0, alpha0=0.5)

    def test_consistency_with_multivariate_d1(self, rng):
        """The d=1 multivariate BMF must be a normal-gamma in disguise.

        With the correspondences kappa0 <-> kappa0, v0 <-> 2*alpha0 and
        Sigma_E <-> var_e, Eq. (31) and (32) at d=1 equal the normal-gamma
        MAP mean and variance; here we check the posterior *mean
        locations* agree on one case (both moments, over random cases:
        ``test_d1_mean_and_variance_match_over_random_cases``).
        """
        data = rng.standard_normal(9) * 1.3 + 0.4
        kappa0 = 2.5
        prior_mv = PriorKnowledge(np.array([0.2]), np.array([[1.7]]))
        mu_mv, _ = map_moments(prior_mv, data[:, None], kappa0, v0=8.0)

        prior_uv = NormalGammaPrior.from_early_stage(0.2, 1.7, kappa0, alpha0=4.0)
        post = prior_uv.posterior(data)
        assert abs(mu_mv[0] - post.mu0) <= 1e-12 * max(abs(post.mu0), 1.0)

    def test_d1_mean_and_variance_match_over_random_cases(self, rng):
        """The oracle with ``alpha0 = v0/2`` is Eq. 31-32 at d=1 in variance
        as well as mean: with beta0 = (alpha0 - 1/2) var_e, the normal-gamma
        mode beta_n / (alpha_n - 1/2) is
        [(v0 - 1) var_e + S + kappa0 n / (kappa0 + n) (xbar - mu_E)^2]
        / (v0 + n - 1), the d=1 case of Eq. 32.  Checked on both Eq. 31-32
        and the ``univariate-bmf`` registry estimator."""
        worst = 0.0
        for _ in range(200):
            mean_e = 3.0 * rng.standard_normal()
            var_e = rng.uniform(0.1, 5.0)
            kappa0 = 10.0 ** rng.uniform(-2.0, 2.0)
            v0 = rng.uniform(1.2, 30.0)
            n = int(rng.integers(1, 40))
            data = mean_e + rng.uniform(0.2, 3.0) * rng.standard_normal(n)
            prior = PriorKnowledge(np.array([mean_e]), np.array([[var_e]]))
            mu_mv, sigma_mv = map_moments(prior, data[:, None], kappa0, v0)
            oracle = NormalGammaPrior.from_early_stage(mean_e, var_e, kappa0, v0 / 2.0)
            mean_uv, var_uv = oracle.map_mean_variance(data)
            registry = _univariate_bmf(mean_e, var_e, kappa0, v0 / 2.0).estimate(data)
            for a, b in (
                (mu_mv[0], mean_uv),
                (sigma_mv[0, 0], var_uv),
                (registry.mean[0], mean_uv),
                (registry.covariance[0, 0], var_uv),
            ):
                worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
        assert worst <= 1e-12
