"""One n = 1 rule: pinned (kappa0, v0) answer from a single late row.

Eq. 31–32 is defined for every ``n >= 0`` (``v0 > d`` keeps the
denominator positive and the prior term keeps the covariance SPD), so
every path that pins the hyper-parameters answers at ``n = 1`` and at
``n <= d``, where the sample scatter alone is singular: pinned ``bmf``,
its ``sequential-bmf`` and ``univariate-bmf`` aliases, and a served
session.  Only the hyper-parameter search needs ``n >= 2``.
"""

import numpy as np
import pytest

from repro.core.bmf import BMFEstimator, map_moments_from_stats
from repro.core.prior import PriorKnowledge
from repro.core.registry import EstimatorSpec, make_estimator
from repro.exceptions import InsufficientDataError
from repro.linalg.validation import is_spd
from repro.serving import ShardedMomentService
from repro.stats.suffstats import SufficientStats

D = 5


def _prior(d, rng):
    a = rng.standard_normal((d, d))
    return PriorKnowledge(rng.standard_normal(d), a @ a.T + d * np.eye(d))


def _pinned(prior, data):
    kappa0, v0 = 2.0, prior.dim + 3.0
    return BMFEstimator(prior, kappa0=kappa0, v0=v0).estimate(data), (kappa0, v0)


def _sequential(prior, data):
    est = make_estimator("sequential-bmf", prior=prior).estimate(data)
    return est, (1.0, prior.dim + 1.0)


def _univariate(prior, data):
    spec = EstimatorSpec("univariate-bmf", {"kappa0": 1.5, "alpha0": 2.5})
    return make_estimator(spec, prior=prior).estimate(data[:, 0]), (1.5, 5.0)


def _served(prior, data):
    with ShardedMomentService(n_shards=2, flush_rows=8) as svc:
        svc.create_session("k", prior, kappa0=4.0, v0=prior.dim + 0.5)
        for row in data:
            svc.ingest("k", row)
        return svc.estimate("k"), (4.0, prior.dim + 0.5)


CASES = [
    pytest.param(_pinned, D, 1, id="bmf-n1"),
    pytest.param(_pinned, D, 3, id="bmf-n3"),
    pytest.param(_pinned, D, D, id="bmf-nd"),
    pytest.param(_sequential, D, 1, id="sequential-bmf-n1"),
    pytest.param(_sequential, D, D, id="sequential-bmf-nd"),
    pytest.param(_univariate, 1, 1, id="univariate-bmf-n1"),
    pytest.param(_served, D, 1, id="served-n1"),
    pytest.param(_served, D, D, id="served-nd"),
]


@pytest.mark.parametrize("run, d, n", CASES)
def test_pinned_paths_answer_at_small_n(run, d, n, rng):
    prior = _prior(d, rng)
    data = rng.standard_normal((n, d)) + prior.mean
    estimate, (kappa0, v0) = run(prior, data)
    mean, cov = map_moments_from_stats(
        prior, SufficientStats.from_samples(data), kappa0, v0
    )
    assert estimate.n_samples == n
    assert is_spd(estimate.covariance)
    np.testing.assert_allclose(estimate.mean, mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(estimate.covariance, cov, rtol=0, atol=1e-12)


@pytest.mark.parametrize("selector", ["cv", "evidence"])
def test_selected_bmf_still_needs_two_rows(selector, rng):
    prior = _prior(D, rng)
    with pytest.raises(InsufficientDataError):
        BMFEstimator(prior, selector=selector).estimate(rng.standard_normal((1, D)))
