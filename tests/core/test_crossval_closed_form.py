"""The closed-form CV scorer and the Cholesky fallback behind its guard.

``TwoDimensionalCV._score_grid`` scores every (fold, candidate) member in
closed form and sends only the members its conditioning bound flags to
``_score_members``, the Cholesky path with the repair ladder.  These
tests spy on that fallback: which members reach it, that well-posed
problems never do, and that a member it scores gets exactly what the
stacked Cholesky scorer (:func:`cv_oracles.stacked_fold_ll`) gives it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import crossval
from repro.core.crossval import TwoDimensionalCV, _fold_stats, make_folds
from repro.core.hypergrid import HyperParameterGrid
from repro.core.prior import PriorKnowledge

from .cv_oracles import stacked_fold_ll


def random_prior(rng, d):
    a = rng.standard_normal((d, d))
    return PriorKnowledge(rng.standard_normal(d), a @ a.T + d * np.eye(d))


def degenerate_v0_problem():
    """All-identical rows and ``v0 - d = 1e-13``: a numerically singular MAP."""
    d = 4
    rng = np.random.default_rng(3)
    prior = random_prior(rng, d)
    samples = np.tile(rng.standard_normal(d) + 50.0, (8, 1))
    grid = HyperParameterGrid(
        kappa0_values=np.array([1e4]), v0_values=np.array([d + 1e-13]), dim=d
    )
    return prior, grid, samples, 2, 0


def rank_deficient_problem():
    """Fewer training rows than dimensions, ``v0`` down to ``d + 1e-9``."""
    d = 5
    rng = np.random.default_rng(11)
    prior = random_prior(rng, d)
    samples = rng.multivariate_normal(prior.mean, prior.covariance, size=6)
    grid = HyperParameterGrid(
        kappa0_values=np.geomspace(1e-2, 1e3, 8),
        v0_values=d + np.geomspace(1e-9, 1e2, 8),
        dim=d,
    )
    return prior, grid, samples, 3, 11


def well_conditioned_problem():
    d = 5
    rng = np.random.default_rng(5)
    prior = random_prior(rng, d)
    samples = rng.multivariate_normal(prior.mean + 0.1, prior.covariance, size=256)
    return prior, HyperParameterGrid.paper_default(d), samples, 4, 5


@pytest.fixture
def fallback_calls(monkeypatch):
    """Record ``(members, fold_ll, ok)`` of every fallback call."""
    calls = []
    original = TwoDimensionalCV._score_members

    def spy(self, stats, members):
        fold_ll, ok = original(self, stats, members)
        calls.append((members, fold_ll.copy(), ok.copy()))
        return fold_ll, ok

    monkeypatch.setattr(TwoDimensionalCV, "_score_members", spy)
    return calls


def split(samples, n_folds, seed):
    """The fold statistics ``select(samples, rng=default_rng(seed))`` scores."""
    folds = make_folds(samples.shape[0], n_folds, np.random.default_rng(seed))
    return _fold_stats(samples, folds)


@pytest.mark.parametrize("build", [degenerate_v0_problem, rank_deficient_problem])
def test_flagged_members_go_through_the_fallback(build, fallback_calls):
    prior, grid, samples, n_folds, seed = build()
    stats = split(samples, n_folds, seed)
    _, flagged = crossval._closed_form_fold_ll(prior, grid, stats)
    assert flagged.any()

    TwoDimensionalCV(prior, grid, n_folds=n_folds).select(
        samples, rng=np.random.default_rng(seed)
    )
    (members, _, _), = fallback_calls
    np.testing.assert_array_equal(np.stack(members), np.stack(np.nonzero(flagged)))


def test_well_conditioned_problem_never_falls_back(fallback_calls):
    prior, grid, samples, n_folds, seed = well_conditioned_problem()
    result = TwoDimensionalCV(prior, grid, n_folds=n_folds).select(
        samples, rng=np.random.default_rng(seed)
    )
    assert np.isfinite(result.scores).all()
    assert fallback_calls == []


@pytest.mark.parametrize("build", [degenerate_v0_problem, rank_deficient_problem])
def test_fallback_members_score_as_the_stacked_scorer(build, fallback_calls):
    prior, grid, samples, n_folds, seed = build()
    TwoDimensionalCV(prior, grid, n_folds=n_folds).select(
        samples, rng=np.random.default_rng(seed)
    )
    (members, fold_ll, ok), = fallback_calls
    want_ll, want_ok = stacked_fold_ll(prior, grid, split(samples, n_folds, seed))
    np.testing.assert_array_equal(ok, want_ok[members])
    np.testing.assert_array_equal(fold_ll[ok], want_ll[members][ok])


def test_closed_form_matches_the_stacked_scorer_on_unflagged_members():
    prior, grid, samples, n_folds, seed = well_conditioned_problem()
    stats = split(samples, n_folds, seed)
    got, flagged = crossval._closed_form_fold_ll(prior, grid, stats)
    want, ok = stacked_fold_ll(prior, grid, stats)
    assert ok.all() and not flagged.any()
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=6),
    n=st.integers(min_value=2, max_value=120),
    n_folds=st.integers(min_value=2, max_value=5),
    cond_exp=st.floats(min_value=0.0, max_value=8.0),
    scale_exp=st.floats(min_value=-3.0, max_value=3.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_unflagged_members_stay_within_the_oracle_gate(
    d, n, n_folds, cond_exp, scale_exp, seed
):
    # Ill-conditioned priors, v0 - d down to 1e-12 and a misplaced prior
    # mean: whatever the guard lets through must still agree with the
    # Cholesky scorer to the suites' 1e-10.
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    sigma = (basis * np.logspace(0.0, cond_exp, d) * 10.0**scale_exp) @ basis.T
    sigma = (sigma + sigma.T) / 2.0
    root = np.linalg.cholesky(sigma)
    mu = rng.standard_normal(d) @ root.T
    samples = mu + rng.standard_normal((n, d)) @ root.T * rng.uniform(0.3, 3.0)
    prior = PriorKnowledge(
        mu + rng.standard_normal(d) @ root.T * rng.uniform(0.0, 5.0),
        sigma * rng.uniform(0.5, 2.0),
    )
    grid = HyperParameterGrid(
        kappa0_values=np.geomspace(1e-3, 1e5, 6),
        v0_values=d + np.geomspace(1e-12, 1e4, 8),
        dim=d,
    )
    stats = split(samples, min(n_folds, n), seed)
    got, flagged = crossval._closed_form_fold_ll(prior, grid, stats)
    want, ok = stacked_fold_ll(prior, grid, stats)
    kept = ~flagged
    assert ok[kept].all()
    np.testing.assert_allclose(got[kept], want[kept], rtol=1e-10, atol=1e-10)
