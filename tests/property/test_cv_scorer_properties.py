"""Property: the sufficient-statistics CV scorer matches the per-candidate oracle.

Over random problems — any ``d`` in 1..6, ``n`` in 2..200, ``Q`` in 2..5,
including ``n`` not divisible by ``Q``, ``n < Q`` (leave-one-out),
held-out folds with ``n_t <= d`` and duplicated rows — every grid score
agrees with :func:`tests.core.cv_oracles.cv_loop_select` to ``1e-10``, the
``-inf`` pattern is identical and the winner is the same.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core.crossval import TwoDimensionalCV
from repro.core.hypergrid import HyperParameterGrid
from repro.core.prior import PriorKnowledge

from ..core.cv_oracles import cv_loop_select

SETTINGS = settings(max_examples=40, deadline=None)


def problem(d, n, seed, n_dup):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    sigma = a @ a.T + 0.5 * np.eye(d)
    mu = rng.standard_normal(d)
    data = rng.multivariate_normal(mu, sigma, size=n)
    if n_dup:
        src = rng.integers(0, n, size=n_dup)
        dst = rng.integers(0, n, size=n_dup)
        data[dst] = data[src]
    # A mildly misspecified prior, so the grid has an interior optimum.
    prior = PriorKnowledge(mu + 0.3 * rng.standard_normal(d), sigma * rng.uniform(0.5, 2.0))
    return prior, data


@SETTINGS
@given(
    d=st.integers(min_value=1, max_value=6),
    n=st.integers(min_value=2, max_value=200),
    n_folds=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    dup_frac=st.sampled_from([0.0, 0.0, 0.25, 0.9]),
)
@example(d=6, n=3, n_folds=5, seed=1, dup_frac=0.0)  # n < Q: leave-one-out
@example(d=4, n=11, n_folds=4, seed=2, dup_frac=0.0)  # n % Q != 0, n_t <= d
@example(d=5, n=7, n_folds=3, seed=3, dup_frac=0.9)  # rank-deficient, duplicates
@example(d=1, n=2, n_folds=2, seed=4, dup_frac=0.0)  # one row per fold
def test_stats_scorer_matches_loop_oracle(d, n, n_folds, seed, dup_frac):
    prior, data = problem(d, n, seed, int(dup_frac * n))
    grid = HyperParameterGrid.paper_default(d, n_kappa=8, n_v=8)
    got = TwoDimensionalCV(prior, grid, n_folds=n_folds).select(
        data, rng=np.random.default_rng(seed)
    )
    want = cv_loop_select(prior, grid, data, n_folds, rng=np.random.default_rng(seed))
    assert got.n_folds == want.n_folds == min(n_folds, n)
    finite = np.isfinite(want.scores)
    np.testing.assert_array_equal(np.isfinite(got.scores), finite)
    np.testing.assert_allclose(
        got.scores[finite], want.scores[finite], rtol=1e-10, atol=1e-10
    )
    assert (got.kappa0, got.v0) == (want.kappa0, want.v0)
