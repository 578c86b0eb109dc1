"""CV hyper-parameter search scored from fold sufficient statistics.

Times the full two-dimensional search (d=5, the paper's 12x12 default
grid, Q=4 folds) and asserts, at every benchmarked n, that it returns the
same winner and score surface (``1e-10``) as the per-candidate loop
oracle in ``tests/core/cv_oracles.py``.  ``scripts/bench_cv.py`` writes
the per-n time table to ``BENCH_cv.json`` for tracking across revisions.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from _bench_util import emit
from repro.core.crossval import TwoDimensionalCV
from repro.core.hypergrid import HyperParameterGrid
from repro.core.prior import PriorKnowledge
from repro.stats.multivariate_gaussian import MultivariateGaussian

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.core.cv_oracles import cv_loop_select, max_rel_deviation  # noqa: E402

D = 5
N_FOLDS = 4


def _problem(n_samples):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((D, D))
    sigma = a @ a.T + D * np.eye(D)
    truth = MultivariateGaussian(rng.standard_normal(D), sigma)
    prior = PriorKnowledge(truth.mean + 0.05, sigma * 1.1)
    return prior, truth.sample(n_samples, rng)


def _select(prior, data):
    cv = TwoDimensionalCV(prior, n_folds=N_FOLDS)
    return cv.select(data, rng=np.random.default_rng(1))


def test_cv_select_speed(benchmark):
    prior, data = _problem(32)
    result = benchmark(_select, prior, data)
    assert result.scores.shape == (12, 12)


@pytest.fixture(scope="module")
def sizes(scale):
    return (16, 32) if scale.label == "smoke" else (32, 256, 1024)


def test_cv_scorer_matches_oracle(sizes):
    """The scorer must agree with the oracle before any timing is meaningful."""
    grid = HyperParameterGrid.paper_default(D)
    for n in sizes:
        prior, data = _problem(n)
        t0 = time.perf_counter()
        got = _select(prior, data)
        t1 = time.perf_counter()
        want = cv_loop_select(prior, grid, data, N_FOLDS, rng=np.random.default_rng(1))
        t2 = time.perf_counter()

        assert (got.kappa0, got.v0) == (want.kappa0, want.v0)
        dev = max_rel_deviation(got.scores, want.scores)
        assert dev <= 1e-10
        emit(
            "CV search (n=%d, d=%d, 12x12 grid, Q=%d): select %.2f ms, "
            "loop oracle %.1f ms, max rel dev %.1e (single run; see "
            "scripts/bench_cv.py for best-of-N)"
            % (n, D, N_FOLDS, (t1 - t0) * 1e3, (t2 - t1) * 1e3, dev)
        )
