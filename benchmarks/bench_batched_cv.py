"""CV hyper-parameter search scored from fold sufficient statistics.

Runs the body of ``scripts/bench_cv.py`` on the full two-dimensional
search (d=5, the paper's 12x12 default grid, Q=4 folds) and asserts, at
every benchmarked n, that it returns the same winner and score surface
(``ORACLE_RTOL``) as the per-candidate loop oracle in
``tests/core/cv_oracles.py``.  ``scripts/bench_cv.py`` writes the per-n
time table to ``BENCH_cv.json`` for tracking across revisions.
"""

import numpy as np
import pytest

from _bench_util import emit
from repro.core.crossval import TwoDimensionalCV
from scripts.bench_cv import ORACLE_RTOL, build_problem, time_select

D = 5
N_FOLDS = 4


def _select(prior, data):
    cv = TwoDimensionalCV(prior, n_folds=N_FOLDS)
    return cv.select(data, rng=np.random.default_rng(1))


def test_cv_select_speed(benchmark):
    prior, data = build_problem(D, 32)
    result = benchmark(_select, prior, data)
    assert result.scores.shape == (12, 12)


@pytest.fixture(scope="module")
def sizes(scale):
    return (8, 16, 32) if scale.label == "smoke" else (8, 32, 256, 1024)


def test_cv_scorer_matches_oracle(sizes):
    """The scorer must agree with the oracle before any timing is meaningful."""
    rows = time_select(sizes, dim=D, n_folds=N_FOLDS, repeats=1)
    for n, row in rows.items():
        emit(f"CV search (n={n}, d={D}, 12x12 grid, Q={N_FOLDS}, single run): {row}")
        assert row["winner_matches"]
        assert row["max_oracle_dev"] <= ORACLE_RTOL
