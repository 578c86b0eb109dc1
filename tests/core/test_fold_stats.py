"""The stacked fold statistics of the CV search against the per-fold loop.

:func:`repro.core.crossval._fold_stats` gathers every train and held-out
block at once; :func:`tests.core.cv_oracles.loop_fold_stats` builds them
one fold at a time.  On equal folds the two must agree bit for bit (the
padding path is then a no-op), on unequal folds to rounding.
"""

import numpy as np
import pytest

from repro.core.crossval import _fold_stats, make_folds

from .cv_oracles import loop_fold_stats

FIELDS = ("n_train", "xbar", "scatter", "n_test", "xbar_test", "root")


def _data(n, d, seed):
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.1, 100.0, d)
    return rng.standard_normal((n, d)) * scale + 10.0 * rng.standard_normal(d)


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128, 256])
def test_equal_folds_match_the_loop_bitwise(n, d):
    data = _data(n, d, seed=n * 10 + d)
    for n_folds in (2, 4):
        folds = make_folds(n, n_folds, np.random.default_rng(d))
        got = _fold_stats(data, folds)
        want = loop_fold_stats(data, folds)
        for field in FIELDS:
            np.testing.assert_array_equal(
                getattr(got, field), getattr(want, field), err_msg=field
            )


@pytest.mark.parametrize("d", [1, 3, 5])
@pytest.mark.parametrize("n", [5, 6, 7, 10, 33, 258])
def test_unequal_folds_match_the_loop(n, d):
    data = _data(n, d, seed=n * 10 + d)
    folds = make_folds(n, 4, np.random.default_rng(d))
    assert len({fold.size for fold in folds}) == 2
    got = _fold_stats(data, folds)
    want = loop_fold_stats(data, folds)
    for field in FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape, field
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-10 * np.abs(b).max(), err_msg=field)


def test_leave_one_out_folds_match_the_loop_bitwise():
    data = _data(3, 5, seed=0)
    folds = make_folds(3, 3, np.random.default_rng(0))
    got, want = _fold_stats(data, folds), loop_fold_stats(data, folds)
    for field in FIELDS:
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))


@pytest.mark.parametrize("n, n_folds", [(8, 4), (9, 4), (12, 3), (13, 5), (4, 4), (1024, 4)])
def test_make_folds_is_the_array_split_partition(n, n_folds):
    folds = make_folds(n, n_folds, np.random.default_rng(7))
    perm = np.random.default_rng(7).permutation(n)
    want = [np.sort(part) for part in np.array_split(perm, n_folds)]
    assert len(folds) == len(want)
    for got, expected in zip(folds, want):
        np.testing.assert_array_equal(got, expected)
