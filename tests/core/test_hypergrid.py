"""Tests for the hyper-parameter search grid."""

import numpy as np
import pytest

from repro.core.hypergrid import HyperParameterGrid
from repro.exceptions import HyperParameterError


class TestPaperDefault:
    def test_respects_v0_constraint(self):
        grid = HyperParameterGrid.paper_default(5)
        assert np.all(grid.v0_values > 5.0)

    def test_kappa_positive(self):
        grid = HyperParameterGrid.paper_default(5)
        assert np.all(grid.kappa0_values > 0.0)

    def test_covers_paper_upper_range(self):
        grid = HyperParameterGrid.paper_default(5, upper=1000.0)
        assert grid.kappa0_values.max() == pytest.approx(1000.0)
        assert grid.v0_values.max() == pytest.approx(1005.0)

    def test_size(self):
        grid = HyperParameterGrid.paper_default(3, n_kappa=4, n_v=6)
        assert grid.size == 24

    def test_pairs_enumeration(self):
        grid = HyperParameterGrid.paper_default(2, n_kappa=3, n_v=3)
        pairs = list(grid.pairs())
        assert len(pairs) == 9
        assert all(k > 0 and v > 2 for k, v in pairs)

    def test_rejects_bad_dim(self):
        with pytest.raises(HyperParameterError):
            HyperParameterGrid.paper_default(0)

    def test_equal_arguments_share_one_grid(self):
        grid = HyperParameterGrid.paper_default(5)
        assert HyperParameterGrid.paper_default(5, 12, 12, 1000.0) is grid
        assert HyperParameterGrid.paper_default(5, n_kappa=6) is not grid

    @pytest.mark.parametrize("axis", ["kappa0_values", "v0_values"])
    def test_axes_refuse_in_place_writes(self, axis):
        values = getattr(HyperParameterGrid.paper_default(5), axis)
        with pytest.raises(ValueError):
            values[0] = 1e6
        with pytest.raises(ValueError):
            values *= 2.0


class TestLinear:
    def test_within_range(self):
        grid = HyperParameterGrid.linear(5, upper=100.0)
        assert grid.kappa0_values.min() == pytest.approx(1.0)
        assert grid.kappa0_values.max() == pytest.approx(100.0)


class TestValidation:
    def test_rejects_empty_axis(self):
        with pytest.raises(HyperParameterError):
            HyperParameterGrid(np.array([]), np.array([10.0]), dim=2)

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(HyperParameterError):
            HyperParameterGrid(np.array([0.0, 1.0]), np.array([10.0]), dim=2)

    def test_rejects_v0_below_dim(self):
        with pytest.raises(HyperParameterError):
            HyperParameterGrid(np.array([1.0]), np.array([2.0]), dim=5)

    def test_deduplicates(self):
        grid = HyperParameterGrid(np.array([1.0, 1.0, 2.0]), np.array([10.0]), dim=2)
        assert grid.kappa0_values.shape == (2,)


class TestRefinement:
    def test_refine_brackets_winner(self):
        grid = HyperParameterGrid.paper_default(5)
        fine = grid.refine_around(10.0, 50.0, factor=2.0, n_points=5)
        assert fine.kappa0_values.min() == pytest.approx(5.0)
        assert fine.kappa0_values.max() == pytest.approx(20.0)
        assert np.all(fine.v0_values > 5.0)

    def test_refine_rejects_bad_factor(self):
        grid = HyperParameterGrid.paper_default(5)
        with pytest.raises(HyperParameterError):
            grid.refine_around(1.0, 10.0, factor=1.0)
