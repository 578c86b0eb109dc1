"""Tests for the R-2R ladder DAC simulator."""

import numpy as np
import pytest

from repro.circuits.dies import die_draw_bank
from repro.circuits.r2r_dac import (
    R2R_DAC_METRIC_NAMES,
    R2RDACDesign,
    R2RLadderDAC,
)
from repro.circuits.variants import scale_divergence

from .die_seed_oracles import oracle_deviation, r2r_levels_all_codes
from .loop_oracle import loop_bank, max_rel_diff

#: Mismatch-free, switchless design: the solved ladder must collapse to
#: the textbook binary divider exactly (up to float round-off).
IDEAL = R2RDACDesign(
    n_bits=8,
    sigma_r_rel=0.0,
    r_switch=0.0,
    sigma_switch_rel=0.0,
    sigma_offset=0.0,
    sigma_bias_rel=0.0,
)


class TestIdealLadder:
    def test_matches_binary_divider(self):
        dac = R2RLadderDAC.schematic(IDEAL)
        levels = dac.transfer_levels(0)
        codes = np.arange(IDEAL.n_codes)
        expected = IDEAL.vref * codes / IDEAL.n_codes
        assert np.max(np.abs(levels - expected)) < 1e-12

    def test_linearity_is_zero(self):
        result = R2RLadderDAC.schematic(IDEAL).measure_linearity(0)
        assert result.dnl_max < 1e-9
        assert result.inl_max < 1e-9


class TestMonotonicity:
    @pytest.mark.parametrize("die_seed", [0, 1, 2, 17, 101])
    def test_schematic_transfer_is_monotone(self, die_seed):
        # At the default 1.2e-3 resistor sigma an 8-bit ladder keeps
        # every DNL well above -1 LSB, so the curve must be increasing.
        dac = R2RLadderDAC.schematic(R2RDACDesign(n_bits=8))
        levels = dac.transfer_levels(die_seed)
        assert np.all(np.diff(levels) > 0.0)

    @pytest.mark.parametrize("die_seed", [0, 1, 2])
    def test_post_layout_dnl_above_missing_code(self, die_seed):
        late = R2RLadderDAC.post_layout(R2RDACDesign(n_bits=8))
        assert np.min(late.measure_linearity(die_seed).dnl) > -1.0


class TestLinearityBounds:
    """Late-stage DNL/INL land in the physically expected band.

    The worst ladder step error grows with resolution (the MSB branch
    averages fewer unit resistors relative to an LSB), so the 10-bit
    part must be visibly worse than the 8-bit part, and both stay inside
    loose absolute bounds that would catch a units or indexing bug.
    """

    def _worst(self, n_bits, seeds=range(6)):
        late = R2RLadderDAC.post_layout(R2RDACDesign(n_bits=n_bits))
        results = [late.measure_linearity(s) for s in seeds]
        return (
            float(np.mean([r.dnl_max for r in results])),
            float(np.max([r.inl_max for r in results])),
        )

    def test_8bit_bounds(self):
        dnl_mean, inl_worst = self._worst(8)
        assert 0.2 < dnl_mean < 1.5
        assert inl_worst < 1.0

    def test_10bit_bounds(self):
        dnl_mean, inl_worst = self._worst(10)
        assert 1.0 < dnl_mean < 6.0
        assert inl_worst < 4.0

    def test_resolution_scaling(self):
        dnl8, _ = self._worst(8)
        dnl10, _ = self._worst(10)
        assert dnl10 > 2.0 * dnl8


class TestBatchEquivalence:
    @pytest.mark.parametrize("stage", ["schematic", "post_layout"])
    def test_vectorized_matches_loop(self, stage):
        dac = getattr(R2RLadderDAC, stage)(R2RDACDesign(n_bits=8))
        seeds = np.arange(16)
        fast = dac.simulate_batch(seeds)
        assert fast.shape == (16, len(R2R_DAC_METRIC_NAMES))
        assert max_rel_diff(fast, loop_bank(dac, seeds)) < 1e-10

    def test_batch_row_matches_simulate(self):
        dac = R2RLadderDAC.schematic(R2RDACDesign(n_bits=8))
        row = dac.simulate_batch([7])[0]
        assert np.allclose(row, dac.simulate(7).as_array(), rtol=1e-12, atol=0.0)


def _severe(n_bits):
    """Post-layout stage at the fleet's ``severe`` divergence (1.5x)."""
    late = R2RLadderDAC.post_layout(R2RDACDesign(n_bits=n_bits))
    return R2RLadderDAC(
        late.design,
        scale_divergence(late.layout, 1.5, pivot_one=("mismatch_inflation",)),
    )


class TestOracle:
    """The superposition solve against the per-code Thomas solve."""

    @pytest.mark.parametrize("n_bits", range(4, 13))
    @pytest.mark.parametrize("stage", ["schematic", "post_layout", "severe"])
    def test_metrics_match_per_code_solve(self, n_bits, stage):
        if stage == "severe":
            dac = _severe(n_bits)
        else:
            dac = getattr(R2RLadderDAC, stage)(R2RDACDesign(n_bits=n_bits))
        assert oracle_deviation(dac, np.arange(48) + 1000 * n_bits) <= 1e-10

    @pytest.mark.parametrize("n_bits", [4, 8, 12])
    def test_levels_and_reference_current_match(self, n_bits):
        dac = _severe(n_bits)
        z = die_draw_bank(np.arange(8), dac._stride)
        conductances = dac._conductances(z)
        levels, i_ref = dac._ladder_levels(*conductances)
        ref_levels, ref_i = r2r_levels_all_codes(*conductances, dac.design.vref)
        assert np.max(np.abs(levels - ref_levels)) <= 1e-12 * dac.design.vref
        assert max_rel_diff(i_ref, ref_i) <= 1e-12
