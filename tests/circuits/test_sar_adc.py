"""Tests for the SAR ADC simulator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.batch import code_levels
from repro.circuits.sar_adc import (
    SAR_ADC_METRIC_NAMES,
    SarADC,
    SarADCDesign,
    _read_staircase,
)
from repro.exceptions import SimulationError

from .die_seed_oracles import oracle_deviation, sar_trial_codes
from .loop_oracle import loop_bank, max_rel_diff

#: Mismatch- and noise-free converter: successive approximation against
#: an ideal binary CDAC must quantise exactly like floor(vin / LSB).
IDEAL = SarADCDesign(
    n_bits=8,
    sigma_cap_unit_rel=0.0,
    sigma_comp_offset=0.0,
    noise_rms=0.0,
)


class TestIdealTransitions:
    def test_codes_match_ideal_quantiser(self):
        adc = SarADC.schematic(IDEAL)
        vin = np.linspace(0.0, IDEAL.vref * 0.999, 997)
        codes = adc.convert_record(3, vin)
        expected = np.floor(vin / IDEAL.vref * IDEAL.n_codes).astype(int)
        assert np.array_equal(codes, np.clip(expected, 0, IDEAL.n_codes - 1))

    def test_transition_voltages_are_exact(self):
        # Probe epsilon either side of each ideal code edge k*vref/2^b.
        adc = SarADC.schematic(IDEAL)
        lsb = IDEAL.vref / IDEAL.n_codes
        edges = np.arange(1, IDEAL.n_codes) * lsb
        eps = 1e-9
        below = adc.convert_record(0, edges - eps)
        above = adc.convert_record(0, edges + eps)
        assert np.array_equal(below, np.arange(0, IDEAL.n_codes - 1))
        assert np.array_equal(above, np.arange(1, IDEAL.n_codes))

    def test_full_scale_clips(self):
        adc = SarADC.schematic(IDEAL)
        codes = adc.convert_record(0, np.array([-0.1, IDEAL.vref + 0.1]))
        assert codes[0] == 0
        assert codes[1] == IDEAL.n_codes - 1


class TestMismatchedDies:
    @pytest.mark.parametrize("die_seed", [0, 1, 5, 42])
    def test_ramp_codes_nondecreasing(self, die_seed):
        # Default unit-cap sigma keeps an 8-bit CDAC monotone.
        adc = SarADC.schematic(SarADCDesign(n_bits=8))
        vin = np.linspace(0.0, 1.2, 4096)
        codes = adc.convert_record(die_seed, vin)
        assert np.all(np.diff(codes) >= 0)

    def test_comparator_offset_shifts_transitions(self):
        base = SarADC.schematic(IDEAL)
        shifted_design = SarADCDesign(
            n_bits=8, sigma_cap_unit_rel=0.0, sigma_comp_offset=0.05, noise_rms=0.0
        )
        shifted = SarADC.schematic(shifted_design)
        vin = np.linspace(0.0, IDEAL.vref * 0.999, 499)
        assert not np.array_equal(
            base.convert_record(1, vin), shifted.convert_record(1, vin)
        )


class TestBatchEquivalence:
    @pytest.mark.parametrize("stage", ["schematic", "post_layout"])
    def test_vectorized_matches_loop(self, stage):
        adc = getattr(SarADC, stage)(SarADCDesign(n_bits=8, n_samples=256, n_cycles=17))
        seeds = np.arange(12)
        fast = adc.simulate_batch(seeds)
        assert fast.shape == (12, len(SAR_ADC_METRIC_NAMES))
        assert max_rel_diff(fast, loop_bank(adc, seeds)) < 1e-10

    def test_batch_row_matches_simulate(self):
        adc = SarADC.schematic(SarADCDesign(n_bits=8, n_samples=256, n_cycles=17))
        row = adc.simulate_batch([11])[0]
        assert np.allclose(row, adc.simulate(11).as_array(), rtol=1e-12, atol=0.0)


def _random_weights(rng, n_dies, n_bits, sigma):
    """Binary weights with heavy mismatch: non-monotone DACs, and zeroed
    bits (missing codes) on some dies."""
    weights = np.exp2(np.arange(n_bits)) * (
        1.0 + sigma * rng.standard_normal((n_dies, n_bits))
    )
    weights[rng.random((n_dies, n_bits)) < 0.1] = 0.0
    weights = np.maximum(weights, 0.0)
    return weights / (np.exp2(n_bits) * rng.uniform(0.9, 1.1, (n_dies, 1)))


class TestStaircaseOracle:
    """The staircase lookup against the bit-by-bit trial loop."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_bits=st.integers(min_value=4, max_value=14),
        sigma=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_codes_match_trial_loop(self, n_bits, sigma, seed):
        rng = np.random.default_rng(seed)
        adc = SarADC.schematic(SarADCDesign(n_bits=n_bits))
        vref = adc.design.vref
        weights = _random_weights(rng, 3, n_bits, sigma)
        # Random inputs, plus every code's exact trip level and its float
        # neighbours, where an off-by-one comparison would show.
        trips = code_levels(weights) * vref
        vcmp = np.hstack(
            [
                rng.uniform(-0.1 * vref, 1.1 * vref, (3, 200)),
                trips,
                np.nextafter(trips, -np.inf),
                np.nextafter(trips, np.inf),
                np.full((3, 2), [-np.inf, np.inf]),
            ]
        )
        codes = adc._convert(weights, vcmp)
        assert np.array_equal(codes, sar_trial_codes(weights, vcmp, vref))

    @pytest.mark.parametrize("n_bits", [4, 8, 10, 12, 14])
    @pytest.mark.parametrize("stage", ["schematic", "post_layout"])
    def test_metrics_bit_identical_to_trial_loop(self, n_bits, stage):
        adc = getattr(SarADC, stage)(
            SarADCDesign(n_bits=n_bits, n_samples=512, n_cycles=37)
        )
        assert oracle_deviation(adc, np.arange(40) + n_bits) == 0.0

    def test_negative_weight_raises(self):
        adc = SarADC.schematic(SarADCDesign(n_bits=6))
        weights = np.full((2, 6), 0.01)
        weights[1, 2] = -1e-3
        with pytest.raises(SimulationError, match="negative bit weight"):
            adc._convert(weights, np.zeros((2, 4)))

    def test_negative_weight_die_raises_in_batch(self):
        # Unit-cap sigma of 3 drives some die's LSB capacitor negative.
        adc = SarADC.schematic(
            SarADCDesign(n_bits=6, sigma_cap_unit_rel=3.0, n_samples=64, n_cycles=7)
        )
        with pytest.raises(SimulationError, match="negative bit weight"):
            adc.simulate_batch(np.arange(16))

    @pytest.mark.parametrize("guess", ["exact", "near", "random"])
    def test_read_staircase_matches_searchsorted(self, guess):
        """Stepping (near guesses) and bisection (far ones) read the same
        codes, across a long flat run (a missing-code span)."""
        rng = np.random.default_rng(7)
        n_codes = 256
        theta = np.full((4, n_codes + 1), np.nan)
        theta[:, 1:n_codes] = np.sort(rng.uniform(0.0, 1.0, (4, n_codes - 1)), axis=1)
        theta[:, 1:40] = theta[:, 1:2]
        v = rng.uniform(-0.1, 1.1, (4, 500))
        expected = np.array(
            [np.searchsorted(theta[d, 1:n_codes], v[d], side="right") for d in range(4)]
        )
        start = {
            "exact": expected,
            "near": np.clip(expected + rng.integers(-2, 3, v.shape), 0, n_codes - 1),
            "random": rng.integers(0, n_codes, v.shape),
        }[guess]
        assert np.array_equal(_read_staircase(theta, v, start), expected)
