"""Tests for the two-stage op-amp simulator (Sec. 5.1 workload)."""

import numpy as np
import pytest

from repro.circuits.opamp import (
    OPAMP_METRIC_NAMES,
    OpAmpDesign,
    TwoStageOpAmp,
)


@pytest.fixture(scope="module")
def early():
    return TwoStageOpAmp.schematic()


@pytest.fixture(scope="module")
def late():
    return TwoStageOpAmp.post_layout()


@pytest.fixture(scope="module")
def nominal_early(early):
    return early.simulate_nominal()


@pytest.fixture(scope="module")
def nominal_late(late):
    return late.simulate_nominal()


class TestNominalDesign:
    def test_gain_is_plausible_two_stage(self, nominal_early):
        # Two cascaded gain stages in a short-channel process: 60-90 dB.
        assert 1000.0 < nominal_early.gain < 30000.0

    def test_phase_margin_stable(self, nominal_early):
        assert 30.0 < nominal_early.phase_margin < 90.0

    def test_power_matches_budget(self, nominal_early):
        design = OpAmpDesign()
        expected = design.vdd * (design.i_tail + design.i_stage2 + design.i_bias)
        assert nominal_early.power == pytest.approx(expected, rel=0.05)

    def test_offset_zero_at_nominal_schematic(self, nominal_early):
        assert nominal_early.offset == 0.0

    def test_metrics_array_order(self, nominal_early):
        arr = nominal_early.as_array()
        assert arr.shape == (5,)
        assert arr[0] == nominal_early.gain
        assert OPAMP_METRIC_NAMES[0] == "gain"


class TestPostLayoutShift:
    def test_parasitics_reduce_gain_bandwidth_product(
        self, nominal_early, nominal_late
    ):
        # Extra load capacitance must cost speed; the -3 dB corner alone
        # can move either way (it scales as GBW / gain), so check GBW.
        gbw_early = nominal_early.gain * nominal_early.bw_3db
        gbw_late = nominal_late.gain * nominal_late.bw_3db
        assert gbw_late < gbw_early

    def test_parasitics_reduce_phase_margin(self, nominal_early, nominal_late):
        assert nominal_late.phase_margin < nominal_early.phase_margin

    def test_layout_adds_power(self, nominal_early, nominal_late):
        assert nominal_late.power > nominal_early.power

    def test_layout_adds_systematic_offset(self, nominal_late):
        assert nominal_late.offset > 0.0


class TestVariationResponse:
    def test_batch_shape(self, early, rng):
        samples = early.process_model().sample(early.devices, 10, rng)
        metrics = early.simulate_batch(samples)
        assert metrics.shape == (10, 5)
        assert np.all(np.isfinite(metrics))

    def test_deterministic_given_sample(self, early, rng):
        samples = early.process_model().sample(early.devices, 1, rng)
        a = early.simulate_batch([samples[0]])
        b = early.simulate_batch([samples[0]])
        assert np.array_equal(a, b)

    def test_metrics_actually_vary(self, early, rng):
        samples = early.process_model().sample(early.devices, 40, rng)
        metrics = early.simulate_batch(samples)
        assert np.all(metrics.std(axis=0) > 0.0)

    def test_gain_bandwidth_anticorrelated(self, early, rng):
        """Physics check: gain up means output resistance up means BW down."""
        samples = early.process_model().sample(early.devices, 150, rng)
        metrics = early.simulate_batch(samples)
        corr = np.corrcoef(metrics[:, 0], metrics[:, 1])[0, 1]
        assert corr < -0.5

    def test_stage_correlation(self, early, late, rng):
        """The same die must look similar at both stages (BMF's premise)."""
        samples = early.process_model().sample(early.devices, 100, rng)
        m_early = early.simulate_batch(samples)
        m_late = late.simulate_batch(samples)
        for j in range(5):
            corr = np.corrcoef(m_early[:, j], m_late[:, j])[0, 1]
            assert corr > 0.9, f"metric {OPAMP_METRIC_NAMES[j]} decorrelated"

    def test_offset_mean_near_systematic(self, late, rng):
        samples = late.process_model().sample(late.devices, 300, rng)
        metrics = late.simulate_batch(samples)
        assert metrics[:, 3].mean() == pytest.approx(
            late.parasitics.offset_systematic, abs=1.5e-3
        )


class TestExtractionDerate:
    def test_nominal_derate_biases_phase_margin(self):
        """The derated nominal must sit above the full-parasitic response."""
        import dataclasses

        late_full = TwoStageOpAmp.post_layout()
        derated = TwoStageOpAmp(
            late_full.design,
            dataclasses.replace(late_full.parasitics, extraction_derate=0.0),
        )
        nominal_with_derate = late_full.simulate_nominal()
        nominal_without = derated.simulate_nominal()
        assert nominal_with_derate.phase_margin > nominal_without.phase_margin
