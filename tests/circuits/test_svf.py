"""Tests for the gm-C state-variable filter simulator."""

import math

import numpy as np
import pytest

from repro.circuits.svf import (
    SVF_METRIC_NAMES,
    GmCFilterDesign,
    GmCStateVariableFilter,
)
from repro.exceptions import SimulationError

from .loop_oracle import svf_bandpass_features, loop_bank, max_rel_diff


def _analytic(design):
    """Lossless two-integrator-loop predictions from the square-law bias.

    The NMOS reference mirror copies ``i_bias`` 1:1 (MND/MNB share
    geometry), and each PMOS tail is width-ratioed to its current with
    the diode's overdrive, so tail k carries exactly ``i_k`` at nominal.
    Half the tail flows in each input device, hence
    ``gm = sqrt(2 * beta * i_k / 2) = sqrt(kp * (W/L) * i_k)``.
    """

    def gm(w_over_l, i_tail):
        return math.sqrt(design.pmos.kp * w_over_l * i_tail)

    gm_in = gm(16 / 0.25, design.i_in)
    gm_fb = gm(16 / 0.25, design.i_int1)
    gm_int = gm(16 / 0.25, design.i_int2)
    gm_q = gm(4 / 0.25, design.i_q)
    w0 = math.sqrt(gm_fb * gm_int / (design.c_bp * design.c_lp))
    return {
        "f_center": w0 / (2.0 * math.pi),
        "q_factor": math.sqrt(gm_fb * gm_int * design.c_bp / design.c_lp) / gm_q,
        "peak_gain": gm_in / gm_q,
        "dc_gain_lp": gm_in / gm_fb,
    }


class TestNominalVsAnalytic:
    """The solved MNA response tracks the textbook biquad formulas.

    The macromodel includes the transconductors' finite output
    conductance (Rop1/Rop2), which the lossless formulas ignore — that
    damping shaves a few percent off Q and peak gain, so those get a
    wider band than the centre frequency.
    """

    @pytest.fixture(scope="class")
    def measured(self):
        return GmCStateVariableFilter.schematic().simulate_nominal()

    @pytest.fixture(scope="class")
    def predicted(self):
        return _analytic(GmCFilterDesign())

    def test_center_frequency(self, measured, predicted):
        assert measured.f_center == pytest.approx(predicted["f_center"], rel=0.02)

    def test_q_factor(self, measured, predicted):
        assert measured.q_factor == pytest.approx(predicted["q_factor"], rel=0.12)
        # Output-conductance losses only ever lower Q.
        assert measured.q_factor < predicted["q_factor"]

    def test_peak_gain(self, measured, predicted):
        assert measured.peak_gain == pytest.approx(predicted["peak_gain"], rel=0.12)
        assert measured.peak_gain < predicted["peak_gain"]

    def test_dc_lowpass_gain(self, measured, predicted):
        assert measured.dc_gain_lp == pytest.approx(predicted["dc_gain_lp"], rel=0.02)

    def test_metric_order(self, measured):
        arr = measured.as_array()
        assert arr.shape == (5,)
        assert SVF_METRIC_NAMES == (
            "f_center",
            "q_factor",
            "peak_gain",
            "dc_gain_lp",
            "power",
        )


class TestDesignKnobs:
    def test_damping_current_orders_q(self):
        # Larger i_q -> larger gm_q -> heavier damping -> lower Q.
        qs = [
            GmCStateVariableFilter.schematic(GmCFilterDesign(i_q=i))
            .simulate_nominal()
            .q_factor
            for i in (4e-6, 8e-6, 16e-6)
        ]
        assert qs[0] > qs[1] > qs[2]

    def test_capacitor_scaling_moves_center(self):
        slow = GmCStateVariableFilter.schematic(
            GmCFilterDesign(c_bp=4e-12, c_lp=4e-12)
        ).simulate_nominal()
        fast = GmCStateVariableFilter.schematic(
            GmCFilterDesign(c_bp=1e-12, c_lp=1e-12)
        ).simulate_nominal()
        nominal = GmCStateVariableFilter.schematic().simulate_nominal()
        assert slow.f_center < nominal.f_center < fast.f_center
        # f0 ~ 1/C: halving both caps doubles the centre frequency.
        assert fast.f_center == pytest.approx(2.0 * nominal.f_center, rel=0.05)

    def test_post_layout_parasitics_lower_center(self):
        early = GmCStateVariableFilter.schematic().simulate_nominal()
        late = GmCStateVariableFilter.post_layout().simulate_nominal()
        assert late.f_center < early.f_center
        assert late.power > early.power


class TestBatchEquivalence:
    @pytest.mark.parametrize("stage", ["schematic", "post_layout"])
    def test_vectorized_matches_loop(self, stage):
        sim = getattr(GmCStateVariableFilter, stage)()
        model = sim.process_model()
        rng = np.random.default_rng(99)
        samples = model.sample(sim.devices, 12, rng)
        fast = sim.simulate_batch(samples)
        assert fast.shape == (12, len(SVF_METRIC_NAMES))
        assert max_rel_diff(fast, loop_bank(sim, samples)) < 1e-10


def _biquad_bp(f0: float, q: float, freqs: np.ndarray) -> np.ndarray:
    """``|H|`` of an ideal unity-peak band-pass biquad."""
    s = 1j * freqs / f0
    return np.abs((s / q) / (s * s + s / q + 1.0))


class TestFeatureRefusals:
    """The vectorized band-pass extraction refuses what it cannot measure.

    A bank with one unmeasurable die fails whole, with
    :class:`SimulationError`, instead of returning a wrong number for it.
    """

    @pytest.fixture(scope="class")
    def sim(self):
        return GmCStateVariableFilter.schematic()

    def test_good_rows_match_the_per_row_walk(self, sim):
        grid = sim._FREQ_GRID
        mag = np.array([_biquad_bp(f0, q, grid) for f0, q in ((1e6, 3.0), (4e7, 0.9))])
        features = np.column_stack(sim._bandpass_features_batch(mag))
        walked = np.array([svf_bandpass_features(grid, row) for row in mag])
        assert np.array_equal(features, walked)
        assert features[0, 0] == pytest.approx(1e6, rel=1e-3)
        assert features[0, 1] == pytest.approx(3.0, rel=1e-2)

    def test_peak_at_grid_edge_refused(self, sim):
        grid = sim._FREQ_GRID
        mag = np.array([_biquad_bp(1e6, 3.0, grid), _biquad_bp(1e11, 3.0, grid)])
        with pytest.raises(SimulationError, match="peak at the edge"):
            sim._bandpass_features_batch(mag)

    def test_edge_outside_grid_refused(self, sim):
        """A low-Q peak near the grid start has its lower -3 dB edge
        below the grid."""
        grid = sim._FREQ_GRID
        mag = np.array([_biquad_bp(1e6, 3.0, grid), _biquad_bp(1e5, 0.05, grid)])
        with pytest.raises(SimulationError, match="-3 dB edge outside"):
            sim._bandpass_features_batch(mag)
