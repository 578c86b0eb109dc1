"""Failure-injection tests for the op-amp measurement extraction.

The shipped extraction helpers (`_gain_and_bandwidth_batch`,
`_phase_margin_batch`, `_log_crossing_batch`) must fail loudly — with
:class:`SimulationError`, never a wrong number — when a response does not
cross the thresholds inside the analysis grid. These tests drive them with
synthetic transfer functions, each a one-row batch.
"""

import numpy as np
import pytest

from repro.circuits.opamp import TwoStageOpAmp
from repro.circuits.process import GlobalVariation, ProcessSample
from repro.exceptions import SimulationError


@pytest.fixture
def sim():
    return TwoStageOpAmp.schematic()


def _single_pole(gain: float, pole_hz: float, freqs: np.ndarray) -> np.ndarray:
    return gain / (1.0 + 1j * freqs / pole_hz)


def _gain_and_bandwidth(sim, h):
    gain, bw = sim._gain_and_bandwidth_batch(np.abs(h)[None, :])
    return float(gain[0]), float(bw[0])


def _phase_margin(sim, h):
    return float(sim._phase_margin_batch(h[None, :], np.abs(h)[None, :])[0])


def _log_crossing(sim, f_lo, f_hi, m_lo, m_hi, target):
    args = (np.array([v]) for v in (f_lo, f_hi, m_lo, m_hi, target))
    return float(sim._log_crossing_batch(*args)[0])


class TestGainBandwidthExtraction:
    def test_single_pole_recovered(self, sim):
        freqs = sim._FREQ_GRID
        h = _single_pole(1000.0, 1e5, freqs)
        gain, bw = _gain_and_bandwidth(sim, h)
        assert gain == pytest.approx(1000.0, rel=1e-6)
        assert bw == pytest.approx(1e5, rel=0.02)

    def test_rejects_flat_response(self, sim):
        """No -3 dB point inside the grid -> explicit failure."""
        h = np.full_like(sim._FREQ_GRID, 100.0, dtype=complex)
        with pytest.raises(SimulationError):
            _gain_and_bandwidth(sim, h)

    def test_rejects_nonpositive_gain(self, sim):
        h = np.zeros_like(sim._FREQ_GRID, dtype=complex)
        h += 1e-30
        with pytest.raises(SimulationError):
            _gain_and_bandwidth(sim, h)

    def test_rejects_pole_below_grid(self, sim):
        """Dominant pole below the grid start: mag[0] is NOT the DC gain.

        Without the flatness guard this silently reports a wrong gain and
        bandwidth; with it the extraction refuses.
        """
        freqs = sim._FREQ_GRID
        h = _single_pole(1000.0, 1e-3, freqs)
        with pytest.raises(SimulationError):
            _gain_and_bandwidth(sim, h)


class TestPhaseMarginExtraction:
    def test_single_pole_margin_near_90(self, sim):
        freqs = sim._FREQ_GRID
        h = _single_pole(1000.0, 1e5, freqs)
        pm = _phase_margin(sim, h)
        assert pm == pytest.approx(90.0, abs=2.0)

    def test_two_pole_margin(self, sim):
        """Second pole at the single-pole GBW: PM between 45 and 60 deg.

        The second pole also attenuates, so the true unity crossing sits
        below GBW and the margin lands above the naive 45-degree estimate
        (the exact value solves |H| = 1; ~52 degrees here).
        """
        freqs = sim._FREQ_GRID
        gain, p1 = 1000.0, 1e4
        f_u = gain * p1
        h = gain / ((1.0 + 1j * freqs / p1) * (1.0 + 1j * freqs / f_u))
        pm = _phase_margin(sim, h)
        assert 45.0 < pm < 60.0

    def test_rejects_gain_below_unity(self, sim):
        h = np.full_like(sim._FREQ_GRID, 0.5, dtype=complex)
        with pytest.raises(SimulationError):
            _phase_margin(sim, h)

    def test_rejects_no_unity_crossing(self, sim):
        h = np.full_like(sim._FREQ_GRID, 10.0, dtype=complex)
        with pytest.raises(SimulationError):
            _phase_margin(sim, h)


class TestLogCrossing:
    def test_interpolates_geometrically(self, sim):
        # |H| falls from 2 to 0.5 between 1 kHz and 4 kHz; crossing of 1.0
        # in log-log coordinates sits at 2 kHz.
        f = _log_crossing(sim, 1e3, 4e3, 2.0, 0.5, 1.0)
        assert f == pytest.approx(2e3, rel=1e-9)

    def test_degenerate_segment_returns_left_edge(self, sim):
        assert _log_crossing(sim, 1e3, 4e3, 1.0, 1.0, 1.0) == pytest.approx(1e3)


class TestBiasFailure:
    def test_global_shift_cancels_in_mirrors(self, sim):
        """A purely global Vth shift moves diode and mirror together: the
        bias currents survive (the mirror's self-compensation)."""
        sample = ProcessSample(
            GlobalVariation(0.3, 0.3, 0.0, 0.0),
            local={d.name: (0.0, 0.0) for d in sim.devices},
        )
        metrics = sim.simulate_batch([sample])
        assert metrics[0, 2] > 0.0  # power

    def test_differential_threshold_shift_raises(self, sim):
        """A local mismatch exceeding the mirror overdrive cuts M5 off —
        the simulator must fail loudly, as SPICE would report a collapsed
        operating point."""
        local = {d.name: (0.0, 0.0) for d in sim.devices}
        local["M5"] = (0.3, 0.0)  # +300 mV local Vth on the tail mirror
        sample = ProcessSample(GlobalVariation(0.0, 0.0, 0.0, 0.0), local=local)
        with pytest.raises(SimulationError, match="M5"):
            sim.simulate_batch([sample])
