"""Tests for the trapezoidal transient simulator against analytic solutions."""

import numpy as np
import pytest

from repro.circuits.netlist import Netlist
from repro.circuits.transient import TransientAnalysis, sine, step
from repro.exceptions import SimulationError


def rc_netlist(r=1000.0, c=1e-9):
    net = Netlist()
    net.voltage_source("Vin", "in", "0", 1.0)
    net.resistor("R", "in", "out", r)
    net.capacitor("C", "out", "0", c)
    return net


class TestRCStepResponse:
    def test_exponential_charging(self):
        r, c = 1000.0, 1e-9
        tau = r * c
        sim = TransientAnalysis(rc_netlist(r, c))
        result = sim.run(t_stop=8 * tau, dt=tau / 200)
        expected = 1.0 - np.exp(-result.times / tau)
        assert np.allclose(result.voltage("out"), expected, atol=2e-3)

    def test_settling_time_matches_theory(self):
        """1% settling of a first-order system: t = tau * ln(100)."""
        r, c = 1000.0, 1e-9
        tau = r * c
        sim = TransientAnalysis(rc_netlist(r, c))
        result = sim.run(t_stop=10 * tau, dt=tau / 500)
        t_settle = result.settling_time("out", tolerance=0.01)
        assert t_settle == pytest.approx(tau * np.log(100.0), rel=0.03)

    def test_no_overshoot_first_order(self):
        sim = TransientAnalysis(rc_netlist())
        result = sim.run(t_stop=8e-6, dt=1e-9)
        assert result.overshoot("out") == pytest.approx(0.0, abs=1e-6)

    def test_unsettled_waveform_raises(self):
        r, c = 1000.0, 1e-9
        sim = TransientAnalysis(rc_netlist(r, c))
        # Stop after 0.5 tau: far from settled.
        result = sim.run(t_stop=0.5 * r * c, dt=r * c / 500)
        with pytest.raises(SimulationError):
            result.settling_time("out", tolerance=0.01)


class TestRLCStep:
    @staticmethod
    def _series_rlc(r, l, c):
        net = Netlist()
        net.voltage_source("Vin", "in", "0", 1.0)
        net.resistor("R", "in", "a", r)
        net.inductor("L", "a", "out", l)
        net.capacitor("C", "out", "0", c)
        return net

    def test_underdamped_ringing_frequency(self):
        r, l, c = 20.0, 1e-6, 1e-9
        wd = np.sqrt(1.0 / (l * c) - (r / (2 * l)) ** 2)
        sim = TransientAnalysis(self._series_rlc(r, l, c))
        period = 2 * np.pi / wd
        result = sim.run(t_stop=10 * period, dt=period / 400)
        v = result.voltage("out")
        # Measure the ringing period from successive maxima above final.
        above = v - v[-1]
        crossings = np.nonzero(np.diff(np.sign(above)) != 0)[0]
        measured_period = 2.0 * float(
            np.mean(np.diff(result.times[crossings]))
        )
        assert measured_period == pytest.approx(period, rel=0.05)

    def test_overshoot_matches_damping(self):
        """Peak overshoot of a 2nd-order step: exp(-pi zeta / sqrt(1-zeta^2))."""
        r, l, c = 20.0, 1e-6, 1e-9
        zeta = (r / 2.0) * np.sqrt(c / l)
        expected = np.exp(-np.pi * zeta / np.sqrt(1.0 - zeta**2))
        sim = TransientAnalysis(self._series_rlc(r, l, c))
        result = sim.run(t_stop=3e-6, dt=1e-10)
        assert result.overshoot("out") == pytest.approx(expected, rel=0.05)

    def test_critically_damped_no_overshoot(self):
        l, c = 1e-6, 1e-9
        r = 2.0 * np.sqrt(l / c)  # zeta = 1
        sim = TransientAnalysis(self._series_rlc(r, l, c))
        result = sim.run(t_stop=5e-6, dt=1e-9)
        assert result.overshoot("out") < 0.01


class TestSineDrive:
    def test_steady_state_amplitude_matches_ac(self):
        """After transients decay, the sine amplitude must equal |H(f)|."""
        from repro.circuits.mna import StampPlan

        r, c = 1000.0, 1e-9
        f = 1.0 / (2 * np.pi * r * c)  # drive exactly at the pole
        net = rc_netlist(r, c)
        ac = StampPlan(net).solve_batched(np.empty((1, 0)), [f])
        expected = abs(ac.voltage("out")[0, 0])
        sim = TransientAnalysis(net)
        result = sim.run(t_stop=40 / f, dt=1 / (f * 400), waveform=sine(f))
        tail = result.voltage("out")[-2000:]
        measured = (tail.max() - tail.min()) / 2.0
        assert measured == pytest.approx(expected, rel=0.02)

    def test_sine_rejects_bad_frequency(self):
        with pytest.raises(SimulationError):
            sine(0.0)


class TestValidation:
    def test_rejects_nonpositive_times(self):
        sim = TransientAnalysis(rc_netlist())
        with pytest.raises(SimulationError):
            sim.run(t_stop=0.0, dt=1e-9)
        with pytest.raises(SimulationError):
            sim.run(t_stop=1e-6, dt=-1e-9)

    def test_rejects_runaway_step_count(self):
        sim = TransientAnalysis(rc_netlist())
        with pytest.raises(SimulationError):
            sim.run(t_stop=1.0, dt=1e-9)

    def test_rejects_bad_initial_state(self):
        sim = TransientAnalysis(rc_netlist())
        with pytest.raises(SimulationError):
            sim.run(t_stop=1e-6, dt=1e-9, x0=np.zeros(99))

    def test_initial_condition_respected(self):
        """Pre-charged capacitor discharges toward the source value."""
        net = Netlist()
        net.voltage_source("Vin", "in", "0", 0.0)
        net.resistor("R", "in", "out", 1000.0)
        net.capacitor("C", "out", "0", 1e-9)
        sim = TransientAnalysis(net)
        size = net.size
        x0 = np.zeros(size)
        x0[net.node_index("out")] = 2.0
        result = sim.run(t_stop=8e-6, dt=1e-9, x0=x0, waveform=step())
        v = result.voltage("out")
        assert v[0] == pytest.approx(2.0)
        assert abs(v[-1]) < 0.01

    def test_unknown_node_raises(self):
        sim = TransientAnalysis(rc_netlist())
        result = sim.run(t_stop=1e-6, dt=1e-9)
        with pytest.raises(SimulationError):
            result.voltage("nowhere")
