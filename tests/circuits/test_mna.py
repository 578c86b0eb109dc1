"""The dense reference AC solve against hand-solvable circuits.

:class:`DenseAC` is the reference the stamp-plan solver and every circuit
engine are checked against (``test_mna_batched.py``, ``loop_oracle.py``);
these closed-form circuits check the reference itself, stamps included.
"""

import numpy as np
import pytest

from repro.circuits.netlist import Netlist
from repro.exceptions import SimulationError

from .loop_oracle import DenseAC


def divider_netlist(r1=1000.0, r2=3000.0):
    net = Netlist()
    net.voltage_source("Vin", "in", "0", 1.0)
    net.resistor("R1", "in", "out", r1)
    net.resistor("R2", "out", "0", r2)
    return net


class TestResistiveDivider:
    def test_dc_division(self):
        sol = DenseAC(divider_netlist()).solve([0.0])
        assert sol.voltage("out")[0] == pytest.approx(0.75)

    def test_flat_over_frequency(self):
        sol = DenseAC(divider_netlist()).solve([0.0, 1e3, 1e6])
        assert np.allclose(np.abs(sol.voltage("out")), 0.75)

    def test_source_current(self):
        # 1 V across 4 kOhm: branch current magnitude 0.25 mA.
        sol = DenseAC(divider_netlist()).solve([0.0])
        assert abs(sol.branch_current("Vin")[0]) == pytest.approx(2.5e-4)


class TestRCLowpass:
    def test_pole_frequency(self):
        r, c = 1000.0, 1e-9
        fc = 1.0 / (2 * np.pi * r * c)
        net = Netlist()
        net.voltage_source("Vin", "in", "0", 1.0)
        net.resistor("R", "in", "out", r)
        net.capacitor("C", "out", "0", c)
        sol = DenseAC(net).solve([fc])
        assert abs(sol.voltage("out")[0]) == pytest.approx(1 / np.sqrt(2), rel=1e-9)

    def test_phase_at_pole(self):
        r, c = 1000.0, 1e-9
        fc = 1.0 / (2 * np.pi * r * c)
        net = Netlist()
        net.voltage_source("Vin", "in", "0", 1.0)
        net.resistor("R", "in", "out", r)
        net.capacitor("C", "out", "0", c)
        sol = DenseAC(net).solve([fc])
        assert np.angle(sol.voltage("out")[0], deg=True) == pytest.approx(-45.0)

    def test_rolloff_20db_per_decade(self):
        r, c = 1000.0, 1e-9
        fc = 1.0 / (2 * np.pi * r * c)
        net = Netlist()
        net.voltage_source("Vin", "in", "0", 1.0)
        net.resistor("R", "in", "out", r)
        net.capacitor("C", "out", "0", c)
        sol = DenseAC(net).solve([100 * fc, 1000 * fc])
        mags = 20 * np.log10(np.abs(sol.voltage("out")))
        assert mags[1] - mags[0] == pytest.approx(-20.0, abs=0.1)


class TestRLCResonance:
    def test_series_rlc_peak_at_resonance(self):
        r, l, c = 10.0, 1e-6, 1e-9
        f0 = 1.0 / (2 * np.pi * np.sqrt(l * c))
        net = Netlist()
        net.voltage_source("Vin", "in", "0", 1.0)
        net.resistor("R", "in", "mid", r)
        net.inductor("L", "mid", "out", l)
        net.capacitor("C", "out", "0", c)
        sol = DenseAC(net).solve([f0])
        # At resonance L and C cancel: the full source current flows,
        # I = V/R, and |V_C| = I / (w C) = Q.
        q_factor = np.sqrt(l / c) / r
        assert abs(sol.voltage("out")[0]) == pytest.approx(q_factor, rel=1e-6)


class TestVCCSAmplifier:
    def test_transconductance_gain(self):
        gm, rl = 2e-3, 5000.0
        net = Netlist()
        net.voltage_source("Vin", "in", "0", 1.0)
        net.vccs("G1", "out", "0", "in", "0", gm)
        net.resistor("RL", "out", "0", rl)
        sol = DenseAC(net).solve([0.0])
        # Convention: current flows pos->neg inside the source, so a
        # positive gm pulls the output below ground: gain = -gm*RL.
        assert sol.voltage("out")[0].real == pytest.approx(-gm * rl)

    def test_transfer_helper(self):
        net = Netlist()
        net.voltage_source("Vin", "in", "0", 2.0)
        net.vccs("G1", "out", "0", "in", "0", 1e-3)
        net.resistor("RL", "out", "0", 1000.0)
        sol = DenseAC(net).solve([0.0])
        assert sol.transfer("out", "in")[0].real == pytest.approx(-1.0)


class TestInductorBranch:
    def test_dc_inductor_is_short(self):
        net = Netlist()
        net.voltage_source("Vin", "in", "0", 1.0)
        net.resistor("R", "in", "mid", 100.0)
        net.inductor("L", "mid", "out", 1e-6)
        net.resistor("RL", "out", "0", 100.0)
        sol = DenseAC(net).solve([0.0])
        # At DC the inductor is a short: a 50/50 divider.
        assert sol.voltage("out")[0].real == pytest.approx(0.5)

    def test_inductor_branch_current(self):
        net = Netlist()
        net.voltage_source("Vin", "in", "0", 1.0)
        net.inductor("L", "in", "out", 1e-3)
        net.resistor("RL", "out", "0", 1000.0)
        sol = DenseAC(net).solve([0.0])
        assert abs(sol.branch_current("L")[0]) == pytest.approx(1e-3)

    def test_rl_highpass_corner(self):
        r, l = 1000.0, 1e-3
        fc = r / (2 * np.pi * l)
        net = Netlist()
        net.voltage_source("Vin", "in", "0", 1.0)
        net.resistor("R", "in", "out", r)
        net.inductor("L", "out", "0", l)
        sol = DenseAC(net).solve([fc])
        # |V_L / V_in| = 1/sqrt(2) at the RL corner.
        assert abs(sol.voltage("out")[0]) == pytest.approx(1 / np.sqrt(2), rel=1e-9)


class TestCurrentSource:
    def test_current_into_resistor(self):
        net = Netlist()
        net.current_source("I1", "0", "a", 1e-3)
        net.resistor("R1", "a", "0", 2000.0)
        sol = DenseAC(net).solve([0.0])
        # 1 mA pushed into node a through 2 kOhm: +2 V.
        assert sol.voltage("a")[0].real == pytest.approx(2.0)


class TestErrors:
    def test_negative_frequency_rejected(self):
        with pytest.raises(SimulationError):
            DenseAC(divider_netlist()).solve([-1.0])

    def test_empty_grid_rejected(self):
        with pytest.raises(SimulationError):
            DenseAC(divider_netlist()).solve([])

    def test_unknown_node_voltage(self):
        sol = DenseAC(divider_netlist()).solve([0.0])
        with pytest.raises(SimulationError):
            sol.voltage("nowhere")

    def test_ground_voltage_is_zero(self):
        sol = DenseAC(divider_netlist()).solve([0.0, 10.0])
        assert np.all(sol.voltage("0") == 0.0)

    def test_dc_gain_helper(self):
        assert DenseAC(divider_netlist()).dc_gain("out", "in") == pytest.approx(0.75)
