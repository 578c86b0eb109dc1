"""Property-based tests of circuit-substrate invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.circuits.mna import StampPlan
from repro.circuits.netlist import Netlist
from repro.circuits.testbench import SpectralAnalyzer, sine_record

SETTINGS = settings(max_examples=30, deadline=None)


def out_voltage(net, freq):
    """Complex ``V(out)`` of one netlist at one frequency (a one-sample solve)."""
    return StampPlan(net).solve_batched(np.empty((1, 0)), [freq]).voltage("out")[0, 0]


class TestDividerProperties:
    @SETTINGS
    @given(
        st.floats(min_value=1.0, max_value=1e6),
        st.floats(min_value=1.0, max_value=1e6),
    )
    def test_division_ratio(self, r1, r2):
        net = Netlist()
        net.voltage_source("V", "in", "0", 1.0)
        net.resistor("R1", "in", "out", r1)
        net.resistor("R2", "out", "0", r2)
        np.testing.assert_allclose(abs(out_voltage(net, 0.0)), r2 / (r1 + r2), rtol=1e-9)

    @SETTINGS
    @given(
        st.floats(min_value=10.0, max_value=1e5),
        st.floats(min_value=1e-12, max_value=1e-8),
        st.floats(min_value=1.0, max_value=1e9),
    )
    def test_rc_magnitude_formula(self, r, c, f):
        net = Netlist()
        net.voltage_source("V", "in", "0", 1.0)
        net.resistor("R", "in", "out", r)
        net.capacitor("C", "out", "0", c)
        expected = 1.0 / np.sqrt(1.0 + (2 * np.pi * f * r * c) ** 2)
        np.testing.assert_allclose(abs(out_voltage(net, f)), expected, rtol=1e-9)

    @SETTINGS
    @given(st.floats(min_value=1e-5, max_value=1e-1))
    def test_vccs_linearity(self, gm):
        """Output scales linearly with gm for a fixed load."""
        def gain(g):
            net = Netlist()
            net.voltage_source("V", "in", "0", 1.0)
            net.vccs("G", "out", "0", "in", "0", g)
            net.resistor("RL", "out", "0", 1000.0)
            return out_voltage(net, 0.0).real

        np.testing.assert_allclose(gain(gm), 2.0 * gain(gm / 2.0), rtol=1e-9)


class TestSpectralProperties:
    @SETTINGS
    @given(
        st.sampled_from([512, 1024, 2048]),
        st.sampled_from([7, 13, 67, 127]),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_sinad_never_exceeds_snr(self, n, k, seed):
        rng = np.random.default_rng(seed)
        x = sine_record(n, k, 1.0) + 0.01 * rng.standard_normal(n)
        x += 0.003 * sine_record(n, 3 * k, 1.0)
        m = SpectralAnalyzer().analyze(x, k)
        assert m.sinad <= m.snr + 1e-9

    @SETTINGS
    @given(
        st.floats(min_value=1e-4, max_value=0.3),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_snr_monotone_in_noise(self, sigma, seed):
        rng = np.random.default_rng(seed)
        n, k = 2048, 67
        base = sine_record(n, k, 1.0)
        noisy1 = base + sigma * rng.standard_normal(n)
        noisy2 = base + 4.0 * sigma * rng.standard_normal(n)
        a = SpectralAnalyzer().analyze(noisy1, k)
        b = SpectralAnalyzer().analyze(noisy2, k)
        assert b.snr < a.snr

    @SETTINGS
    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_metrics_amplitude_invariant(self, scale, seed):
        """dB ratios must not depend on overall record scaling."""
        rng = np.random.default_rng(seed)
        n, k = 1024, 13
        x = sine_record(n, k, 1.0) + 0.01 * rng.standard_normal(n)
        a = SpectralAnalyzer().analyze(x, k)
        b = SpectralAnalyzer().analyze(scale * x, k)
        np.testing.assert_allclose(a.as_tuple(), b.as_tuple(), rtol=1e-9)
