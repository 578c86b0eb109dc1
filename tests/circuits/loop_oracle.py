"""The per-die reference of every Monte-Carlo circuit.

``simulate_batch`` is the one engine of ``repro.circuits``, and every die
runs through it, nominal dies included.  This module is its reference:

* :class:`DenseAC` — a dense AC solve of one netlist: the full
  ``(G + j*omega*C) x = b`` system (no node elimination, no closed form)
  factorised per frequency, with name-based access to the solution;
* the per-die twin of each stamp-plan circuit (op-amp, OTA, gm-C filter):
  the die's macromodel from the circuit's scalar device physics
  (``_varied_devices``, ``_bias_currents``, ``_macromodel``), solved by
  :class:`DenseAC`, with scalar metric math;
* the flash ADC's scalar conversion (``np.sort`` + ``searchsorted`` + a
  one-record FFT) of one die and of the nominal die.

The R-2R DAC and SAR ADC have no twin here: their per-die ``simulate``
runs the shipped kernel on one row, and their independent references are
the brute-force oracles of ``die_seed_oracles.py``.

:func:`loop_bank` builds a bank die by die; the equivalence tests and
``scripts/bench_mc.py`` compare ``simulate_batch`` against it with
:func:`max_rel_diff`.  :func:`use_oracle_nominals` routes every nominal die
of the dataset builders through the twins, which reproduces byte for byte
the nominal vectors the circuits produced while the twins were their
per-die engine.
"""

from __future__ import annotations

import math
from typing import Hashable, Tuple

import numpy as np

from repro.circuits.adc import ADCMetrics, FlashADC
from repro.circuits.batch import StampPlanSimulator
from repro.circuits.components import GROUND
from repro.circuits.mna import StampPlan
from repro.circuits.netlist import Netlist
from repro.circuits.opamp import TwoStageOpAmp
from repro.circuits.ota import FoldedCascodeOTA
from repro.circuits.svf import GmCStateVariableFilter
from repro.exceptions import NetlistError, SimulationError, SingularMatrixError
from repro.linalg.batched import solve_batched


# ---------------------------------------------------------------------------
# dense AC solve of one netlist
# ---------------------------------------------------------------------------
class DenseACSolution:
    """Node voltages and branch currents over a frequency grid."""

    def __init__(self, freqs: np.ndarray, solution: np.ndarray, netlist: Netlist) -> None:
        self.freqs = freqs
        self._solution = solution
        self._netlist = netlist

    def voltage(self, node: Hashable) -> np.ndarray:
        """Complex voltage of ``node`` at every frequency (0 for ground)."""
        if node == GROUND:
            return np.zeros_like(self.freqs, dtype=complex)
        try:
            return self._solution[:, self._netlist.node_index(node)]
        except NetlistError as exc:
            raise SimulationError(f"unknown node {node!r}") from exc

    def branch_current(self, name: str) -> np.ndarray:
        """Complex branch current of a voltage source or inductor."""
        return self._solution[:, self._netlist.branch_index(name)]

    def transfer(self, out_node: Hashable, in_node: Hashable) -> np.ndarray:
        """Voltage transfer function ``V(out) / V(in)`` over frequency."""
        vin = self.voltage(in_node)
        if np.any(np.abs(vin) == 0.0):
            raise SimulationError(f"input node {in_node!r} has zero voltage")
        return self.voltage(out_node) / vin


class DenseAC:
    """Dense small-signal AC analysis of one netlist.

    ``G``, ``C`` and ``b`` are the stamp plan's matrices of a one-sample
    batch; the solve is a pivoted LU of the full system at every
    frequency.
    """

    def __init__(self, netlist: Netlist) -> None:
        g, c, b = StampPlan(netlist).assemble_batched(np.empty((1, 0)))
        self.netlist = netlist
        self.G, self.C, self.b = g[0], c[0], b

    def solve(self, freqs) -> DenseACSolution:
        f = np.atleast_1d(np.asarray(freqs, dtype=float))
        if f.ndim != 1 or f.size == 0:
            raise SimulationError("frequency grid must be a non-empty 1-D array")
        if np.any(f < 0.0):
            raise SimulationError("frequencies must be non-negative")
        omega = 2.0 * np.pi * f
        systems = self.G[None, :, :] + 1j * omega[:, None, None] * self.C[None, :, :]
        rhs = np.broadcast_to(self.b, (f.size, self.b.size))
        try:
            solution = solve_batched(systems, rhs)
        except SingularMatrixError as exc:
            raise SimulationError("singular MNA system; check for floating nodes") from exc
        if not np.all(np.isfinite(solution)):
            raise SimulationError("non-finite AC solution")
        return DenseACSolution(f, solution, self.netlist)

    def dc_gain(self, out_node: Hashable, in_node: Hashable) -> float:
        """Zero-frequency transfer magnitude (one solve at f=0)."""
        return float(np.abs(self.solve([0.0]).transfer(out_node, in_node))[0])


# ---------------------------------------------------------------------------
# scalar metric math
# ---------------------------------------------------------------------------
def _log_crossing(f_lo: float, f_hi: float, m_lo: float, m_hi: float, target: float) -> float:
    """Log-log interpolation of the frequency where ``|H|`` hits target."""
    l_lo, l_hi = math.log10(f_lo), math.log10(f_hi)
    g_lo, g_hi = math.log10(m_lo), math.log10(m_hi)
    if g_hi == g_lo:
        return f_lo
    frac = (math.log10(target) - g_lo) / (g_hi - g_lo)
    return 10.0 ** (l_lo + frac * (l_hi - l_lo))


def _opamp_gain_and_bandwidth(grid: np.ndarray, h: np.ndarray) -> Tuple[float, float]:
    mag = np.abs(h)
    gain = float(mag[0])
    if gain <= 0.0:
        raise SimulationError("non-positive DC gain")
    if abs(float(mag[1]) / gain - 1.0) > 0.05:
        raise SimulationError(
            "response not flat at the low end of the analysis grid; DC gain not captured"
        )
    target = gain / math.sqrt(2.0)
    below = np.nonzero(mag < target)[0]
    if below.size == 0:
        raise SimulationError("-3 dB point beyond analysis grid")
    j = int(below[0])
    if j == 0:
        raise SimulationError("-3 dB point below analysis grid")
    return gain, _log_crossing(grid[j - 1], grid[j], mag[j - 1], mag[j], target)


def _opamp_phase_margin(grid: np.ndarray, h: np.ndarray) -> float:
    mag = np.abs(h)
    below_unity = np.nonzero(mag < 1.0)[0]
    if below_unity.size == 0:
        raise SimulationError("unity-gain frequency beyond analysis grid")
    j = int(below_unity[0])
    if j == 0:
        raise SimulationError("gain below unity at the lowest frequency")
    f_u = _log_crossing(grid[j - 1], grid[j], mag[j - 1], mag[j], 1.0)
    phase = np.unwrap(np.angle(h))
    phase_u = float(np.interp(math.log10(f_u), np.log10(grid), phase))
    # DC phase is 0 (two inverting stages); margin against -180 deg.
    return 180.0 + math.degrees(phase_u)


def svf_bandpass_features(grid: np.ndarray, mag_bp: np.ndarray) -> Tuple[float, float, float]:
    """``(f_center, q_factor, peak_gain)`` of one |H_bp| row, walking the grid."""
    logf = np.log10(grid)
    y = np.log10(mag_bp)
    i = int(np.argmax(y))
    if i == 0 or i == y.size - 1:
        raise SimulationError("band-pass peak at the edge of the analysis grid")
    denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
    delta = 0.0 if denom == 0.0 else 0.5 * (y[i - 1] - y[i + 1]) / denom
    delta = float(np.clip(delta, -0.5, 0.5))
    f_center = 10.0 ** (logf[i] + delta * (logf[1] - logf[0]))
    peak_log = y[i] - 0.25 * (y[i - 1] - y[i + 1]) * delta
    target = peak_log - 0.5 * math.log10(2.0)

    def crossing(start: int, stop: int, step_dir: int) -> float:
        k = start
        while k != stop and y[k] > target:
            k += step_dir
        if y[k] > target:
            raise SimulationError("-3 dB edge outside the analysis grid")
        k2 = k - step_dir
        frac = (target - y[k]) / (y[k2] - y[k])
        return 10.0 ** (logf[k] + frac * (logf[k2] - logf[k]))

    f_lo = crossing(i - 1, 0, -1)
    f_hi = crossing(i + 1, y.size - 1, 1)
    return f_center, f_center / (f_hi - f_lo), 10.0 ** peak_log


# ---------------------------------------------------------------------------
# per-die twins
# ---------------------------------------------------------------------------
def _opamp_die(sim: TwoStageOpAmp, sample) -> np.ndarray:
    devs = sim._varied_devices(sample)
    i_tail, i_stage2, i_bias = sim._bias_currents(devs)
    net = sim._macromodel(devs, i_tail, i_stage2)
    out = "out" if "Rwire" in net else "out_int"
    h = DenseAC(net).solve(sim._FREQ_GRID).transfer(out, "in")
    gain, bw = _opamp_gain_and_bandwidth(sim._FREQ_GRID, h)
    pm = _opamp_phase_margin(sim._FREQ_GRID, h)
    design, par = sim.design, sim.parasitics
    nominal_budget = design.i_tail + design.i_stage2 + design.i_bias
    power = design.vdd * (
        i_tail + i_stage2 + i_bias + par.power_overhead_rel * nominal_budget
    )
    ss1 = devs["M1"].small_signal(i_tail / 2.0)
    ss3 = devs["M3"].small_signal(i_tail / 2.0)
    offset = (
        (devs["M1"].dvth - devs["M2"].dvth)
        + (ss3.gm / ss1.gm) * (devs["M3"].dvth - devs["M4"].dvth)
        + (ss1.vov / 2.0) * (devs["M1"].dkp_rel - devs["M2"].dkp_rel)
        + (ss3.gm / ss1.gm) * (ss3.vov / 2.0) * (devs["M3"].dkp_rel - devs["M4"].dkp_rel)
        + par.offset_systematic
    )
    return np.array([gain, bw, power, offset, pm])


def _ota_die(sim: FoldedCascodeOTA, sample) -> np.ndarray:
    devs = sim._varied_devices(sample)
    i_tail, i_branch = sim._bias_currents(devs)
    g = sample.global_variation
    cap_scale = sim._cap_variation(g.dkp_rel_n, g.dkp_rel_p)
    net = sim._macromodel(devs, i_tail, i_branch, cap_scale)
    mag = np.abs(DenseAC(net).solve(sim._FREQ_GRID).transfer("out", "in"))
    gain = float(mag[0])
    if gain <= 1.0:
        raise SimulationError("OTA gain collapsed below unity")
    below = np.nonzero(mag < 1.0)[0]
    if below.size == 0:
        raise SimulationError("unity-gain frequency beyond grid")
    j = int(below[0])
    grid = sim._FREQ_GRID
    gbw = _log_crossing(grid[j - 1], grid[j], mag[j - 1], mag[j], 1.0)
    design, par = sim.design, sim.parasitics
    slew = i_tail / ((design.c_load + par.c_out) * cap_scale)
    nominal_budget = 8.0 * design.i_bias
    power = design.vdd * (
        i_tail + 2.0 * i_branch + design.i_bias + par.power_overhead_rel * nominal_budget
    )
    ss1 = devs["M1"].small_signal(i_tail / 2.0)
    ss7 = devs["M7"].small_signal(i_tail / 2.0)
    offset = (
        (devs["M1"].dvth - devs["M2"].dvth)
        + (ss7.gm / ss1.gm) * (devs["M7"].dvth - devs["M8"].dvth)
        + (ss1.vov / 2.0) * (devs["M1"].dkp_rel - devs["M2"].dkp_rel)
        + par.offset_systematic
    )
    return np.array([gain, gbw, power, offset, slew])


def _svf_die(sim: GmCStateVariableFilter, sample) -> np.ndarray:
    devs = sim._varied_devices(sample)
    currents = sim._bias_currents(devs)
    solution = DenseAC(sim._macromodel(devs, currents)).solve(sim._FREQ_GRID)
    mag_bp = np.abs(solution.transfer("bp", "in"))
    mag_lp = np.abs(solution.transfer("lp", "in"))
    f_center, q_factor, peak_gain = svf_bandpass_features(sim._FREQ_GRID, mag_bp)
    design = sim.design
    nominal_budget = (
        design.i_in + design.i_int1 + design.i_int2 + design.i_q + 2.0 * design.i_bias
    )
    total = (
        currents["i_in"]
        + currents["i_int1"]
        + currents["i_int2"]
        + currents["i_q"]
        + design.i_bias
        + currents["bias"]
    )
    power = design.vdd * (total + sim.parasitics.power_overhead_rel * nominal_budget)
    return np.array([f_center, q_factor, peak_gain, float(mag_lp[0]), power])


def _flash_convert(sim: FlashADC, offsets_z, ladder_z, noise) -> Tuple[float, ...]:
    """Spectral metrics of one conversion through sorted trip points."""
    thresholds = np.sort(sim._thresholds(offsets_z, ladder_z))
    codes = np.searchsorted(thresholds, sim._input_record() + noise, side="left")
    spectral = sim._analyzer.analyze(codes.astype(float), sim.design.n_cycles)
    return spectral.snr, spectral.sinad, spectral.sfdr, spectral.thd


def _flash_die(sim: FlashADC, die_seed) -> np.ndarray:
    design, layout = sim.design, sim.layout
    offsets_z, ladder_z, bias_z, noise_z = sim._split_draws(sim._die_row(die_seed)[0])
    noise_rms = math.hypot(design.noise_rms, layout.extra_noise_rms)
    spectral = _flash_convert(sim, offsets_z, ladder_z, noise_rms * noise_z)
    bias = np.maximum(design.comparator_bias * (1.0 + design.sigma_bias_rel * bias_z), 0.0)
    nominal_core = design.n_comparators * design.comparator_bias + design.ladder_current
    power = design.vref * (
        float(np.sum(bias)) + design.ladder_current + layout.power_overhead_rel * nominal_core
    )
    return np.array([*spectral, power])


def flash_nominal(sim: FlashADC) -> np.ndarray:
    """The flash ADC's nominal die: zeroed mismatch and noise, scalar math."""
    design = sim.design
    n_cmp = design.n_comparators
    spectral = _flash_convert(sim, np.zeros(n_cmp), np.zeros(n_cmp + 1), 0.0)
    nominal_core = n_cmp * design.comparator_bias + design.ladder_current
    power = design.vref * nominal_core * (1.0 + sim.layout.power_overhead_rel)
    return np.array([*spectral, power])


_TWINS = (
    (TwoStageOpAmp, _opamp_die),
    (FoldedCascodeOTA, _ota_die),
    (GmCStateVariableFilter, _svf_die),
    (FlashADC, _flash_die),
)


def die_metrics(sim, die) -> np.ndarray:
    """Reference metrics of one die (a process sample or a die seed)."""
    for cls, twin in _TWINS:
        if isinstance(sim, cls):
            return twin(sim, die)
    return sim.simulate(die).as_array()


def loop_bank(sim, inputs) -> np.ndarray:
    """Reference metrics matrix over ``inputs``, one die at a time.

    ``inputs`` are process samples or die seeds, whichever ``sim`` takes.
    """
    return np.array([die_metrics(sim, x) for x in inputs])


def use_oracle_nominals(monkeypatch) -> None:
    """Route every nominal die through the per-die twins.

    Patches the one entry point of the stamp-plan circuits' nominal dies
    (``StampPlanSimulator._simulate_one``: every ``simulate_nominal`` and
    corner-shifted nominal) and the flash ADC's ``simulate_nominal``.
    """
    monkeypatch.setattr(
        StampPlanSimulator,
        "_simulate_one",
        lambda sim, sample: sim._METRICS(*die_metrics(sim, sample)),
    )
    monkeypatch.setattr(FlashADC, "simulate_nominal", lambda sim: ADCMetrics(*flash_nominal(sim)))


def max_rel_diff(value: np.ndarray, reference: np.ndarray) -> float:
    """Worst relative disagreement across every die and metric."""
    scale = np.maximum(np.abs(reference), 1e-300)
    return float(np.max(np.abs(value - reference) / scale))
