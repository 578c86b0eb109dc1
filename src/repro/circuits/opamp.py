"""Behavioural two-stage Miller op-amp (the paper's first test circuit).

Sec. 5.1 uses a two-stage operational amplifier in a 45 nm CMOS process and
measures five correlated metrics — **gain, -3 dB bandwidth, power, offset
and phase margin** — at schematic level (early stage) and post-layout (late
stage).  This module rebuilds that experiment on our substrate:

* seven transistors (differential pair M1/M2, mirror load M3/M4, tail M5,
  second-stage common source M6, its current-source load M7) plus the bias
  diode M8;
* a :class:`ProcessSample` perturbs every device (global + Pelgrom local),
  shifting bias currents, transconductances and output conductances;
* the small-signal response is obtained from a genuine MNA AC solve of the
  two-pole Miller macromodel — not from closed-form pole formulas — so
  parasitic insertion changes the response the same way a SPICE re-run
  would;
* the *post-layout* variant adds interconnect parasitics (node capacitance,
  Miller routing capacitance, output loading), a layout-systematic offset,
  higher bias currents (wiring drops re-tuned bias) and a stress-induced
  mobility term that slightly re-shapes the variation response.  The last
  item is what leaves a residual early/late **mean** discrepancy after the
  Sec. 4.1 nominal shift, reproducing the paper's observation that the
  op-amp's early-stage mean knowledge is less trustworthy than its
  covariance knowledge (small optimal ``kappa_0``, large ``v_0``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.circuits.batch import StampPlanSimulator
from repro.circuits.devices import Mosfet, MosfetGeometry, MosfetProcess
from repro.circuits.mna import ACAnalysis
from repro.circuits.netlist import Netlist
from repro.circuits.process import ProcessSample, ProcessVariationModel
from repro.exceptions import SimulationError

__all__ = ["OpAmpDesign", "OpAmpMetrics", "TwoStageOpAmp", "OPAMP_METRIC_NAMES"]

#: Metric ordering used by every returned array.
OPAMP_METRIC_NAMES: Tuple[str, ...] = (
    "gain",        # linear V/V
    "bw_3db",      # Hz
    "power",       # W
    "offset",      # V
    "phase_margin",  # degrees
)


@dataclass(frozen=True)
class OpAmpDesign:
    """Sizing and bias plan of the two-stage amplifier.

    Defaults give a ~66 dB, ~1 MHz-bandwidth design in a 45 nm-flavoured
    behavioural process — representative, not a tape-out.
    """

    vdd: float = 1.1
    i_tail: float = 40e-6
    i_stage2: float = 200e-6
    i_bias: float = 10e-6
    c_comp: float = 0.5e-12
    c_load: float = 1.0e-12

    nmos: MosfetProcess = field(
        default_factory=lambda: MosfetProcess(vth=0.45, kp=4.0e-4, lambda_=0.15)
    )
    pmos: MosfetProcess = field(
        default_factory=lambda: MosfetProcess(vth=0.45, kp=2.0e-4, lambda_=0.20)
    )

    def devices(self) -> List[Tuple[Mosfet, str]]:
        """All transistors with their polarity, nominal (unvaried) instances."""
        um = 1e-6
        geo = MosfetGeometry
        return [
            (Mosfet("M1", geo(8 * um, 0.12 * um), self.nmos), "n"),
            (Mosfet("M2", geo(8 * um, 0.12 * um), self.nmos), "n"),
            (Mosfet("M3", geo(4 * um, 0.24 * um), self.pmos), "p"),
            (Mosfet("M4", geo(4 * um, 0.24 * um), self.pmos), "p"),
            (Mosfet("M5", geo(1.2 * um, 0.24 * um), self.nmos), "n"),
            (Mosfet("M6", geo(24 * um, 0.12 * um), self.pmos), "p"),
            (Mosfet("M7", geo(6 * um, 0.24 * um), self.nmos), "n"),
            (Mosfet("M8", geo(0.3 * um, 0.24 * um), self.nmos), "n"),
        ]


@dataclass(frozen=True)
class OpAmpMetrics:
    """The five measured performances of one simulated die."""

    gain: float
    bw_3db: float
    power: float
    offset: float
    phase_margin: float

    def as_array(self) -> np.ndarray:
        """Metrics in :data:`OPAMP_METRIC_NAMES` order."""
        return np.array(
            [self.gain, self.bw_3db, self.power, self.offset, self.phase_margin]
        )


def _unwrapped_phase_pair(
    phase: np.ndarray, idx: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Unwrapped phase at columns ``idx`` and ``idx + 1`` of each row.

    Equivalent to ``np.unwrap(phase, axis=1)`` followed by two gathers,
    but phase wraps are rare (at most a couple per die), so instead of
    cumulative-summing corrections over the whole grid the wraps are
    located sparsely and only their contributions up to the two requested
    columns are accumulated.  The correction values match ``np.unwrap``'s
    exactly, zeros included, so the result is bit-identical.
    """
    rows = np.arange(phase.shape[0])
    p_lo = phase[rows, idx]
    p_hi = phase[rows, idx + 1]
    dd = np.diff(phase, axis=1)
    wrap_rows, wrap_cols = np.nonzero(np.abs(dd) >= np.pi)
    if wrap_rows.size:
        ddm = dd[wrap_rows, wrap_cols]
        corr = np.mod(ddm + np.pi, 2.0 * np.pi) - np.pi
        corr[(corr == -np.pi) & (ddm > 0.0)] = np.pi
        corr -= ddm
        # A wrap between columns c and c+1 shifts every column >= c+1.
        lo_mask = wrap_cols + 1 <= idx[wrap_rows]
        hi_mask = wrap_cols + 1 <= idx[wrap_rows] + 1
        adj_lo = np.zeros(phase.shape[0])
        adj_hi = np.zeros(phase.shape[0])
        np.add.at(adj_lo, wrap_rows[lo_mask], corr[lo_mask])
        np.add.at(adj_hi, wrap_rows[hi_mask], corr[hi_mask])
        p_lo = p_lo + adj_lo
        p_hi = p_hi + adj_hi
    return p_lo, p_hi


@dataclass(frozen=True)
class _Parasitics:
    """Post-layout parasitic set (all zero at schematic level)."""

    c_node1: float = 0.0       # extra capacitance at the first-stage output
    c_out: float = 0.0         # extra load capacitance from routing
    c_comp_extra: float = 0.0  # routing capacitance in parallel with Cc
    r_out_wire: float = 0.0    # output routing resistance (ohms, 0 = none)
    offset_systematic: float = 0.0  # layout-asymmetry offset (V)
    power_overhead_rel: float = 0.0  # guard rings / well taps leakage
    bias_current_rel: float = 0.0    # IR-drop-induced bias re-tune
    stress_kp_gain: float = 0.0      # STI-stress re-shaping of kp variation
    proximity_quad: float = 0.0      # quadratic litho-proximity Vth term
    extraction_derate: float = 0.0   # signoff-extraction parasitic shortfall


class TwoStageOpAmp(StampPlanSimulator):
    """Simulator for one design stage (schematic or post-layout).

    Use the class methods :meth:`schematic` and :meth:`post_layout` to get
    the early- and late-stage simulators of the *same* design, then call
    :meth:`simulate` with a shared :class:`ProcessSample` to obtain the
    paired metrics the BMF flow fuses.
    """

    #: Log-spaced analysis grid; wide enough to bracket the unity-gain
    #: frequency across all process corners.
    _FREQ_GRID = np.logspace(1, 11, 321)

    _VARIABLE = ("Ggm1", "R1", "C1", "Cc", "Ggm6", "R2", "C2")

    def __init__(self, design: OpAmpDesign, parasitics: Optional[_Parasitics] = None) -> None:
        self.design = design
        self.parasitics = parasitics if parasitics is not None else _Parasitics()
        self._devices = design.devices()

    # ------------------------------------------------------------------
    @classmethod
    def schematic(cls, design: Optional[OpAmpDesign] = None) -> "TwoStageOpAmp":
        """Early-stage (pre-layout) simulator: no parasitics."""
        return cls(design if design is not None else OpAmpDesign())

    @classmethod
    def post_layout(cls, design: Optional[OpAmpDesign] = None) -> "TwoStageOpAmp":
        """Late-stage simulator: extracted-parasitic equivalents included."""
        return cls(
            design if design is not None else OpAmpDesign(),
            _Parasitics(
                c_node1=6e-15,
                c_out=0.03e-12,
                c_comp_extra=4e-15,
                r_out_wire=30.0,
                offset_systematic=0.8e-3,
                power_overhead_rel=0.06,
                bias_current_rel=0.01,
                stress_kp_gain=0.005,
                proximity_quad=0.04,
                extraction_derate=0.22,
            ),
        )

    # ------------------------------------------------------------------
    def process_model(self) -> ProcessVariationModel:
        """The default variation model used in the paper reproduction."""
        return ProcessVariationModel(
            sigma_vth_global=0.012,
            sigma_kp_rel_global=0.045,
            polarity_correlation=0.6,
        )

    # ------------------------------------------------------------------
    def _shape_variation(self, dvth, dkp):
        par = self.parasitics
        if par.stress_kp_gain != 0.0:
            # STI-stress interaction: layout proximity effects amplify
            # the *variation component* of kp post-layout, re-shaping
            # (not just shifting) the late-stage response.
            dkp = dkp * (1.0 + par.stress_kp_gain)
        if par.proximity_quad != 0.0:
            # Litho-proximity (LOD/WPE) effects are nonlinear in the
            # process state: quadratic in the threshold deviation.
            # Crucially this term vanishes at the nominal corner, so
            # the Sec. 4.1 nominal shift cannot remove the mean bias
            # it induces in the late-stage *distribution* — this is
            # what makes the op-amp's early-stage mean knowledge less
            # trustworthy than its covariance knowledge (Sec. 5.1).
            dvth = dvth + par.proximity_quad * dvth * dvth / 0.012
        return dvth, dkp

    def _bias_currents(self, devs: Dict[str, Mosfet]) -> Tuple[float, float, float]:
        """Actual tail/stage-2/bias currents from square-law mirror physics.

        The reference current ``i_bias`` flows through diode device M8,
        fixing the shared gate voltage ``Vgs = Vth8 + Vov8``.  Each mirror
        output device then conducts ``0.5 * beta * (Vgs - Vth)^2`` — the
        exact square-law relation, so threshold and mobility mismatch
        propagate to the bias currents with all their nonlinearity (no
        small-signal linearisation that could drive currents negative).
        """
        design = self.design
        m8 = devs["M8"]
        vov8 = math.sqrt(2.0 * design.i_bias / m8.beta)
        vgs = m8.vth_effective + vov8

        def mirror_current(out_dev: Mosfet) -> float:
            vov = vgs - out_dev.vth_effective
            if vov <= 0.0:
                raise SimulationError(
                    f"{out_dev.name}: mirror output device cut off (Vov={vov:.3f})"
                )
            return (
                0.5
                * out_dev.beta
                * vov
                * vov
                * (1.0 + self.parasitics.bias_current_rel)
            )

        return mirror_current(devs["M5"]), mirror_current(devs["M7"]), design.i_bias

    # ------------------------------------------------------------------
    def _macromodel(
        self, devs: Dict[str, Mosfet], i_tail: float, i_stage2: float
    ) -> Netlist:
        """Small-signal macromodel netlist for the current process draw."""
        par = self.parasitics
        i_half = i_tail / 2.0

        ss1 = devs["M1"].small_signal(i_half)
        ss2 = devs["M2"].small_signal(i_half)
        ss4 = devs["M4"].small_signal(i_half)
        ss6 = devs["M6"].small_signal(i_stage2)
        ss7 = devs["M7"].small_signal(i_stage2)

        gm1 = 0.5 * (ss1.gm + ss2.gm)  # effective diff-pair transconductance
        r1 = 1.0 / (ss2.gds + ss4.gds)
        c1 = ss6.cgg + 0.5 * (ss2.cgg + ss4.cgg) * 0.3 + par.c_node1
        gm6 = ss6.gm
        r2 = 1.0 / (ss6.gds + ss7.gds)
        c2 = self.design.c_load + ss6.cgg * 0.2 + par.c_out
        cc = self.design.c_comp + par.c_comp_extra

        net = Netlist(title="two-stage op-amp macromodel")
        net.voltage_source("Vin", "in", "0", 1.0)
        # Stage 1: inverting transconductance into node x.
        net.vccs("Ggm1", "x", "0", "in", "0", gm1)
        net.resistor("R1", "x", "0", r1)
        net.capacitor("C1", "x", "0", c1)
        # Miller compensation across stage 2.
        net.capacitor("Cc", "x", "out_int", cc)
        # Stage 2: inverting common source; the two inversions give a
        # positive DC transfer, so phase starts at 0 degrees.
        net.vccs("Ggm6", "out_int", "0", "x", "0", gm6)
        net.resistor("R2", "out_int", "0", r2)
        if par.r_out_wire > 0.0:
            net.resistor("Rwire", "out_int", "out", par.r_out_wire)
            net.capacitor("C2", "out", "0", c2)
        else:
            net.capacitor("C2", "out_int", "0", c2)
        return net

    def _netlist(self, sample: ProcessSample) -> Netlist:
        devs = self._varied_devices(sample)
        i_tail, i_stage2, _ = self._bias_currents(devs)
        return self._macromodel(devs, i_tail, i_stage2)

    @staticmethod
    def _output_node(netlist: Netlist) -> str:
        return "out" if "Rwire" in netlist else "out_int"

    # ------------------------------------------------------------------
    def _offset(self, devs: Dict[str, Mosfet], i_tail: float) -> float:
        """Input-referred offset from pair and mirror mismatch.

        Standard first-order model: the load-mirror threshold mismatch is
        referred to the input through ``gm3 / gm1``; current-factor
        mismatches contribute ``(Vov / 2) * dBeta/Beta`` terms.
        """
        i_half = i_tail / 2.0
        ss1 = devs["M1"].small_signal(i_half)
        ss3 = devs["M3"].small_signal(i_half)
        dvth_pair = devs["M1"].dvth - devs["M2"].dvth
        dvth_load = devs["M3"].dvth - devs["M4"].dvth
        dbeta_pair = devs["M1"].dkp_rel - devs["M2"].dkp_rel
        dbeta_load = devs["M3"].dkp_rel - devs["M4"].dkp_rel
        return (
            dvth_pair
            + (ss3.gm / ss1.gm) * dvth_load
            + (ss1.vov / 2.0) * dbeta_pair
            + (ss3.gm / ss1.gm) * (ss3.vov / 2.0) * dbeta_load
            + self.parasitics.offset_systematic
        )

    # ------------------------------------------------------------------
    def simulate(self, sample: ProcessSample) -> OpAmpMetrics:
        """Measure the five metrics for one process draw.

        Runs a full MNA AC sweep and extracts gain / bandwidth / phase
        margin from the solved transfer function; offset and power come
        from the operating-point model.
        """
        devs = self._varied_devices(sample)
        i_tail, i_stage2, i_bias = self._bias_currents(devs)
        net = self._macromodel(devs, i_tail, i_stage2)
        solution = ACAnalysis(net).solve(self._FREQ_GRID)
        h = solution.transfer(self._output_node(net), "in")

        gain, bw = self._gain_and_bandwidth(h)
        pm = self._phase_margin(h)
        design = self.design
        # Post-layout overhead (guard rings, well taps, substrate ties) is
        # a fixed adder referenced to the nominal budget — it shifts the
        # power mean without re-scaling its variation.
        nominal_budget = design.i_tail + design.i_stage2 + design.i_bias
        power = design.vdd * (
            i_tail
            + i_stage2
            + i_bias
            + self.parasitics.power_overhead_rel * nominal_budget
        )
        offset = self._offset(devs, i_tail)
        return OpAmpMetrics(
            gain=gain, bw_3db=bw, power=power, offset=offset, phase_margin=pm
        )

    def simulate_nominal(self) -> OpAmpMetrics:
        """Nominal (variation-free) run; supplies ``P_NOM`` for Sec. 4.1.

        When ``extraction_derate`` is set, the nominal run sees only a
        fraction of the layout parasitics — modelling a signoff extraction
        deck that under-captures coupling, a well-documented source of
        silicon-vs-signoff mean bias.  The Monte-Carlo population always
        carries the full parasitics, so the Sec. 4.1 nominal shift cannot
        fully align the early- and late-stage means: exactly the situation
        in which the paper's op-amp cross validation selects a small
        ``kappa_0`` (early mean knowledge downweighted).
        """
        sim = self
        derate = self.parasitics.extraction_derate
        if derate != 0.0:
            import dataclasses

            keep = 1.0 - derate
            par = dataclasses.replace(
                self.parasitics,
                c_node1=self.parasitics.c_node1 * keep,
                c_out=self.parasitics.c_out * keep,
                c_comp_extra=self.parasitics.c_comp_extra * keep,
                r_out_wire=self.parasitics.r_out_wire * keep,
                offset_systematic=self.parasitics.offset_systematic * keep,
                power_overhead_rel=self.parasitics.power_overhead_rel * keep,
                bias_current_rel=self.parasitics.bias_current_rel * keep,
                extraction_derate=0.0,
            )
            sim = TwoStageOpAmp(self.design, par)
        model = ProcessVariationModel(0.0, 0.0, 0.0, 0.0, 0.0)
        nominal = model.nominal_sample(sim.devices)
        return sim.simulate(nominal)

    # ------------------------------------------------------------------
    # vectorized engine
    # ------------------------------------------------------------------
    def _batched_bias_currents(
        self, devs: Dict[str, Dict[str, np.ndarray]]
    ) -> Tuple[np.ndarray, np.ndarray, float]:
        """Vectorized mirror of :meth:`_bias_currents` (square-law mirrors)."""
        design = self.design
        m8 = devs["M8"]
        vov8 = np.sqrt(2.0 * design.i_bias / m8["beta"])
        vgs = m8["vth"] + vov8

        def mirror_current(dev: Dict[str, np.ndarray], name: str) -> np.ndarray:
            vov = vgs - dev["vth"]
            if np.any(vov <= 0.0):
                bad = int(np.argmax(vov <= 0.0))
                raise SimulationError(
                    f"{name}: mirror output device cut off "
                    f"(Vov={float(vov[bad]):.3f} at sample {bad})"
                )
            return (
                0.5
                * dev["beta"]
                * vov
                * vov
                * (1.0 + self.parasitics.bias_current_rel)
            )

        return (
            mirror_current(devs["M5"], "M5"),
            mirror_current(devs["M7"], "M7"),
            design.i_bias,
        )

    def _simulate_batch_vectorized(
        self,
        samples: List[ProcessSample],
        memory_budget_mb: float,
        mna_backend: Optional[str] = None,
    ) -> np.ndarray:
        n = len(samples)
        design = self.design
        par = self.parasitics
        devs = self._batched_device_arrays(samples)
        i_tail, i_stage2, i_bias = self._batched_bias_currents(devs)
        i_half = i_tail / 2.0

        gm_m1 = self._batched_gm(devs["M1"], i_half)
        gm_m2 = self._batched_gm(devs["M2"], i_half)
        gds = lambda name, current: devs[name]["lambda_"] * current
        ones = np.ones(n)
        values = {
            "Ggm1": 0.5 * (gm_m1 + gm_m2),
            "R1": 1.0 / (gds("M2", i_half) + gds("M4", i_half)),
            "C1": (
                devs["M6"]["cgg"]
                + 0.5 * (devs["M2"]["cgg"] + devs["M4"]["cgg"]) * 0.3
                + par.c_node1
            )
            * ones,
            "Cc": (design.c_comp + par.c_comp_extra) * ones,
            "Ggm6": self._batched_gm(devs["M6"], i_stage2),
            "R2": 1.0 / (gds("M6", i_stage2) + gds("M7", i_stage2)),
            "C2": (design.c_load + devs["M6"]["cgg"] * 0.2 + par.c_out) * ones,
        }
        plan = self._stamp_plan()
        out_node = "out" if par.r_out_wire > 0.0 else "out_int"
        solution = plan.solve_batched(
            values,
            self._FREQ_GRID,
            memory_budget_mb=memory_budget_mb,
            outputs=[out_node],
            backend=mna_backend,
        )
        h = solution.transfer(out_node, "in")

        mag = np.abs(h)
        gain, bw = self._gain_and_bandwidth_batch(mag)
        pm = self._phase_margin_batch(h, mag)
        nominal_budget = design.i_tail + design.i_stage2 + design.i_bias
        power = design.vdd * (
            i_tail
            + i_stage2
            + i_bias
            + self.parasitics.power_overhead_rel * nominal_budget
        )
        offset = self._offset_batch(devs, i_half)
        return np.column_stack([gain, bw, power, offset, pm])

    def _offset_batch(
        self, devs: Dict[str, Dict[str, np.ndarray]], i_half: np.ndarray
    ) -> np.ndarray:
        """Vectorized mirror of :meth:`_offset`."""
        gm1 = self._batched_gm(devs["M1"], i_half)
        gm3 = self._batched_gm(devs["M3"], i_half)
        vov1 = self._batched_vov(devs["M1"], i_half)
        vov3 = self._batched_vov(devs["M3"], i_half)
        dvth_pair = devs["M1"]["dvth"] - devs["M2"]["dvth"]
        dvth_load = devs["M3"]["dvth"] - devs["M4"]["dvth"]
        dbeta_pair = devs["M1"]["dkp"] - devs["M2"]["dkp"]
        dbeta_load = devs["M3"]["dkp"] - devs["M4"]["dkp"]
        return (
            dvth_pair
            + (gm3 / gm1) * dvth_load
            + (vov1 / 2.0) * dbeta_pair
            + (gm3 / gm1) * (vov3 / 2.0) * dbeta_load
            + self.parasitics.offset_systematic
        )

    def _gain_and_bandwidth_batch(
        self, mag: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized mirror of :meth:`_gain_and_bandwidth`."""
        gain = mag[:, 0]
        if np.any(gain <= 0.0):
            raise SimulationError("non-positive DC gain in batch")
        flatness = np.abs(mag[:, 1] / gain - 1.0)
        if np.any(flatness > 0.05):
            raise SimulationError(
                "response not flat at the low end of the analysis grid; "
                "DC gain not captured (batch)"
            )
        target = gain / math.sqrt(2.0)
        below = mag < target[:, None]
        if not np.all(below.any(axis=1)):
            raise SimulationError("-3 dB point beyond analysis grid in batch")
        j = below.argmax(axis=1)
        if np.any(j == 0):
            raise SimulationError("-3 dB point below analysis grid in batch")
        rows = np.arange(mag.shape[0])
        bw = self._log_crossing_batch(
            self._FREQ_GRID[j - 1],
            self._FREQ_GRID[j],
            mag[rows, j - 1],
            mag[rows, j],
            target,
        )
        return gain, bw

    def _phase_margin_batch(self, h: np.ndarray, mag: np.ndarray) -> np.ndarray:
        """Vectorized mirror of :meth:`_phase_margin`."""
        below_unity = mag < 1.0
        if not np.all(below_unity.any(axis=1)):
            raise SimulationError("unity-gain frequency beyond analysis grid in batch")
        j = below_unity.argmax(axis=1)
        if np.any(j == 0):
            raise SimulationError("gain below unity at the lowest frequency in batch")
        rows = np.arange(mag.shape[0])
        f_u = self._log_crossing_batch(
            self._FREQ_GRID[j - 1],
            self._FREQ_GRID[j],
            mag[rows, j - 1],
            mag[rows, j],
            np.ones(mag.shape[0]),
        )
        log_f = np.log10(self._FREQ_GRID)
        x = np.log10(f_u)
        idx = np.clip(np.searchsorted(log_f, x, side="right") - 1, 0, log_f.size - 2)
        phase = np.angle(h)
        p_lo, p_hi = _unwrapped_phase_pair(phase, idx)
        slope = (p_hi - p_lo) / (log_f[idx + 1] - log_f[idx])
        phase_u = p_lo + slope * (x - log_f[idx])
        return 180.0 + np.degrees(phase_u)

    # ------------------------------------------------------------------
    def _gain_and_bandwidth(self, h: np.ndarray) -> Tuple[float, float]:
        mag = np.abs(h)
        gain = float(mag[0])
        if gain <= 0.0:
            raise SimulationError("non-positive DC gain")
        # The first grid point must sit on the flat low-frequency plateau,
        # otherwise "gain" is not the DC gain and every derived metric is
        # silently wrong (dominant pole below the analysis grid).
        if abs(float(mag[1]) / gain - 1.0) > 0.05:
            raise SimulationError(
                "response not flat at the low end of the analysis grid; "
                "DC gain not captured"
            )
        target = gain / math.sqrt(2.0)
        below = np.nonzero(mag < target)[0]
        if below.size == 0:
            raise SimulationError("-3 dB point beyond analysis grid")
        j = int(below[0])
        if j == 0:
            raise SimulationError("-3 dB point below analysis grid")
        bw = self._log_crossing(
            self._FREQ_GRID[j - 1], self._FREQ_GRID[j], mag[j - 1], mag[j], target
        )
        return gain, bw

    def _phase_margin(self, h: np.ndarray) -> float:
        mag = np.abs(h)
        below_unity = np.nonzero(mag < 1.0)[0]
        if below_unity.size == 0:
            raise SimulationError("unity-gain frequency beyond analysis grid")
        j = int(below_unity[0])
        if j == 0:
            raise SimulationError("gain below unity at the lowest frequency")
        f_u = self._log_crossing(
            self._FREQ_GRID[j - 1], self._FREQ_GRID[j], mag[j - 1], mag[j], 1.0
        )
        phase = np.unwrap(np.angle(h))
        log_f = np.log10(self._FREQ_GRID)
        phase_u = float(np.interp(math.log10(f_u), log_f, phase))
        # DC phase is 0 (two inverting stages); margin against -180 deg.
        return 180.0 + math.degrees(phase_u)

    @staticmethod
    def _log_crossing(f_lo: float, f_hi: float, m_lo: float, m_hi: float, target: float) -> float:
        """Log-log interpolation of the frequency where ``|H|`` hits target."""
        l_lo, l_hi = math.log10(f_lo), math.log10(f_hi)
        g_lo, g_hi = math.log10(m_lo), math.log10(m_hi)
        if g_hi == g_lo:
            return f_lo
        frac = (math.log10(target) - g_lo) / (g_hi - g_lo)
        return 10.0 ** (l_lo + frac * (l_hi - l_lo))
