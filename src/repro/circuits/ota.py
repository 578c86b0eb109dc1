"""Behavioural folded-cascode OTA — a third workload beyond the paper.

The paper evaluates on a two-stage op-amp and a flash ADC; a downstream
user's first question is "does this work on *my* circuit?".  The
folded-cascode operational transconductance amplifier is the other
canonical analog block, with a different metric profile:

* single high-impedance node → gain set by cascoded output resistance,
* no Miller compensation → the load capacitor is the compensation,
* five metrics: **gain, unity-gain bandwidth (GBW), power, offset,
  slew rate** — note GBW and slew rate replace the two-stage amp's
  -3 dB/PM pair.

Implementation mirrors :mod:`repro.circuits.opamp`: square-law devices,
exact mirror bias physics, an MNA solve of the single-pole macromodel with
a parasitic pole at the cascode node, and a post-layout variant carrying
parasitics plus the same two nominal-vs-population bias mechanisms
(proximity quadratic, extraction derate).  Banks run through the shared
stamp-plan engine of :mod:`repro.circuits.batch`; the per-die
:meth:`FoldedCascodeOTA.simulate` stays as its reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.circuits.batch import StampPlanSimulator
from repro.circuits.devices import Mosfet, MosfetGeometry, MosfetProcess
from repro.circuits.mna import ACAnalysis
from repro.circuits.montecarlo import PairedDataset
from repro.circuits.netlist import Netlist
from repro.circuits.process import ProcessSample, ProcessVariationModel
from repro.exceptions import SimulationError

__all__ = ["FoldedCascodeDesign", "OTAMetrics", "FoldedCascodeOTA", "OTA_METRIC_NAMES"]

#: Metric ordering used by every returned array.
OTA_METRIC_NAMES: Tuple[str, ...] = (
    "gain",       # linear V/V
    "gbw",        # Hz (unity-gain bandwidth)
    "power",      # W
    "offset",     # V
    "slew_rate",  # V/s
)


@dataclass(frozen=True)
class FoldedCascodeDesign:
    """Sizing and bias plan of the folded-cascode OTA."""

    vdd: float = 1.2
    i_bias: float = 20e-6     # reference through the diode device
    c_load: float = 2.0e-12

    nmos: MosfetProcess = field(
        default_factory=lambda: MosfetProcess(vth=0.45, kp=4.0e-4, lambda_=0.12)
    )
    pmos: MosfetProcess = field(
        default_factory=lambda: MosfetProcess(vth=0.45, kp=2.0e-4, lambda_=0.16)
    )

    def devices(self) -> List[Tuple[Mosfet, str]]:
        """Transistor inventory: input pair, folding cascodes, mirrors.

        Sizing realises (via the square-law mirror physics) a ~120 uA tail
        and ~60 uA per cascode branch at the nominal corner.
        """
        um = 1e-6
        geo = MosfetGeometry
        return [
            # PMOS input differential pair (folded topology).
            (Mosfet("M1", geo(16 * um, 0.12 * um), self.pmos), "p"),
            (Mosfet("M2", geo(16 * um, 0.12 * um), self.pmos), "p"),
            # NMOS cascode devices at the folding node.
            (Mosfet("M3", geo(6 * um, 0.12 * um), self.nmos), "n"),
            (Mosfet("M4", geo(6 * um, 0.12 * um), self.nmos), "n"),
            # PMOS cascode current sources (output top).
            (Mosfet("M5", geo(10 * um, 0.24 * um), self.pmos), "p"),
            (Mosfet("M6", geo(10 * um, 0.24 * um), self.pmos), "p"),
            # NMOS mirror bottom devices.
            (Mosfet("M7", geo(4 * um, 0.24 * um), self.nmos), "n"),
            (Mosfet("M8", geo(4 * um, 0.24 * um), self.nmos), "n"),
            # Tail current source (PMOS) and the bias diode.
            (Mosfet("M9", geo(7.2 * um, 0.24 * um), self.pmos), "p"),
            (Mosfet("M10", geo(1.2 * um, 0.24 * um), self.pmos), "p"),
        ]


@dataclass(frozen=True)
class OTAMetrics:
    """The five measured performances of one simulated die."""

    gain: float
    gbw: float
    power: float
    offset: float
    slew_rate: float

    def as_array(self) -> np.ndarray:
        """Metrics in :data:`OTA_METRIC_NAMES` order."""
        return np.array(
            [self.gain, self.gbw, self.power, self.offset, self.slew_rate]
        )


@dataclass(frozen=True)
class _OTAParasitics:
    """Post-layout deviations (all zero at schematic level)."""

    c_out: float = 0.0            # routing capacitance at the output
    c_fold: float = 0.0           # parasitic at the folding node
    offset_systematic: float = 0.0
    power_overhead_rel: float = 0.0   # additive, referenced to nominal
    proximity_quad: float = 0.0
    extraction_derate: float = 0.0


class FoldedCascodeOTA(StampPlanSimulator):
    """Simulator for one design stage of the folded-cascode OTA."""

    _FREQ_GRID = np.logspace(1, 11, 321)

    _VARIABLE = ("Ggm1", "Rfold", "Cfold", "Gcasc", "Rout", "Cout")

    def __init__(
        self,
        design: FoldedCascodeDesign,
        parasitics: Optional[_OTAParasitics] = None,
    ) -> None:
        self.design = design
        self.parasitics = parasitics if parasitics is not None else _OTAParasitics()
        self._devices = design.devices()

    # ------------------------------------------------------------------
    @classmethod
    def schematic(cls, design: Optional[FoldedCascodeDesign] = None) -> "FoldedCascodeOTA":
        """Early-stage simulator."""
        return cls(design if design is not None else FoldedCascodeDesign())

    @classmethod
    def post_layout(cls, design: Optional[FoldedCascodeDesign] = None) -> "FoldedCascodeOTA":
        """Late-stage simulator with extracted layout effects."""
        return cls(
            design if design is not None else FoldedCascodeDesign(),
            _OTAParasitics(
                c_out=0.15e-12,
                c_fold=20e-15,
                offset_systematic=0.6e-3,
                power_overhead_rel=0.05,
                proximity_quad=0.04,
                extraction_derate=0.20,
            ),
        )

    # ------------------------------------------------------------------
    def process_model(self) -> ProcessVariationModel:
        """Default variation model (same technology class as the op-amp)."""
        return ProcessVariationModel(
            sigma_vth_global=0.012,
            sigma_kp_rel_global=0.045,
            polarity_correlation=0.6,
        )

    # ------------------------------------------------------------------
    def _shape_variation(self, dvth, dkp):
        quad = self.parasitics.proximity_quad
        if quad != 0.0:
            dvth = dvth + quad * dvth * dvth / 0.012
        return dvth, dkp

    def _bias_currents(self, devs: Dict[str, Mosfet]) -> Tuple[float, float]:
        """Tail and branch currents from square-law mirror physics.

        The PMOS diode M10 carries ``i_bias``; tail device M9 mirrors it
        (6x by sizing), and the branch current sources M5/M6 each carry
        half the tail by construction of the folded branch bias.
        """
        design = self.design
        m10 = devs["M10"]
        vov10 = math.sqrt(2.0 * design.i_bias / m10.beta)
        vgs = m10.vth_effective + vov10

        m9 = devs["M9"]
        vov9 = vgs - m9.vth_effective
        if vov9 <= 0.0:
            raise SimulationError("M9: tail device cut off")
        i_tail = 0.5 * m9.beta * vov9 * vov9
        i_branch = i_tail / 2.0
        return i_tail, i_branch

    # ------------------------------------------------------------------
    def _macromodel(
        self,
        devs: Dict[str, Mosfet],
        i_tail: float,
        i_branch: float,
        cap_scale: float = 1.0,
    ) -> Netlist:
        """Single-pole cascode macromodel with a folding-node pole.

        The cascode output resistance is ``(gm_casc / gds_casc) * ro`` on
        both stacks; the folding node adds a parasitic pole through the
        cascode device's 1/gm impedance.
        """
        par = self.parasitics
        i_half = i_tail / 2.0

        ss1 = devs["M1"].small_signal(i_half)
        ss3 = devs["M3"].small_signal(i_branch)
        ss5 = devs["M5"].small_signal(i_branch)
        ss7 = devs["M7"].small_signal(i_branch)

        gm1 = ss1.gm
        # Cascoded output resistances (looking up and down from output).
        r_down = (ss3.gm / ss3.gds) * (1.0 / ss7.gds)
        r_up = (ss5.gm / ss5.gds) * (1.0 / devs["M6"].small_signal(i_branch).gds)
        r_out = 1.0 / (1.0 / r_down + 1.0 / r_up)
        c_out = (self.design.c_load + ss3.cgg * 0.3 + par.c_out) * cap_scale
        # Folding node: impedance ~ 1/gm3, capacitance from M1/M3/M7.
        r_fold = 1.0 / ss3.gm
        c_fold = (ss1.cgg * 0.4 + ss3.cgg + ss7.cgg * 0.5 + par.c_fold) * cap_scale

        net = Netlist(title="folded-cascode OTA macromodel")
        net.voltage_source("Vin", "in", "0", 1.0)
        # Input pair injects current into the folding node.
        net.vccs("Ggm1", "fold", "0", "in", "0", gm1)
        net.resistor("Rfold", "fold", "0", r_fold)
        net.capacitor("Cfold", "fold", "0", c_fold)
        # Cascode transfer: current through M3 onto the output node.
        # The cascode passes the folding-node current with unity gain:
        # i_out = gm3 * v_fold * r_fold ~ v_fold / r_fold.
        net.vccs("Gcasc", "out", "0", "fold", "0", ss3.gm)
        net.resistor("Rout", "out", "0", r_out)
        net.capacitor("Cout", "out", "0", c_out)
        return net

    def _netlist(self, sample: ProcessSample) -> Netlist:
        devs = self._varied_devices(sample)
        i_tail, i_branch = self._bias_currents(devs)
        return self._macromodel(devs, i_tail, i_branch, self._cap_variation(sample))

    def _offset(self, devs: Dict[str, Mosfet], i_tail: float) -> float:
        i_half = i_tail / 2.0
        ss1 = devs["M1"].small_signal(i_half)
        ss7 = devs["M7"].small_signal(i_half)
        dvth_pair = devs["M1"].dvth - devs["M2"].dvth
        dvth_mirror = devs["M7"].dvth - devs["M8"].dvth
        dbeta_pair = devs["M1"].dkp_rel - devs["M2"].dkp_rel
        return (
            dvth_pair
            + (ss7.gm / ss1.gm) * dvth_mirror
            + (ss1.vov / 2.0) * dbeta_pair
            + self.parasitics.offset_systematic
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _cap_variation(sample: ProcessSample) -> float:
        """Die-level capacitor variation tied to the oxide/mobility state.

        Gate-oxide thickness drives both the mobility factor and the MOS
        capacitances, so the die's capacitors track the average global
        ``kp`` deviation with a partial (0.35) sensitivity.  This is what
        keeps slew rate (``I / C``) from being perfectly collinear with
        power (``~ I``), as it would be with ideal capacitors.
        """
        g = sample.global_variation
        return 1.0 + 0.35 * 0.5 * (g.dkp_rel_n + g.dkp_rel_p)

    def simulate(self, sample: ProcessSample) -> OTAMetrics:
        """Measure the five metrics for one process draw."""
        devs = self._varied_devices(sample)
        i_tail, i_branch = self._bias_currents(devs)
        cap_scale = self._cap_variation(sample)
        net = self._macromodel(devs, i_tail, i_branch, cap_scale)
        solution = ACAnalysis(net).solve(self._FREQ_GRID)
        h = solution.transfer("out", "in")

        mag = np.abs(h)
        gain = float(mag[0])
        if gain <= 1.0:
            raise SimulationError("OTA gain collapsed below unity")
        below = np.nonzero(mag < 1.0)[0]
        if below.size == 0:
            raise SimulationError("unity-gain frequency beyond grid")
        j = int(below[0])
        gbw = self._log_crossing(
            self._FREQ_GRID[j - 1], self._FREQ_GRID[j], mag[j - 1], mag[j]
        )

        design = self.design
        c_total = (design.c_load + self.parasitics.c_out) * cap_scale
        slew = i_tail / c_total
        nominal_budget = 8.0 * design.i_bias  # tail 6x + diode + margin
        power = design.vdd * (
            i_tail
            + 2.0 * i_branch
            + design.i_bias
            + self.parasitics.power_overhead_rel * nominal_budget
        )
        return OTAMetrics(
            gain=gain,
            gbw=gbw,
            power=power,
            offset=self._offset(devs, i_tail),
            slew_rate=slew,
        )

    def simulate_nominal(self) -> OTAMetrics:
        """Nominal run with the extraction-derated parasitics (Sec. 4.1)."""
        sim = self
        derate = self.parasitics.extraction_derate
        if derate != 0.0:
            keep = 1.0 - derate
            par = replace(
                self.parasitics,
                c_out=self.parasitics.c_out * keep,
                c_fold=self.parasitics.c_fold * keep,
                offset_systematic=self.parasitics.offset_systematic * keep,
                power_overhead_rel=self.parasitics.power_overhead_rel * keep,
                extraction_derate=0.0,
            )
            sim = FoldedCascodeOTA(self.design, par)
        model = ProcessVariationModel(0.0, 0.0, 0.0, 0.0, 0.0)
        return sim.simulate(model.nominal_sample(sim.devices))

    def measure_step_response(
        self, sample: ProcessSample, tolerance: float = 0.01
    ):
        """Small-signal step response of one die: (settling time, overshoot).

        Runs the macromodel through the trapezoidal transient engine —
        the time-domain complement of the AC-derived GBW metric.  The
        settling time is to ``tolerance`` (relative) of the final value.
        """
        from repro.circuits.transient import TransientAnalysis, step

        net = self._netlist(sample)
        # Time scale from the dominant pole: gain / GBW.
        metrics = self.simulate(sample)
        tau = metrics.gain / (2.0 * np.pi * metrics.gbw)
        sim = TransientAnalysis(net)
        result = sim.run(t_stop=12.0 * tau, dt=tau / 400.0, waveform=step())
        return (
            result.settling_time("out", tolerance=tolerance),
            result.overshoot("out"),
        )

    @staticmethod
    def _log_crossing(f_lo: float, f_hi: float, m_lo: float, m_hi: float) -> float:
        l_lo, l_hi = math.log10(f_lo), math.log10(f_hi)
        g_lo, g_hi = math.log10(m_lo), math.log10(m_hi)
        if g_hi == g_lo:
            return f_lo
        frac = (0.0 - g_lo) / (g_hi - g_lo)
        return 10.0 ** (l_lo + frac * (l_hi - l_lo))

    # ------------------------------------------------------------------
    # vectorized engine
    # ------------------------------------------------------------------
    def _batched_bias_currents(
        self, devs: Dict[str, Dict[str, np.ndarray]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized mirror of :meth:`_bias_currents`."""
        m10 = devs["M10"]
        vov10 = np.sqrt(2.0 * self.design.i_bias / m10["beta"])
        vgs = m10["vth"] + vov10

        m9 = devs["M9"]
        vov9 = vgs - m9["vth"]
        if np.any(vov9 <= 0.0):
            bad = int(np.argmax(vov9 <= 0.0))
            raise SimulationError(
                f"M9: tail device cut off (Vov={float(vov9[bad]):.3f} at sample {bad})"
            )
        i_tail = 0.5 * m9["beta"] * vov9 * vov9
        return i_tail, i_tail / 2.0

    def _simulate_batch_vectorized(
        self,
        samples: List[ProcessSample],
        memory_budget_mb: float,
        mna_backend: Optional[str] = None,
    ) -> np.ndarray:
        design = self.design
        par = self.parasitics
        devs = self._batched_device_arrays(samples)
        i_tail, i_branch = self._batched_bias_currents(devs)
        i_half = i_tail / 2.0
        cap_scale = np.array([self._cap_variation(s) for s in samples])

        def gds(name: str, current: np.ndarray) -> np.ndarray:
            return devs[name]["lambda_"] * current

        gm1 = self._batched_gm(devs["M1"], i_half)
        gm3 = self._batched_gm(devs["M3"], i_branch)
        gm5 = self._batched_gm(devs["M5"], i_branch)
        r_down = (gm3 / gds("M3", i_branch)) * (1.0 / gds("M7", i_branch))
        r_up = (gm5 / gds("M5", i_branch)) * (1.0 / gds("M6", i_branch))
        cgg = {name: dev["cgg"] for name, dev in devs.items()}
        values = {
            "Ggm1": gm1,
            "Rfold": 1.0 / gm3,
            "Cfold": (
                cgg["M1"] * 0.4 + cgg["M3"] + cgg["M7"] * 0.5 + par.c_fold
            )
            * cap_scale,
            "Gcasc": gm3,
            "Rout": 1.0 / (1.0 / r_down + 1.0 / r_up),
            "Cout": (design.c_load + cgg["M3"] * 0.3 + par.c_out) * cap_scale,
        }
        solution = self._stamp_plan().solve_batched(
            values,
            self._FREQ_GRID,
            memory_budget_mb=memory_budget_mb,
            outputs=["out"],
            backend=mna_backend,
        )
        mag = np.abs(solution.transfer("out", "in"))

        gain = mag[:, 0]
        if np.any(gain <= 1.0):
            raise SimulationError("OTA gain collapsed below unity in batch")
        below = mag < 1.0
        if not np.all(below.any(axis=1)):
            raise SimulationError("unity-gain frequency beyond grid in batch")
        j = below.argmax(axis=1)
        rows = np.arange(mag.shape[0])
        gbw = self._log_crossing_batch(
            self._FREQ_GRID[j - 1],
            self._FREQ_GRID[j],
            mag[rows, j - 1],
            mag[rows, j],
            np.ones(mag.shape[0]),
        )

        slew = i_tail / ((design.c_load + par.c_out) * cap_scale)
        nominal_budget = 8.0 * design.i_bias
        power = design.vdd * (
            i_tail
            + 2.0 * i_branch
            + design.i_bias
            + par.power_overhead_rel * nominal_budget
        )
        gm7 = self._batched_gm(devs["M7"], i_half)
        vov1 = self._batched_vov(devs["M1"], i_half)
        offset = (
            (devs["M1"]["dvth"] - devs["M2"]["dvth"])
            + (gm7 / gm1) * (devs["M7"]["dvth"] - devs["M8"]["dvth"])
            + (vov1 / 2.0) * (devs["M1"]["dkp"] - devs["M2"]["dkp"])
            + par.offset_systematic
        )
        return np.column_stack([gain, gbw, power, offset, slew])


def generate_ota_dataset(
    n_samples: int = 2000,
    seed: int = 2015,
    design: Optional[FoldedCascodeDesign] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    use_cache: bool = True,
) -> PairedDataset:
    """Paired early/late OTA banks (same contract as the op-amp generator).

    A thin wrapper over ``registry.generate_dataset("ota", ...)``: both
    stages replay one process-sample list, and identical configurations
    are served from the disk cache (see
    :func:`repro.circuits.montecarlo.dataset_cache_path`); pass
    ``use_cache=False`` to force a fresh simulation.
    """
    # Lazy import: the registry imports this module.
    from repro.circuits.registry import generate_dataset

    return generate_dataset(
        "ota",
        n_samples=n_samples,
        seed=seed,
        design=design,
        cache_dir=cache_dir,
        use_cache=use_cache,
    )
