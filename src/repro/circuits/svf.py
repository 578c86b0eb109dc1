"""Behavioural gm-C state-variable filter (scenario-library circuit block).

A classic two-integrator-loop (Tow-Thomas style) gm-C biquad built from
four transconductors and two capacitors:

* ``Gin`` injects the input into the band-pass node;
* ``Rq`` is a diode-connected gm cell (``1/gm_q``) that sets the loop
  damping, i.e. the quality factor;
* ``Gfb``/``Gint`` close the two-integrator loop between the band-pass
  node (``bp``) and the low-pass node (``lp``).

With ideal elements ``H_bp(s) = -gm1 s C2 / (s^2 C1 C2 + s C2 gm_q +
gm2 gm3)``, so the centre frequency is ``sqrt(gm2 gm3 / (C1 C2))`` and
``Q = sqrt(gm2 gm3 C1 / C2) / gm_q`` — but nothing here uses those
formulas: the response comes from a genuine MNA AC solve of the
macromodel (including the transconductors' finite output conductance),
and every ``gm`` is produced by square-law bias mirrors over mismatched
devices, so the metrics *emerge* from the solved network.

The bias chain deliberately crosses polarities — an NMOS reference
mirror pulls the master current through a PMOS diode whose gate line
feeds the PMOS tail sources of all four (PMOS-input) transconductors —
so both NMOS and PMOS process shifts move the filter, and process
corners (SF/FS included) act on it the way they act on real silicon.

Five correlated metrics per die, in :data:`SVF_METRIC_NAMES` order:
band-pass centre frequency (Hz), quality factor (from the measured
-3 dB band edges), peak band-pass gain (V/V), DC low-pass gain (V/V)
and power (W).
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

__all__ = ["GmCFilterDesign", "SVFMetrics", "GmCStateVariableFilter", "SVF_METRIC_NAMES"]

#: Metric ordering used by every returned array.
SVF_METRIC_NAMES: Tuple[str, ...] = (
    "f_center",    # Hz
    "q_factor",    # dimensionless (f_center / measured -3 dB width)
    "peak_gain",   # linear V/V at the band-pass peak
    "dc_gain_lp",  # linear V/V of the low-pass output at DC
    "power",       # W
)


@dataclass(frozen=True)
class GmCFilterDesign:
    """Sizing and bias plan of the two-integrator-loop filter.

    Defaults give a ~40 MHz, Q ~= 3 band-pass in the same 45 nm-flavoured
    behavioural process as the op-amp.
    """

    vdd: float = 1.2
    i_in: float = 20e-6     # input transconductor tail current
    i_int1: float = 20e-6   # feedback integrator tail current
    i_int2: float = 20e-6   # forward integrator tail current
    i_q: float = 8e-6       # damping (1/gm_q) cell tail current
    i_bias: float = 5e-6    # master reference current
    c_bp: float = 2.0e-12
    c_lp: float = 2.0e-12

    nmos: MosfetProcess = field(
        default_factory=lambda: MosfetProcess(vth=0.45, kp=4.0e-4, lambda_=0.15)
    )
    pmos: MosfetProcess = field(
        default_factory=lambda: MosfetProcess(vth=0.45, kp=2.0e-4, lambda_=0.20)
    )

    def devices(self) -> List[Tuple[Mosfet, str]]:
        """All transistors with their polarity, nominal (unvaried) instances.

        ``MND``/``MNB`` form the NMOS reference mirror, ``MPD`` the PMOS
        bias diode, ``MT*`` the PMOS tail sources (widths ratioed to their
        tail currents) and ``MI*`` the PMOS input pairs of the four
        transconductors (one representative device per pair).
        """
        um = 1e-6
        geo = MosfetGeometry
        ratio = 1.0 / self.i_bias
        return [
            (Mosfet("MND", geo(0.5 * um, 0.5 * um), self.nmos), "n"),
            (Mosfet("MNB", geo(0.5 * um, 0.5 * um), self.nmos), "n"),
            (Mosfet("MPD", geo(1.0 * um, 0.5 * um), self.pmos), "p"),
            (Mosfet("MT1", geo(self.i_in * ratio * um, 0.5 * um), self.pmos), "p"),
            (Mosfet("MT2", geo(self.i_int1 * ratio * um, 0.5 * um), self.pmos), "p"),
            (Mosfet("MT3", geo(self.i_int2 * ratio * um, 0.5 * um), self.pmos), "p"),
            (Mosfet("MTQ", geo(self.i_q * ratio * um, 0.5 * um), self.pmos), "p"),
            (Mosfet("MI1", geo(16 * um, 0.25 * um), self.pmos), "p"),
            (Mosfet("MI2", geo(16 * um, 0.25 * um), self.pmos), "p"),
            (Mosfet("MI3", geo(16 * um, 0.25 * um), self.pmos), "p"),
            (Mosfet("MIQ", geo(4 * um, 0.25 * um), self.pmos), "p"),
        ]


@dataclass(frozen=True)
class SVFMetrics:
    """The five measured performances of one simulated die."""

    f_center: float
    q_factor: float
    peak_gain: float
    dc_gain_lp: float
    power: float

    def as_array(self) -> np.ndarray:
        """Metrics in :data:`SVF_METRIC_NAMES` order."""
        return np.array(
            [self.f_center, self.q_factor, self.peak_gain, self.dc_gain_lp, self.power]
        )


@dataclass(frozen=True)
class _SvfParasitics:
    """Post-layout deviations (all zero at schematic level)."""

    c_bp_par: float = 0.0      # routing capacitance at the band-pass node
    c_lp_par: float = 0.0      # routing capacitance at the low-pass node
    gm_derate_rel: float = 0.0  # source-degeneration / routing gm loss
    power_overhead_rel: float = 0.0  # guard rings / bias distribution
    bias_current_rel: float = 0.0    # IR-drop-induced bias re-tune
    extraction_derate: float = 0.0   # signoff-extraction parasitic shortfall


class GmCStateVariableFilter(StampPlanSimulator):
    """Simulator for one design stage (schematic or post-layout).

    Same seam as :class:`repro.circuits.opamp.TwoStageOpAmp`: build the
    early/late pair with :meth:`schematic` / :meth:`post_layout` and feed
    both the same :class:`ProcessSample` bank.
    """

    #: Log-spaced analysis grid; brackets the band-pass peak and both
    #: -3 dB edges across corners, mismatch inflation and divergence.
    _FREQ_GRID = np.logspace(4, 10, 481)

    _VARIABLE = ("Gin", "Rq", "Cbp", "Gfb", "Gint", "Clp", "Rop1", "Rop2")

    def __init__(
        self, design: GmCFilterDesign, parasitics: Optional[_SvfParasitics] = None
    ) -> None:
        self.design = design
        self.parasitics = parasitics if parasitics is not None else _SvfParasitics()
        self._devices = design.devices()

    # ------------------------------------------------------------------
    @classmethod
    def schematic(cls, design: Optional[GmCFilterDesign] = None) -> "GmCStateVariableFilter":
        """Early-stage (pre-layout) simulator: no parasitics."""
        return cls(design if design is not None else GmCFilterDesign())

    @classmethod
    def post_layout(cls, design: Optional[GmCFilterDesign] = None) -> "GmCStateVariableFilter":
        """Late-stage simulator: extracted-parasitic equivalents included."""
        return cls(
            design if design is not None else GmCFilterDesign(),
            _SvfParasitics(
                c_bp_par=0.12e-12,
                c_lp_par=0.10e-12,
                gm_derate_rel=0.03,
                power_overhead_rel=0.08,
                bias_current_rel=0.015,
                extraction_derate=0.2,
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
    def _bias_currents(self, devs: Dict[str, Mosfet]) -> Dict[str, float]:
        """Tail currents from the cross-polarity square-law bias chain.

        The master current ``i_bias`` flows through NMOS diode ``MND``;
        ``MNB`` mirrors it and pulls the result through PMOS diode
        ``MPD``, whose gate line biases the PMOS tails.  Every stage is
        exact square law, so NMOS *and* PMOS threshold/mobility shifts
        both propagate (nonlinearly) into the tail currents.
        """
        design = self.design
        mnd = devs["MND"]
        vov_nd = math.sqrt(2.0 * design.i_bias / mnd.beta)
        vgs_n = mnd.vth_effective + vov_nd
        mnb = devs["MNB"]
        vov_nb = vgs_n - mnb.vth_effective
        if vov_nb <= 0.0:
            raise SimulationError(
                f"MNB: bias mirror output device cut off (Vov={vov_nb:.3f})"
            )
        i_pull = 0.5 * mnb.beta * vov_nb * vov_nb

        mpd = devs["MPD"]
        vov_pd = math.sqrt(2.0 * i_pull / mpd.beta)
        vsg_p = mpd.vth_effective + vov_pd

        scale = 1.0 + self.parasitics.bias_current_rel
        out: Dict[str, float] = {"bias": i_pull}
        for tail, key in (("MT1", "i_in"), ("MT2", "i_int1"), ("MT3", "i_int2"), ("MTQ", "i_q")):
            dev = devs[tail]
            vov = vsg_p - dev.vth_effective
            if vov <= 0.0:
                raise SimulationError(
                    f"{dev.name}: tail current source cut off (Vov={vov:.3f})"
                )
            out[key] = 0.5 * dev.beta * vov * vov * scale
        return out

    # ------------------------------------------------------------------
    def _macromodel(self, devs: Dict[str, Mosfet], currents: Dict[str, float]) -> Netlist:
        """Small-signal macromodel netlist for the current process draw."""
        design = self.design
        par = self.parasitics
        keep = 1.0 - par.gm_derate_rel

        gm1 = devs["MI1"].small_signal(currents["i_in"] / 2.0).gm * keep
        gm2 = devs["MI2"].small_signal(currents["i_int1"] / 2.0).gm * keep
        gm3 = devs["MI3"].small_signal(currents["i_int2"] / 2.0).gm * keep
        gmq = devs["MIQ"].small_signal(currents["i_q"] / 2.0).gm * keep

        lam = self.design.nmos.lambda_ + self.design.pmos.lambda_
        g_bp = lam * (currents["i_in"] / 2.0 + currents["i_int1"] / 2.0)
        g_lp = lam * (currents["i_int2"] / 2.0)

        net = Netlist(title="gm-C state-variable filter macromodel")
        net.voltage_source("Vin", "in", "0", 1.0)
        # Input transconductor into the band-pass node.
        net.vccs("Gin", "bp", "0", "in", "0", gm1)
        # Diode-connected damping cell: a 1/gm_q resistor.
        net.resistor("Rq", "bp", "0", 1.0 / gmq)
        net.capacitor("Cbp", "bp", "0", design.c_bp + par.c_bp_par)
        # Two-integrator loop: lp feeds back into bp (reversed control so
        # the loop is degenerative), bp integrates forward into lp.
        net.vccs("Gfb", "bp", "0", "0", "lp", gm2)
        net.vccs("Gint", "lp", "0", "bp", "0", gm3)
        net.capacitor("Clp", "lp", "0", design.c_lp + par.c_lp_par)
        # Finite output conductance of the transconductor stacks.
        net.resistor("Rop1", "bp", "0", 1.0 / g_bp)
        net.resistor("Rop2", "lp", "0", 1.0 / g_lp)
        return net

    def _netlist(self, sample: ProcessSample) -> Netlist:
        devs = self._varied_devices(sample)
        return self._macromodel(devs, self._bias_currents(devs))

    # ------------------------------------------------------------------
    # band-pass feature extraction (shared by both engines, row-wise)
    # ------------------------------------------------------------------
    def _bandpass_features(self, mag_bp: np.ndarray) -> Tuple[float, float, float]:
        """``(f_center, q_factor, peak_gain)`` from one |H_bp| row.

        The peak is refined by a log-parabola over the uniform log-f grid;
        the -3 dB edges by log-log interpolation on each side.  Used
        verbatim by the scalar and vectorized engines so their metric
        extraction is *identical* math.
        """
        grid = self._FREQ_GRID
        logf = np.log10(grid)
        y = np.log10(mag_bp)
        i = int(np.argmax(y))
        if i == 0 or i == y.size - 1:
            raise SimulationError(
                "band-pass peak at the edge of the analysis grid; "
                "the design has left the supported frequency window"
            )
        # Parabolic refinement on the uniform log-f grid.
        denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
        delta = 0.0 if denom == 0.0 else 0.5 * (y[i - 1] - y[i + 1]) / denom
        delta = float(np.clip(delta, -0.5, 0.5))
        step = logf[1] - logf[0]
        f_center = 10.0 ** (logf[i] + delta * step)
        peak_log = y[i] - 0.25 * (y[i - 1] - y[i + 1]) * delta
        peak_gain = 10.0 ** peak_log

        target = peak_log - 0.5 * math.log10(2.0)  # -3 dB in log magnitude

        def crossing(start: int, stop: int, step_dir: int) -> float:
            k = start
            while k != stop and y[k] > target:
                k += step_dir
            if y[k] > target:
                raise SimulationError(
                    "-3 dB edge outside the analysis grid; widen _FREQ_GRID"
                )
            # y[k] <= target < y[k - step_dir]: interpolate in log-log
            # between k and its neighbour toward the peak.
            k2 = k - step_dir
            frac = (target - y[k]) / (y[k2] - y[k])
            return 10.0 ** (logf[k] + frac * (logf[k2] - logf[k]))

        f_lo = crossing(i - 1, 0, -1)
        f_hi = crossing(i + 1, y.size - 1, 1)
        return f_center, f_center / (f_hi - f_lo), peak_gain

    # ------------------------------------------------------------------
    def simulate(self, sample: ProcessSample) -> SVFMetrics:
        """Measure the five metrics for one process draw."""
        devs = self._varied_devices(sample)
        currents = self._bias_currents(devs)
        net = self._macromodel(devs, currents)
        solution = ACAnalysis(net).solve(self._FREQ_GRID)
        mag_bp = np.abs(solution.transfer("bp", "in"))
        mag_lp = np.abs(solution.transfer("lp", "in"))

        f_center, q_factor, peak_gain = self._bandpass_features(mag_bp)
        design = self.design
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
        power = design.vdd * (
            total + self.parasitics.power_overhead_rel * nominal_budget
        )
        return SVFMetrics(
            f_center=f_center,
            q_factor=q_factor,
            peak_gain=peak_gain,
            dc_gain_lp=float(mag_lp[0]),
            power=power,
        )

    def simulate_nominal(self) -> SVFMetrics:
        """Nominal (variation-free) run; supplies ``P_NOM`` for Sec. 4.1.

        As with the op-amp, ``extraction_derate`` makes the nominal run
        see only a fraction of the layout parasitics — an under-capturing
        signoff deck — so the Sec. 4.1 shift cannot fully align the early
        and late means.
        """
        sim = self
        derate = self.parasitics.extraction_derate
        if derate != 0.0:
            import dataclasses

            keep = 1.0 - derate
            par = dataclasses.replace(
                self.parasitics,
                c_bp_par=self.parasitics.c_bp_par * keep,
                c_lp_par=self.parasitics.c_lp_par * keep,
                gm_derate_rel=self.parasitics.gm_derate_rel * keep,
                power_overhead_rel=self.parasitics.power_overhead_rel * keep,
                bias_current_rel=self.parasitics.bias_current_rel * keep,
                extraction_derate=0.0,
            )
            sim = GmCStateVariableFilter(self.design, par)
        model = ProcessVariationModel(0.0, 0.0, 0.0, 0.0, 0.0)
        nominal = model.nominal_sample(sim.devices)
        return sim.simulate(nominal)

    # ------------------------------------------------------------------
    # vectorized engine
    # ------------------------------------------------------------------
    def _batched_bias_currents(
        self, devs: Dict[str, Dict[str, np.ndarray]]
    ) -> Dict[str, np.ndarray]:
        """Vectorized mirror of :meth:`_bias_currents`."""
        design = self.design
        mnd = devs["MND"]
        vov_nd = np.sqrt(2.0 * design.i_bias / mnd["beta"])
        vgs_n = mnd["vth"] + vov_nd
        vov_nb = vgs_n - devs["MNB"]["vth"]
        if np.any(vov_nb <= 0.0):
            bad = int(np.argmax(vov_nb <= 0.0))
            raise SimulationError(
                f"MNB: bias mirror output device cut off "
                f"(Vov={float(vov_nb[bad]):.3f} at sample {bad})"
            )
        i_pull = 0.5 * devs["MNB"]["beta"] * vov_nb * vov_nb

        vov_pd = np.sqrt(2.0 * i_pull / devs["MPD"]["beta"])
        vsg_p = devs["MPD"]["vth"] + vov_pd

        scale = 1.0 + self.parasitics.bias_current_rel
        out: Dict[str, np.ndarray] = {"bias": i_pull}
        for tail, key in (("MT1", "i_in"), ("MT2", "i_int1"), ("MT3", "i_int2"), ("MTQ", "i_q")):
            vov = vsg_p - devs[tail]["vth"]
            if np.any(vov <= 0.0):
                bad = int(np.argmax(vov <= 0.0))
                raise SimulationError(
                    f"{tail}: tail current source cut off "
                    f"(Vov={float(vov[bad]):.3f} at sample {bad})"
                )
            out[key] = 0.5 * devs[tail]["beta"] * vov * vov * scale
        return out

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
        currents = self._batched_bias_currents(devs)
        keep = 1.0 - par.gm_derate_rel

        def pair_gm(name: str, current: np.ndarray) -> np.ndarray:
            return np.sqrt(2.0 * devs[name]["beta"] * current) * keep

        gm1 = pair_gm("MI1", currents["i_in"] / 2.0)
        gm2 = pair_gm("MI2", currents["i_int1"] / 2.0)
        gm3 = pair_gm("MI3", currents["i_int2"] / 2.0)
        gmq = pair_gm("MIQ", currents["i_q"] / 2.0)

        lam = design.nmos.lambda_ + design.pmos.lambda_
        g_bp = lam * (currents["i_in"] / 2.0 + currents["i_int1"] / 2.0)
        g_lp = lam * (currents["i_int2"] / 2.0)

        ones = np.ones(n)
        values = {
            "Gin": gm1,
            "Rq": 1.0 / gmq,
            "Cbp": (design.c_bp + par.c_bp_par) * ones,
            "Gfb": gm2,
            "Gint": gm3,
            "Clp": (design.c_lp + par.c_lp_par) * ones,
            "Rop1": 1.0 / g_bp,
            "Rop2": 1.0 / g_lp,
        }
        plan = self._stamp_plan()
        solution = plan.solve_batched(
            values,
            self._FREQ_GRID,
            memory_budget_mb=memory_budget_mb,
            outputs=["bp", "lp"],
            backend=mna_backend,
        )
        mag_bp = np.abs(solution.transfer("bp", "in"))
        mag_lp = np.abs(solution.transfer("lp", "in"))

        features = np.array([self._bandpass_features(row) for row in mag_bp])
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
        power = design.vdd * (total + par.power_overhead_rel * nominal_budget)
        return np.column_stack(
            [features[:, 0], features[:, 1], features[:, 2], mag_lp[:, 0], power]
        )
