"""AC noise analysis: output noise PSD and integrated RMS noise.

Thermal noise is the third classical small-signal analysis (after AC and
transient).  Every resistor contributes a white current-noise source of
PSD ``4 k T / R`` (A^2/Hz) across its terminals; the output noise PSD is
the sum of each source's contribution through its own transfer impedance:

    S_out(f) = sum_R  (4 k T / R) * | Z_{out,R}(f) |^2,

where ``Z_{out,R}`` is the transfer impedance from a current injected
across resistor R to the output voltage.  Each contribution is obtained by
re-solving the MNA system with a unit current source across that resistor
— the straightforward (non-adjoint) method, perfectly adequate for
macromodel-sized netlists.

Validation anchor: an RC low-pass integrates to the textbook ``kT/C``
total output noise regardless of R — the test suite checks exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional

import numpy as np

from repro.circuits.components import CurrentSource, Resistor, VoltageSource
from repro.circuits.mna import BatchedACSolution, StampPlan
from repro.circuits.netlist import Netlist
from repro.exceptions import SimulationError

__all__ = ["BOLTZMANN", "NoiseResult", "NoiseAnalysis"]

#: Boltzmann constant (J/K).
BOLTZMANN = 1.380649e-23


@dataclass(frozen=True)
class NoiseResult:
    """Output noise spectrum with per-resistor contributions."""

    freqs: np.ndarray
    #: Total output noise PSD (V^2/Hz) at each frequency.
    psd: np.ndarray
    #: Per-resistor PSD contributions, same length arrays.
    contributions: Dict[str, np.ndarray]

    def rms(self) -> float:
        """Total RMS output noise, integrating the PSD over the grid.

        Trapezoidal integration over the supplied (typically log-spaced)
        frequency grid; the grid must bracket the circuit's bandwidth for
        the number to be meaningful.
        """
        return float(np.sqrt(np.trapezoid(self.psd, self.freqs)))

    def dominant_contributor(self) -> str:
        """The resistor contributing the most integrated noise power."""
        powers = {
            name: float(np.trapezoid(contrib, self.freqs))
            for name, contrib in self.contributions.items()
        }
        return max(powers, key=powers.get)


def _solve(netlist: Netlist, freqs, outputs) -> BatchedACSolution:
    """AC solution of one fixed netlist: a one-sample stamp-plan batch."""
    return StampPlan(netlist).solve_batched(np.empty((1, 0)), freqs, outputs=outputs)


class NoiseAnalysis:
    """Thermal-noise analysis of a linear netlist.

    Parameters
    ----------
    netlist:
        The circuit.  Independent sources are zeroed for noise analysis
        (voltage sources become shorts via their branch equations with
        zero amplitude; current sources become opens), exactly as SPICE
        does.
    temperature:
        Device temperature in kelvin (default 300 K).
    """

    def __init__(self, netlist: Netlist, temperature: float = 300.0) -> None:
        if temperature <= 0.0:
            raise SimulationError(f"temperature must be > 0 K, got {temperature}")
        self.temperature = float(temperature)
        self._netlist = self._zero_sources(netlist)
        self._resistors = [
            comp for comp in self._netlist.components if isinstance(comp, Resistor)
        ]
        if not self._resistors:
            raise SimulationError("netlist has no resistors: no thermal noise")

    # ------------------------------------------------------------------
    @staticmethod
    def _zero_sources(netlist: Netlist) -> Netlist:
        """Copy the netlist with all independent sources set to zero."""
        out = Netlist(title=netlist.title)
        for comp in netlist.components:
            if isinstance(comp, VoltageSource):
                out.voltage_source(comp.name, comp.pos, comp.neg, 0.0)
            elif isinstance(comp, CurrentSource):
                # A zero current source stamps nothing; keep topology by
                # omitting it (it is an open circuit).
                continue
            else:
                out.add(comp)
        return out

    # ------------------------------------------------------------------
    def output_noise(self, out_node: Hashable, freqs) -> NoiseResult:
        """Output noise PSD at ``out_node`` over the frequency grid."""
        f = np.atleast_1d(np.asarray(freqs, dtype=float))
        if f.size < 2:
            raise SimulationError("noise analysis needs at least 2 frequencies")
        contributions: Dict[str, np.ndarray] = {}
        total = np.zeros(f.size)
        kt4 = 4.0 * BOLTZMANN * self.temperature
        for resistor in self._resistors:
            z = self._transfer_impedance(resistor, out_node, f)
            contrib = (kt4 / resistor.value) * np.abs(z) ** 2
            contributions[resistor.name] = contrib
            total += contrib
        return NoiseResult(freqs=f, psd=total, contributions=contributions)

    def _transfer_impedance(
        self, resistor: Resistor, out_node: Hashable, freqs: np.ndarray
    ) -> np.ndarray:
        """``V(out) / I`` for a unit current injected across ``resistor``."""
        probe = Netlist(title=self._netlist.title)
        for comp in self._netlist.components:
            probe.add(comp)
        probe.current_source(
            f"_inoise_{resistor.name}", resistor.pos, resistor.neg, 1.0
        )
        return _solve(probe, freqs, [out_node]).voltage(out_node)[0]

    # ------------------------------------------------------------------
    def input_referred_noise(
        self,
        out_node: Hashable,
        in_source: str,
        freqs,
        original: Optional[Netlist] = None,
    ) -> np.ndarray:
        """Input-referred noise PSD: output PSD divided by ``|H(f)|^2``.

        ``in_source`` names the voltage source in the *original* netlist
        (the one with non-zero excitation) that defines the signal path;
        ``original`` defaults to the netlist passed at construction before
        source zeroing — callers that constructed the analysis from a
        netlist with a unit AC source can omit it.
        """
        base = original if original is not None else self._original_with_unit(in_source)
        f = np.atleast_1d(np.asarray(freqs, dtype=float))
        source = base[in_source]
        h = _solve(base, f, [out_node, source.pos]).transfer(out_node, source.pos)[0]
        gain_sq = np.abs(h) ** 2
        if np.any(gain_sq <= 0.0):
            raise SimulationError("zero forward gain: cannot refer noise to input")
        return self.output_noise(out_node, f).psd / gain_sq

    def _original_with_unit(self, in_source: str) -> Netlist:
        out = Netlist(title=self._netlist.title)
        found = False
        for comp in self._netlist.components:
            if isinstance(comp, VoltageSource) and comp.name == in_source:
                out.voltage_source(comp.name, comp.pos, comp.neg, 1.0)
                found = True
            else:
                out.add(comp)
        if not found:
            raise SimulationError(f"no voltage source named {in_source!r}")
        return out
