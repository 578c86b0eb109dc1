"""Linear transient analysis on the MNA stamps (trapezoidal integration).

The AC solver answers "what is the frequency response"; validation labs
also ask time-domain questions — settling time to a step, overshoot,
ringing.  For the linear macromodels used throughout this package the
transient problem is the linear DAE

    C x'(t) + G x(t) = b * u(t),

with ``G``, ``C``, ``b`` exactly the matrices the AC solver stamps
(:meth:`~repro.circuits.mna.StampPlan.assemble_batched` of a one-sample
batch) and ``u(t)`` a scalar source
waveform scaling the excitation vector.  The trapezoidal rule (SPICE's
default) gives the unconditionally-stable update

    (C/h + G/2) x_{n+1} = (C/h - G/2) x_n + b (u_n + u_{n+1}) / 2.

One LU-factorisation is reused for the whole run (fixed step), so a
10k-point transient of a 5-node macromodel costs milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional

import numpy as np

from repro.circuits.mna import StampPlan
from repro.circuits.netlist import Netlist
from repro.exceptions import SimulationError

__all__ = ["TransientResult", "TransientAnalysis", "step", "sine"]


def step(t0: float = 0.0) -> Callable[[np.ndarray], np.ndarray]:
    """Unit step waveform ``u(t) = 1[t >= t0]``."""

    def waveform(t: np.ndarray) -> np.ndarray:
        return (t >= t0).astype(float)

    return waveform


def sine(freq: float, phase: float = 0.0) -> Callable[[np.ndarray], np.ndarray]:
    """Unit sine waveform ``u(t) = sin(2 pi f t + phase)``."""
    if freq <= 0.0:
        raise SimulationError(f"sine frequency must be > 0, got {freq}")

    def waveform(t: np.ndarray) -> np.ndarray:
        return np.sin(2.0 * np.pi * freq * t + phase)

    return waveform


@dataclass(frozen=True)
class TransientResult:
    """Waveforms of one transient run."""

    times: np.ndarray
    _solution: np.ndarray
    _node_map: Dict[Hashable, int]

    def voltage(self, node: Hashable) -> np.ndarray:
        """Voltage waveform of ``node`` (zeros for ground)."""
        if node == "0":
            return np.zeros_like(self.times)
        try:
            idx = self._node_map[node]
        except KeyError as exc:
            raise SimulationError(f"unknown node {node!r}") from exc
        return self._solution[:, idx]

    # ------------------------------------------------------------------
    def settling_time(
        self, node: Hashable, tolerance: float = 0.01
    ) -> float:
        """First time after which the waveform stays within ``tolerance``
        (relative) of its final value.

        Raises when the waveform has not settled by the end of the run —
        a truncated transient must not silently report a wrong number.
        """
        if not 0.0 < tolerance < 1.0:
            raise SimulationError(f"tolerance must lie in (0, 1), got {tolerance}")
        v = self.voltage(node)
        final = float(v[-1])
        band = tolerance * max(abs(final), 1e-30)
        outside = np.nonzero(np.abs(v - final) > band)[0]
        if outside.size == 0:
            return float(self.times[0])
        last_out = int(outside[-1])
        # The last sample equals `final` by construction, so a waveform
        # that is still moving leaves the band until almost the end.
        # Demand a settled tail of at least 5% of the run before trusting
        # the settling time.
        if last_out >= int(0.95 * v.size):
            raise SimulationError(
                "waveform still outside the settling band near the end of "
                "the run; extend t_stop"
            )
        return float(self.times[last_out + 1])

    def overshoot(self, node: Hashable) -> float:
        """Peak overshoot relative to the final value (0 = none).

        Defined for step-like responses: ``max(v) / v_final - 1`` when the
        final value is positive (sign-flipped otherwise).
        """
        v = self.voltage(node)
        final = float(v[-1])
        if final == 0.0:
            raise SimulationError("overshoot undefined for zero final value")
        peak = float(np.max(v * np.sign(final)))
        return max(peak / abs(final) - 1.0, 0.0)


class TransientAnalysis:
    """Fixed-step trapezoidal transient simulator for a linear netlist.

    Parameters
    ----------
    netlist:
        The circuit; sources' amplitudes are scaled by the run's waveform.
    """

    def __init__(self, netlist: Netlist) -> None:
        g, c, b = StampPlan(netlist).assemble_batched(np.empty((1, 0)))
        self._g, self._c, self._b = g[0], c[0], np.real(b)
        self.netlist = netlist
        self._node_map = {
            node: netlist.node_index(node)
            for comp in netlist.components
            for node in comp.nodes()
            if node != "0"
        }

    # ------------------------------------------------------------------
    def run(
        self,
        t_stop: float,
        dt: float,
        waveform: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        x0: Optional[np.ndarray] = None,
    ) -> TransientResult:
        """Integrate from 0 to ``t_stop`` with step ``dt``.

        ``waveform`` scales the assembled excitation vector (default: unit
        step at t=0).  ``x0`` is the initial state (default: all zeros —
        capacitors discharged, inductor currents zero).
        """
        if t_stop <= 0.0 or dt <= 0.0:
            raise SimulationError("t_stop and dt must be positive")
        n_steps = int(round(t_stop / dt))
        if n_steps < 2:
            raise SimulationError("transient needs at least 2 time steps")
        if n_steps > 5_000_000:
            raise SimulationError(
                f"{n_steps} steps requested; raise dt or lower t_stop"
            )
        times = np.arange(n_steps + 1) * dt
        u = (waveform if waveform is not None else step())(times)

        g, c, b = self._g, self._c, self._b
        size = g.shape[0]
        state = np.zeros(size) if x0 is None else np.asarray(x0, dtype=float).copy()
        if state.shape != (size,):
            raise SimulationError(f"x0 must have shape ({size},)")

        from scipy.linalg import lu_factor, lu_solve

        lhs = c / dt + g / 2.0
        rhs_mat = c / dt - g / 2.0
        try:
            lu = lu_factor(lhs)
        except (ValueError, np.linalg.LinAlgError) as exc:  # singular/non-finite lhs
            raise SimulationError("singular transient system matrix") from exc

        out = np.empty((n_steps + 1, size))
        out[0] = state
        for k in range(n_steps):
            rhs = rhs_mat @ state + b * (u[k] + u[k + 1]) / 2.0
            state = lu_solve(lu, rhs)
            out[k + 1] = state
        if not np.all(np.isfinite(out)):
            raise SimulationError("transient solution diverged")
        return TransientResult(times=times, _solution=out, _node_map=self._node_map)
