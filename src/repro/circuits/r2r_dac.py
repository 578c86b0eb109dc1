"""Behavioural R-2R ladder DAC (scenario-library circuit block).

A ``b``-bit voltage-mode R-2R ladder: ``b`` branch resistors of ``2R``
(each switched between ground and ``vref`` through a real switch
resistance), ``b - 1`` rung resistors of ``R`` and a ``2R`` terminator.
The output node (MSB side) drives a high-impedance buffer.  Nothing is
idealised away:

* every resistor and switch carries per-die mismatch drawn from the
  shared die-seed stream (:mod:`repro.circuits.dies`), so schematic and
  post-layout runs of the same die are physically correlated;
* the transfer curve comes from an exact nodal solve of the mismatched
  ladder — a batched Thomas (tridiagonal) factorisation per die, solved
  for the ``b`` unit-bit right-hand sides; the node voltages are linear
  in the code bits, so every code's level follows by superposition — and
  DNL/INL and non-monotonicity *emerge* from the resistor network;
* the post-layout variant adds a systematic resistor gradient along the
  ladder (metal/poly sheet-resistance drift), higher switch resistance
  (contact/via stacks), a mismatch inflation, an output-wiring offset and
  a power overhead.

Five correlated metrics per die, in :data:`R2R_DAC_METRIC_NAMES` order:
worst |DNL| and |INL| (LSB, end-point fit on the code-ordered levels —
see :func:`repro.circuits.linearity.inl_dnl_from_dac_levels`), gain
error (relative), output offset (V) and power (W).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.circuits.batch import DieSeedSimulator, code_levels
from repro.circuits.linearity import LinearityResult, inl_dnl_from_dac_levels
from repro.exceptions import SimulationError

__all__ = ["R2RDACDesign", "R2RDACMetrics", "R2RLadderDAC", "R2R_DAC_METRIC_NAMES"]

#: Metric ordering used by every returned array.
R2R_DAC_METRIC_NAMES: Tuple[str, ...] = (
    "dnl_max",      # LSB
    "inl_max",      # LSB
    "gain_error",   # relative full-scale error
    "offset",       # V
    "power",        # W
)


@dataclass(frozen=True)
class R2RDACDesign:
    """Architecture and nominal electrical parameters of the ladder."""

    n_bits: int = 8
    vref: float = 1.8
    r_unit: float = 10e3         # ladder "R" (ohms)
    sigma_r_rel: float = 1.2e-3  # per-resistor relative mismatch std
    r_switch: float = 120.0      # switch on-resistance (ohms)
    sigma_switch_rel: float = 0.08  # per-switch relative mismatch std
    sigma_offset: float = 0.8e-3    # output buffer input offset std (V)
    buffer_current: float = 150e-6  # output buffer bias (A)
    sigma_bias_rel: float = 0.05    # buffer bias mismatch

    def __post_init__(self) -> None:
        if not 4 <= self.n_bits <= 12:
            raise SimulationError(f"n_bits must lie in [4, 12], got {self.n_bits}")
        if self.r_unit <= 0.0 or self.r_switch < 0.0:
            raise SimulationError("ladder resistances must be positive")

    @property
    def n_codes(self) -> int:
        """``2^b`` input codes."""
        return 1 << self.n_bits

    @property
    def lsb(self) -> float:
        """Ideal output step in volts."""
        return self.vref / self.n_codes


@dataclass(frozen=True)
class _R2RLayoutEffects:
    """Post-layout deviations (all neutral at schematic level)."""

    mismatch_inflation: float = 1.0  # multiplies resistor/offset mismatch
    gradient_rel: float = 0.0        # full-ladder linear resistor drift
    switch_derate: float = 0.0       # relative switch-resistance increase
    offset_v: float = 0.0            # output wiring/buffer systematic offset
    power_overhead_rel: float = 0.0


@dataclass(frozen=True)
class R2RDACMetrics:
    """The five measured performances of one simulated die."""

    dnl_max: float
    inl_max: float
    gain_error: float
    offset: float
    power: float

    def as_array(self) -> np.ndarray:
        """Metrics in :data:`R2R_DAC_METRIC_NAMES` order."""
        return np.array(
            [self.dnl_max, self.inl_max, self.gain_error, self.offset, self.power]
        )


class R2RLadderDAC(DieSeedSimulator):
    """Simulator for one design stage of the R-2R converter."""

    _METRICS = R2RDACMetrics

    def __init__(
        self, design: R2RDACDesign, layout: Optional[_R2RLayoutEffects] = None
    ) -> None:
        self.design = design
        self.layout = layout if layout is not None else _R2RLayoutEffects()

    # ------------------------------------------------------------------
    @classmethod
    def schematic(cls, design: Optional[R2RDACDesign] = None) -> "R2RLadderDAC":
        """Early-stage simulator: ideal layout."""
        return cls(design if design is not None else R2RDACDesign())

    @classmethod
    def post_layout(cls, design: Optional[R2RDACDesign] = None) -> "R2RLadderDAC":
        """Late-stage simulator with extracted layout effects."""
        return cls(
            design if design is not None else R2RDACDesign(),
            _R2RLayoutEffects(
                mismatch_inflation=1.03,
                gradient_rel=1.5e-3,
                switch_derate=0.18,
                offset_v=0.6e-3,
                power_overhead_rel=0.08,
            ),
        )

    # ------------------------------------------------------------------
    # per-die draw layout (single standard_normal stream, fixed order):
    #   branch z   [0, b)          2R branch resistor mismatch
    #   rung z     [b, 2b-1)       R rung resistor mismatch
    #   term z     [2b-1]          2R terminator mismatch
    #   switch z   [2b, 3b)        switch on-resistance mismatch
    #   bias z     [3b]            buffer bias mismatch
    #   offset z   [3b+1]          buffer input offset
    @property
    def _stride(self) -> int:
        return 3 * self.design.n_bits + 2

    def _conductances(
        self, z: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ladder conductances of each die from its draw rows ``(n, stride)``.

        Returns ``(g_branch, g_rung, g_term)`` with shapes ``(n, b)``,
        ``(n, b-1)`` and ``(n,)``.  Branch conductance includes the switch
        in series.  The layout gradient tilts every resistor linearly with
        its position along the ladder (terminator at -1/2, MSB at +1/2).
        """
        design = self.design
        layout = self.layout
        b = design.n_bits
        infl = layout.mismatch_inflation
        sig_r = design.sigma_r_rel * infl

        # Positions along the physical ladder: terminator, then rung i
        # between nodes i and i+1, with branch i adjacent to node i.
        pos_branch = (np.arange(b) / max(b - 1, 1)) - 0.5
        pos_rung = ((np.arange(b - 1) + 0.5) / max(b - 1, 1)) - 0.5

        grad_b = 1.0 + layout.gradient_rel * pos_branch
        grad_r = 1.0 + layout.gradient_rel * pos_rung
        grad_t = 1.0 - 0.5 * layout.gradient_rel

        r2 = 2.0 * design.r_unit
        branch_r = r2 * (1.0 + sig_r * z[:, :b]) * grad_b
        rung_r = design.r_unit * (1.0 + sig_r * z[:, b : 2 * b - 1]) * grad_r
        term_r = r2 * (1.0 + sig_r * z[:, 2 * b - 1]) * grad_t

        r_sw = design.r_switch * (1.0 + layout.switch_derate)
        switch_r = r_sw * (1.0 + design.sigma_switch_rel * z[:, 2 * b : 3 * b])

        branch_total = np.maximum(branch_r + switch_r, 0.05 * r2)
        rung_r = np.maximum(rung_r, 0.05 * design.r_unit)
        term_r = np.maximum(term_r, 0.05 * r2)
        return 1.0 / branch_total, 1.0 / rung_r, 1.0 / term_r

    def _ladder_levels(
        self, g_branch: np.ndarray, g_rung: np.ndarray, g_term: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Output voltage of every (die, code) pair, by superposition.

        The conductance matrix is tridiagonal and does not depend on the
        code, and the right-hand side is ``bit_i * g_branch_i * vref``, so
        the node voltages are linear in the bits.  One Thomas
        factorisation per die, solved for the ``b`` unit-bit right-hand
        sides, gives ``H[d, j, k]``: node ``k``'s voltage with only bit
        ``j`` high.  Every level is then ``bits @ H[d, :, b-1]``, summed by
        :func:`repro.circuits.batch.code_levels`.

        The reference-rail current of a code, ``sum_i bit_i g_i (vref -
        v_i)``, is quadratic in the bits; averaged over all codes
        (``E[bit_i] = 1/2``, ``E[bit_i bit_j] = 1/4`` for ``i != j``) it is
        ``sum_i g_i (vref/2 - H_ii/4 - sum_j H_ji/4)``.

        Returns ``(levels, i_ref)``: output voltages ``(n, n_codes)`` and
        the code-averaged reference-rail current per die ``(n,)``.
        """
        design = self.design
        b = design.n_bits
        n = g_branch.shape[0]

        # Tridiagonal coefficients per die: diag d_i, off-diagonal -g_rung.
        diag = g_branch.copy()
        diag[:, 0] += g_term
        if b > 1:
            diag[:, :-1] += g_rung
            diag[:, 1:] += g_rung

        # Thomas factorisation (die-wise, b is tiny).
        denom = np.empty((n, b))
        w = np.zeros((n, b))
        denom[:, 0] = diag[:, 0]
        for i in range(1, b):
            w[:, i] = -g_rung[:, i - 1] / denom[:, i - 1]
            denom[:, i] = diag[:, i] + w[:, i] * g_rung[:, i - 1]

        # Unit-bit right-hand sides: rhs[d, j, i] = [i == j] * gb_dj * vref.
        rhs = np.zeros((n, b, b))
        rhs[:, np.arange(b), np.arange(b)] = g_branch * design.vref

        # Forward elimination / back substitution over (die, bit) pairs.
        y = np.empty((n, b, b))
        y[:, :, 0] = rhs[:, :, 0]
        for i in range(1, b):
            y[:, :, i] = rhs[:, :, i] - w[:, i, None] * y[:, :, i - 1]
        h = np.empty((n, b, b))
        h[:, :, b - 1] = y[:, :, b - 1] / denom[:, b - 1, None]
        for i in range(b - 2, -1, -1):
            h[:, :, i] = (y[:, :, i] + g_rung[:, i, None] * h[:, :, i + 1]) / denom[
                :, i, None
            ]

        levels = code_levels(h[:, :, b - 1])
        i_ref = np.sum(
            g_branch
            * (
                0.5 * design.vref
                - 0.25 * np.diagonal(h, axis1=1, axis2=2)
                - 0.25 * np.sum(h, axis=1)
            ),
            axis=1,
        )
        return levels, i_ref

    # ------------------------------------------------------------------
    def _output_levels(self, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Buffered output per code ``(n, n_codes)`` and ``i_ref`` ``(n,)``."""
        levels, i_ref = self._ladder_levels(*self._conductances(z))
        offset = (
            self.design.sigma_offset
            * self.layout.mismatch_inflation
            * z[:, 3 * self.design.n_bits + 1]
            + self.layout.offset_v
        )
        return levels + offset[:, None], i_ref

    def _metrics_from_rows(self, z: np.ndarray) -> np.ndarray:
        """Metrics matrix for a bank of draw rows ``(n, stride)``."""
        design = self.design
        layout = self.layout
        b = design.n_bits
        levels, i_ref = self._output_levels(z)

        # End-point linearity on the code-ordered curve (vectorized mirror
        # of inl_dnl_from_dac_levels; no sorting — see that function).
        span = levels[:, -1] - levels[:, 0]
        if np.any(span <= 0.0):
            raise SimulationError("degenerate ladder: non-positive full scale")
        lsb = span / (design.n_codes - 1)
        ideal = levels[:, :1] + lsb[:, None] * np.arange(design.n_codes)
        inl = (levels - ideal) / lsb[:, None]
        dnl = np.diff(levels, axis=1) / lsb[:, None] - 1.0
        dnl_max = np.max(np.abs(dnl), axis=1)
        inl_max = np.max(np.abs(inl), axis=1)

        ideal_span = design.vref * (design.n_codes - 1) / design.n_codes
        gain_error = span / ideal_span - 1.0
        out_offset = levels[:, 0]

        bias = design.buffer_current * (1.0 + design.sigma_bias_rel * z[:, 3 * b])
        bias = np.maximum(bias, 0.0)
        nominal_core = design.buffer_current + design.vref / (2.0 * design.r_unit)
        power = design.vref * (
            i_ref + bias + layout.power_overhead_rel * nominal_core
        )
        return np.column_stack([dnl_max, inl_max, gain_error, out_offset, power])

    def _bytes_per_die(self) -> int:
        """Working set: the ``(b, b)`` solve planes plus ~6 code rows."""
        design = self.design
        return (4 * design.n_bits**2 + 6 * design.n_codes) * 8

    # ------------------------------------------------------------------
    def transfer_levels(self, die_seed: int) -> np.ndarray:
        """Output voltage per input code for one die (``(2^b,)``)."""
        return self._output_levels(self._die_row(die_seed))[0][0]

    def measure_linearity(self, die_seed: int) -> LinearityResult:
        """Static INL/DNL of one die's code-ordered transfer curve."""
        return inl_dnl_from_dac_levels(self.transfer_levels(die_seed))
