"""Behavioural flash ADC (the paper's second test circuit).

Sec. 5.2 uses a flash analog-to-digital converter in a 0.18 um CMOS process
and measures five correlated metrics — **SNR, SINAD, SFDR, THD and power**
— at schematic level and post-layout.  This module rebuilds the experiment:

* a ``b``-bit flash converter = resistor reference ladder + ``2^b - 1``
  comparators + thermometer decode;
* every Monte-Carlo die draws per-comparator input offsets (Pelgrom-style),
  ladder resistor mismatch and comparator bias-current variation from a
  shared :class:`np.random.Generator` stream keyed by the die, so the
  schematic and post-layout variants of the *same die* are physically
  correlated;
* the dynamic metrics come from an actual coherent sine conversion followed
  by FFT analysis (:mod:`repro.circuits.testbench`) — INL-induced harmonic
  distortion, offset-induced code noise and their correlations emerge from
  the conversion, not from formulas;
* the post-layout variant adds: comparator offset inflation (routing
  asymmetry), a linear reference-ladder gradient (IR drop in the ladder
  rails), a mild input-settling compression nonlinearity (incomplete
  settling through the post-layout input network), and clock/buffer power
  overhead.  These shift all five metrics while leaving the *correlation
  structure* close to schematic level — which is why the paper finds both
  early-stage mean and covariance useful for the ADC (large optimal
  ``kappa_0`` *and* ``v_0``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.circuits.batch import DieSeedSimulator
from repro.circuits.testbench import SpectralAnalyzer, sine_record
from repro.exceptions import SimulationError

__all__ = ["FlashADCDesign", "ADCMetrics", "FlashADC", "ADC_METRIC_NAMES"]

#: Metric ordering used by every returned array.
ADC_METRIC_NAMES: Tuple[str, ...] = ("snr", "sinad", "sfdr", "thd", "power")


@dataclass(frozen=True)
class FlashADCDesign:
    """Architecture and nominal electrical parameters of the converter."""

    n_bits: int = 6
    vref: float = 1.8            # full-scale reference (0.18 um supply)
    sigma_offset: float = 4e-3   # comparator input offset std (V), schematic
    sigma_ladder_rel: float = 2e-3  # per-resistor relative mismatch std
    comparator_bias: float = 55e-6  # nominal per-comparator current (A)
    sigma_bias_rel: float = 0.07    # per-comparator bias current mismatch
    ladder_current: float = 350e-6  # reference ladder static current (A)
    noise_rms: float = 0.6e-3       # input-referred thermal noise (V rms)
    n_samples: int = 2048           # conversion record length
    n_cycles: int = 67              # coherent cycles (odd, co-prime)

    def __post_init__(self) -> None:
        if not 2 <= self.n_bits <= 12:
            raise SimulationError(f"n_bits must lie in [2, 12], got {self.n_bits}")
        if math.gcd(self.n_samples, self.n_cycles) != 1:
            raise SimulationError("n_cycles must be co-prime with n_samples")

    @property
    def n_comparators(self) -> int:
        """``2^b - 1`` comparators in the flash bank."""
        return (1 << self.n_bits) - 1

    @property
    def lsb(self) -> float:
        """Ideal code width in volts."""
        return self.vref / (1 << self.n_bits)


@dataclass(frozen=True)
class _LayoutEffects:
    """Post-layout deviations (all neutral at schematic level)."""

    offset_inflation: float = 1.0   # multiplies comparator offsets
    ladder_gradient: float = 0.0    # full-scale linear reference tilt (V)
    input_compression: float = 0.0  # 3rd-order settling compression coeff
    power_overhead_rel: float = 0.0
    extra_noise_rms: float = 0.0    # supply/substrate coupling noise (V)


@dataclass(frozen=True)
class ADCMetrics:
    """The five measured performances of one simulated die."""

    snr: float
    sinad: float
    sfdr: float
    thd: float
    power: float

    def as_array(self) -> np.ndarray:
        """Metrics in :data:`ADC_METRIC_NAMES` order."""
        return np.array([self.snr, self.sinad, self.sfdr, self.thd, self.power])


class FlashADC(DieSeedSimulator):
    """Simulator for one design stage of the flash converter.

    Every die runs :meth:`_metrics_from_rows`: a bank on the shared draw
    bank, one die (:meth:`simulate`) or the nominal die
    (:meth:`simulate_nominal`, zeroed draws) on a single row.
    """

    _METRICS = ADCMetrics

    #: Dies per vectorized sweep; sized so the working set (record bank,
    #: spectrum, power planes) stays cache-resident.
    _PIPELINE_CHUNK = 256

    def __init__(
        self, design: FlashADCDesign, layout: Optional[_LayoutEffects] = None
    ) -> None:
        self.design = design
        self.layout = layout if layout is not None else _LayoutEffects()
        self._analyzer = SpectralAnalyzer(n_harmonics=5)
        # Reusable (vin, codes) planes for the vectorized engine — repeat
        # calls at the same chunk shape skip ~8 MB of page-faulted fresh
        # allocations per chunk.  Per-instance, so the forked ``n_jobs``
        # workers each own their scratch; not safe for concurrent threaded
        # calls on one instance (nothing else about the class is either).
        self._scratch: dict = {}

    # ------------------------------------------------------------------
    @classmethod
    def schematic(cls, design: Optional[FlashADCDesign] = None) -> "FlashADC":
        """Early-stage simulator: ideal layout."""
        return cls(design if design is not None else FlashADCDesign())

    @classmethod
    def post_layout(cls, design: Optional[FlashADCDesign] = None) -> "FlashADC":
        """Late-stage simulator with extracted layout effects."""
        return cls(
            design if design is not None else FlashADCDesign(),
            _LayoutEffects(
                offset_inflation=1.01,
                ladder_gradient=0.12e-3,
                input_compression=0.0,
                power_overhead_rel=0.12,
                extra_noise_rms=0.02e-3,
            ),
        )

    # ------------------------------------------------------------------
    # per-die draw layout (single standard_normal stream, fixed order):
    #   offset z   [0, n_cmp)                 comparator input offsets
    #   ladder z   [n_cmp, 2 n_cmp + 1)       reference-ladder resistors
    #   bias z     [2 n_cmp + 1, 3 n_cmp + 1) comparator bias currents
    #   noise z    [3 n_cmp + 1, stride)      per-conversion input noise
    # The raw draws are stage-independent; stage scaling happens below, so
    # the same die produces correlated early/late metrics.
    @property
    def _stride(self) -> int:
        return 3 * self.design.n_comparators + 1 + self.design.n_samples

    def _split_draws(
        self, z: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(offsets_z, ladder_z, bias_z, noise_z)`` views of draw rows."""
        n_cmp = self.design.n_comparators
        return (
            z[..., :n_cmp],
            z[..., n_cmp : 2 * n_cmp + 1],
            z[..., 2 * n_cmp + 1 : 3 * n_cmp + 1],
            z[..., 3 * n_cmp + 1 :],
        )

    def _bytes_per_die(self) -> int:
        """Record + noise + codes (float) and the rfft spectrum (complex),
        with headroom for the power bookkeeping."""
        return self.design.n_samples * 8 * 12

    def _thresholds(
        self, offsets_z: np.ndarray, ladder_z: np.ndarray
    ) -> np.ndarray:
        """Actual comparator trip points including every mismatch source."""
        design = self.design
        layout = self.layout
        n_cmp = design.n_comparators
        # Reference ladder: n_cmp + 1 nominally equal resistors; tap k sits
        # at the cumulative fraction of total resistance.
        resistors = 1.0 + design.sigma_ladder_rel * ladder_z
        resistors = np.maximum(resistors, 0.1)
        cumulative = np.cumsum(resistors)[:-1]
        taps = design.vref * cumulative / float(np.sum(resistors))
        # Post-layout IR-drop gradient tilts the ladder linearly.
        if layout.ladder_gradient != 0.0:
            frac = np.arange(1, n_cmp + 1) / (n_cmp + 1)
            taps = taps + layout.ladder_gradient * (frac - 0.5)
        offsets = design.sigma_offset * layout.offset_inflation * offsets_z
        return taps + offsets

    def _thresholds_batch(
        self, offsets_z: np.ndarray, ladder_z: np.ndarray
    ) -> np.ndarray:
        """Row-wise :meth:`_thresholds` for ``(n_dies, ...)`` draw banks.

        Mirrors the scalar expressions with ``axis=1`` reductions so each
        row is bit-identical to a scalar call on the same draws.
        """
        design = self.design
        layout = self.layout
        n_cmp = design.n_comparators
        resistors = 1.0 + design.sigma_ladder_rel * ladder_z
        resistors = np.maximum(resistors, 0.1)
        cumulative = np.cumsum(resistors, axis=1)[:, :-1]
        taps = design.vref * cumulative / np.sum(resistors, axis=1, keepdims=True)
        if layout.ladder_gradient != 0.0:
            frac = np.arange(1, n_cmp + 1) / (n_cmp + 1)
            taps = taps + layout.ladder_gradient * (frac - 0.5)
        offsets = design.sigma_offset * layout.offset_inflation * offsets_z
        return taps + offsets

    def _input_record(self) -> np.ndarray:
        """Deterministic input drive: near-full-scale coherent sine.

        The same record drives every die (per-die noise is added by the
        caller), including the post-layout settling compression.
        """
        design = self.design
        layout = self.layout
        amplitude = 0.49 * design.vref
        mid = 0.5 * design.vref
        vin = sine_record(design.n_samples, design.n_cycles, amplitude, offset=mid)
        if layout.input_compression != 0.0:
            # Incomplete settling through the post-layout input RC network
            # compresses large swings: v' = v - a * v_ac^3 (odd-order term
            # generating 3rd-harmonic distortion).
            ac = vin - mid
            vin = vin - layout.input_compression * (ac / amplitude) ** 3 * ac
        return vin

    def measure_linearity(self, die_seed: int):
        """Static INL/DNL of one die's transfer curve (end-point fit).

        Complements the dynamic metrics of :meth:`simulate`; the lab
        equivalent is a ramp or histogram test.  Returns a
        :class:`repro.circuits.linearity.LinearityResult`.
        """
        from repro.circuits.linearity import inl_dnl_from_levels

        offsets_z, ladder_z, _, _ = self._split_draws(self._die_row(die_seed)[0])
        thresholds = np.sort(self._thresholds(offsets_z, ladder_z))
        return inl_dnl_from_levels(thresholds)

    def _metrics_from_rows(self, z: np.ndarray) -> np.ndarray:
        """Convert every die of a block of draw rows through stacked sweeps."""
        design = self.design
        layout = self.layout
        n_dies = z.shape[0]
        n_cmp = design.n_comparators
        n_rec = design.n_samples
        offsets_z, ladder_z, bias_z, noise_z = self._split_draws(z)

        thresholds = np.sort(self._thresholds_batch(offsets_z, ladder_z), axis=1)

        base = self._input_record()
        noise_rms = math.hypot(design.noise_rms, layout.extra_noise_rms)
        shape = (n_dies, n_rec)
        if shape not in self._scratch:
            self._scratch = {shape: (np.empty(shape), np.empty(shape))}
        vin, codes = self._scratch[shape]
        # `noise_z` aliases the cached (read-only) bank: scale into the
        # scratch plane, then add the shared record in place on the copy.
        np.multiply(noise_z, noise_rms, out=vin)
        vin += base

        # Per-die searchsorted: measured ~2x faster here than the SAR ADC's
        # staircase lookup, whose straight-line first guess lands several
        # codes off once comparator offsets reorder the trip points.
        for i in range(n_dies):
            codes[i] = thresholds[i].searchsorted(vin[i], side="left")

        spectral = self._analyzer.analyze_batch(codes, design.n_cycles)

        bias = design.comparator_bias * (1.0 + design.sigma_bias_rel * bias_z)
        bias = np.maximum(bias, 0.0)
        supply = design.vref
        nominal_core = n_cmp * design.comparator_bias + design.ladder_current
        power = supply * (
            np.sum(bias, axis=1)
            + design.ladder_current
            + layout.power_overhead_rel * nominal_core
        )
        return np.column_stack(
            [spectral.snr, spectral.sinad, spectral.sfdr, spectral.thd, power]
        )
