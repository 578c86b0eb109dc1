"""Behavioural charge-redistribution SAR ADC (scenario-library block).

A ``b``-bit successive-approximation converter with a binary-weighted
capacitor DAC: unit-cap mismatch (Pelgrom ``1/sqrt(C)`` scaling), a
termination cap, comparator input offset and thermal noise, converting a
coherent near-full-scale sine.  The SAR search runs against the *real*
mismatched capacitor weights, so DNL discontinuities at major carries,
missing codes and their SNDR/SFDR signatures all emerge from the search —
nothing is injected at the metric level.  The search is read from each
die's level staircase (see :meth:`SarADC._convert`), which returns the
bit-by-bit search's codes exactly.

The post-layout stage adds top-plate parasitic capacitance (attenuating
the DAC reference steps), inflated cap mismatch, a comparator offset
shift, incomplete-settling compression of the input (odd-order
distortion) and extra noise/power — the early/late divergence structure
the BMF fusion exploits.

Five correlated metrics per die, in :data:`SAR_ADC_METRIC_NAMES` order:
SNR, SINAD, SFDR, THD (dB/dBc via the IEEE 1241 coherent-FFT procedure in
:mod:`repro.circuits.testbench`) and power (W).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.circuits.batch import DieSeedSimulator, code_levels
from repro.circuits.testbench import SpectralAnalyzer, sine_record
from repro.exceptions import SimulationError

__all__ = ["SarADCDesign", "SarADCMetrics", "SarADC", "SAR_ADC_METRIC_NAMES"]

#: Metric ordering used by every returned array.
SAR_ADC_METRIC_NAMES: Tuple[str, ...] = (
    "snr",    # dB
    "sinad",  # dB
    "sfdr",   # dBc
    "thd",    # dBc
    "power",  # W
)


@dataclass(frozen=True)
class SarADCDesign:
    """Architecture and nominal electrical parameters of the converter."""

    n_bits: int = 10
    vref: float = 1.2
    sigma_cap_unit_rel: float = 2e-3   # unit-cap relative mismatch std
    sigma_comp_offset: float = 0.8e-3  # comparator input offset std (V)
    noise_rms: float = 0.25e-3         # input-referred noise (V rms)
    comparator_current: float = 35e-6  # comparator + SAR logic bias (A)
    dac_switch_current: float = 18e-6  # average CDAC switching current (A)
    sigma_bias_rel: float = 0.06       # bias-branch mismatch
    n_samples: int = 2048              # conversions per record
    n_cycles: int = 67                 # coherent cycles (odd, co-prime)

    def __post_init__(self) -> None:
        if not 4 <= self.n_bits <= 14:
            raise SimulationError(f"n_bits must lie in [4, 14], got {self.n_bits}")
        if math.gcd(self.n_samples, self.n_cycles) != 1:
            raise SimulationError("n_cycles must be co-prime with n_samples")

    @property
    def n_codes(self) -> int:
        """``2^b`` output codes."""
        return 1 << self.n_bits


@dataclass(frozen=True)
class _SarLayoutEffects:
    """Post-layout deviations (all neutral at schematic level)."""

    cap_mismatch_inflation: float = 1.0  # multiplies unit-cap mismatch
    parasitic_cap_rel: float = 0.0       # top-plate parasitic / total ideal
    offset_shift: float = 0.0            # systematic comparator offset (V)
    settle_compression: float = 0.0      # odd-order settling distortion
    power_overhead_rel: float = 0.0
    extra_noise_rms: float = 0.0


@dataclass(frozen=True)
class SarADCMetrics:
    """The five measured performances of one simulated die."""

    snr: float
    sinad: float
    sfdr: float
    thd: float
    power: float

    def as_array(self) -> np.ndarray:
        """Metrics in :data:`SAR_ADC_METRIC_NAMES` order."""
        return np.array([self.snr, self.sinad, self.sfdr, self.thd, self.power])


class SarADC(DieSeedSimulator):
    """Simulator for one design stage of the SAR converter."""

    _METRICS = SarADCMetrics

    def __init__(
        self, design: SarADCDesign, layout: Optional[_SarLayoutEffects] = None
    ) -> None:
        self.design = design
        self.layout = layout if layout is not None else _SarLayoutEffects()
        self._analyzer = SpectralAnalyzer()

    # ------------------------------------------------------------------
    @classmethod
    def schematic(cls, design: Optional[SarADCDesign] = None) -> "SarADC":
        """Early-stage simulator: ideal layout."""
        return cls(design if design is not None else SarADCDesign())

    @classmethod
    def post_layout(cls, design: Optional[SarADCDesign] = None) -> "SarADC":
        """Late-stage simulator with extracted layout effects."""
        return cls(
            design if design is not None else SarADCDesign(),
            _SarLayoutEffects(
                cap_mismatch_inflation=1.015,
                parasitic_cap_rel=0.02,
                offset_shift=0.5e-3,
                settle_compression=0.01,
                power_overhead_rel=0.10,
                extra_noise_rms=0.05e-3,
            ),
        )

    # ------------------------------------------------------------------
    # per-die draw layout (single standard_normal stream, fixed order):
    #   cap z     [0, b+1)                 binary caps (LSB first) + termination
    #   offset z  [b+1]                    comparator input offset
    #   bias z    [b+2], [b+3]             comparator / CDAC switching bias
    #   noise z   [b+4, b+4+n_samples)     per-conversion input noise
    @property
    def _stride(self) -> int:
        return self.design.n_bits + 4 + self.design.n_samples

    def _dac_weights(self, cap_z: np.ndarray) -> np.ndarray:
        """Per-die CDAC bit weights ``(n, b)`` from cap draws ``(n, b+1)``.

        Bit ``i``'s capacitor is ``2^i`` units; its *relative* mismatch
        shrinks as ``1/sqrt(2^i)`` (Pelgrom: larger caps average more unit
        devices).  The weight of bit ``i`` is its capacitance over the
        total array capacitance including the termination cap and any
        top-plate parasitic.
        """
        design = self.design
        b = design.n_bits
        exps = np.exp2(np.arange(b))
        sig = design.sigma_cap_unit_rel * self.layout.cap_mismatch_inflation
        caps = exps * (1.0 + sig / np.sqrt(exps) * cap_z[:, :b])
        term = 1.0 + sig * cap_z[:, b]
        total = (
            np.sum(caps, axis=1)
            + term
            + self.layout.parasitic_cap_rel * design.n_codes
        )
        return caps / total[:, None]

    def _input_record(self) -> np.ndarray:
        """Deterministic input drive: near-full-scale coherent sine."""
        design = self.design
        layout = self.layout
        amplitude = 0.49 * design.vref
        mid = 0.5 * design.vref
        vin = sine_record(design.n_samples, design.n_cycles, amplitude, offset=mid)
        if layout.settle_compression != 0.0:
            # Incomplete CDAC/track settling compresses large swings
            # (odd-order term generating 3rd-harmonic distortion).
            ac = vin - mid
            vin = vin - layout.settle_compression * (ac / amplitude) ** 3 * ac
        return vin

    def _convert(self, weights: np.ndarray, vcmp: np.ndarray) -> np.ndarray:
        """SAR search of every (die, conversion) pair, read from a staircase.

        ``weights`` is ``(n, b)``; ``vcmp`` is ``(n, n_samples)`` — the
        noisy, offset-shifted comparator input.  Returns float codes.

        The search keeps bit ``i`` when ``vcmp >= (acc + w_i) * vref``, so
        it is monotone in its input.  With non-negative weights — even when
        the DAC is non-monotone or has missing codes — ``code(v) >= c``
        exactly when ``v >= theta_c = min_{c' >= c} level(c') * vref``,
        where ``level`` is the die's DAC output accumulated MSB first as
        the search accumulates it (:func:`~repro.circuits.batch.code_levels`).
        So the codes are those of the bit-by-bit search, bit for bit; with
        ideal weights they reduce to ``floor(vin * 2^b / vref)``.
        """
        if np.any(weights < 0.0):
            raise SimulationError(
                "SAR CDAC has a negative bit weight; the staircase lookup "
                "needs non-negative weights"
            )
        n = weights.shape[0]
        m = self.design.n_codes
        # theta[:, c] for c in [1, m); NaN pads (every comparison false)
        # keep codes 0 and m - 1 from stepping out of range.
        theta = np.full((n, m + 1), np.nan)
        trips = code_levels(weights) * self.design.vref
        np.minimum.accumulate(trips[:, :0:-1], axis=1, out=theta[:, m - 1 : 0 : -1])
        # First guess: the straight line through the die's outer transitions.
        span = theta[:, m - 1] - theta[:, 1]
        lsb = np.where(span > 0.0, span / (m - 2), self.design.vref / m)
        guess = vcmp - theta[:, 1:2]
        guess /= lsb[:, None]
        guess += 1.0
        np.floor(guess, out=guess)
        np.fmax(guess, 0.0, out=guess)  # fmax/fmin map a NaN input to code 0
        np.fmin(guess, m - 1.0, out=guess)
        return _read_staircase(theta, vcmp, guess.astype(np.int64)).astype(float)

    def _metrics_from_rows(self, z: np.ndarray) -> np.ndarray:
        """Metrics matrix for a bank of draw rows ``(n, stride)``."""
        design = self.design
        layout = self.layout
        b = design.n_bits

        weights = self._dac_weights(z[:, : b + 1])
        offset = design.sigma_comp_offset * z[:, b + 1] + layout.offset_shift

        vin = self._input_record()
        noise_rms = math.hypot(design.noise_rms, layout.extra_noise_rms)
        vcmp = vin[None, :] + noise_rms * z[:, b + 4 :] + offset[:, None]
        codes = self._convert(weights, vcmp)
        spectral = self._analyzer.analyze_batch(codes, design.n_cycles)

        comp = design.comparator_current * (1.0 + design.sigma_bias_rel * z[:, b + 2])
        dac = design.dac_switch_current * (1.0 + design.sigma_bias_rel * z[:, b + 3])
        comp = np.maximum(comp, 0.0)
        dac = np.maximum(dac, 0.0)
        nominal_core = design.comparator_current + design.dac_switch_current
        power = design.vref * (
            comp + dac + layout.power_overhead_rel * nominal_core
        )
        return np.column_stack(
            [spectral.snr, spectral.sinad, spectral.sfdr, spectral.thd, power]
        )

    def _bytes_per_die(self) -> int:
        """Working set: two level-table rows plus ~7 record-length planes
        (comparator input, guess, indices, codes, the record's FFT)."""
        design = self.design
        return (2 * design.n_codes + 7 * design.n_samples) * 8

    # ------------------------------------------------------------------
    def convert_record(self, die_seed: int, vin) -> np.ndarray:
        """Noise-free conversion of an arbitrary input record on one die.

        Exposes the die's real mismatched transfer function (comparator
        offset included) for code-transition and linearity tests.
        """
        z = self._die_row(die_seed)
        b = self.design.n_bits
        weights = self._dac_weights(z[:, : b + 1])
        offset = (
            self.design.sigma_comp_offset * z[0, b + 1] + self.layout.offset_shift
        )
        vcmp = np.asarray(vin, dtype=float).ravel()[None, :] + offset
        return self._convert(weights, vcmp)[0].astype(int)


#: Stepping passes before the still-inconsistent entries are bisected.
_MAX_STEPS = 3


def _read_staircase(theta: np.ndarray, v: np.ndarray, guess: np.ndarray) -> np.ndarray:
    """Codes ``c`` with ``theta[d, c] <= v[d, k] < theta[d, c + 1]``.

    ``theta`` is ``(n, m + 1)``, non-decreasing along each row between its
    NaN pads; ``guess`` is an integer first guess per entry.  Each pass
    steps the inconsistent entries one code toward consistency (a step
    never reverses, because ``theta`` is non-decreasing) and revisits only
    those, so a good guess costs one full pass.  Entries still off after
    :data:`_MAX_STEPS` passes (a die with missing codes can leave the
    guess far off) are bisected over their whole row instead.
    """
    n, width = theta.shape
    flat = theta.ravel()
    row_start = (np.arange(n) * width)[:, None]
    idx = (guess + row_start).ravel()
    vf = v.ravel()
    step = (vf >= flat[idx + 1]).view(np.int8) - (vf < flat[idx]).view(np.int8)
    active = np.flatnonzero(step)
    for _ in range(_MAX_STEPS):
        if not active.size:
            break
        idx[active] += step[active]
        at, va = idx[active], vf[active]
        moved = (va >= flat[at + 1]).view(np.int8) - (va < flat[at]).view(np.int8)
        keep = moved != 0
        active = active[keep]
        step[active] = moved[keep]
    if active.size:
        # Largest c in [0, m) with v >= theta[c] (theta[0] is a NaN pad).
        va = vf[active]
        lo = np.zeros(active.size, dtype=np.int64)
        hi = np.full(active.size, width - 2)
        first = np.repeat(row_start.ravel(), v.shape[1])[active]
        while np.any(lo < hi):
            mid = (lo + hi + 1) // 2
            above = va >= flat[first + mid]
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid - 1)
        idx[active] = first + lo
    return idx.reshape(v.shape) - row_start
