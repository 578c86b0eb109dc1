"""Circuit registry: one dispatch point for paired-dataset generation.

Every circuit block exposes the same seam — ``schematic()`` /
``post_layout()`` stage pairs, a ``simulate_batch`` over shared draws and
nominal runs — but each historically grew its own ``generate_*_dataset``
entry point.  This module registers them all under one
:func:`generate_dataset` so callers (CLI, scenario compiler, examples)
select circuits by *name* and new blocks join by adding one
:class:`CircuitEntry`.

The registry is also where :class:`repro.circuits.variants.CircuitVariant`
knobs are realised, because *how* differs by simulator seam:

* **process-sample circuits** (op-amp, OTA, gm-C filter): corners
  re-centre the shared random draws via
  :meth:`repro.circuits.corners.CornerSpec.apply` (mirroring
  :func:`repro.circuits.corners.generate_corner_datasets`), mismatch
  scales the :class:`ProcessVariationModel` sigmas, divergence scales the
  post-layout parasitics dataclass;
* **die-seed circuits** (flash ADC, R-2R DAC, SAR ADC): corners shift the
  design nominals deterministically (bias currents, sheet resistance,
  noise — slow silicon burns less bias current and is noisier), mismatch
  scales the design's ``sigma_*`` fields, divergence scales the layout
  effects (inflation factors pivot around their neutral ``1.0``).

Corner shifts are expressed in multiples of the *base* (unscaled) process
sigmas, so the corner and mismatch knobs stay orthogonal: re-centring the
population does not shrink when mismatch is turned down.

Cache discipline: :func:`generate_dataset` keys the disk cache on the
*original* design plus the variant's config mapping — never on the
variant-mutated design — and omits the variant entirely when it is the
identity, so every pre-registry cache path is preserved byte-for-byte
(regression-tested).  ``mna_backend`` stays out of the key (see
:func:`repro.circuits.montecarlo.generate_opamp_dataset`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.circuits.adc import ADC_METRIC_NAMES, FlashADC, FlashADCDesign
from repro.circuits.corners import CornerSpec
from repro.circuits.montecarlo import PairedDataset, _cached_dataset
from repro.circuits.opamp import OPAMP_METRIC_NAMES, OpAmpDesign, TwoStageOpAmp
from repro.circuits.ota import OTA_METRIC_NAMES, FoldedCascodeDesign, FoldedCascodeOTA
from repro.circuits.r2r_dac import R2R_DAC_METRIC_NAMES, R2RDACDesign, R2RLadderDAC
from repro.circuits.sar_adc import SAR_ADC_METRIC_NAMES, SarADC, SarADCDesign
from repro.circuits.svf import SVF_METRIC_NAMES, GmCFilterDesign, GmCStateVariableFilter
from repro.circuits.variants import (
    CircuitVariant,
    scale_divergence,
    scaled_process_model,
)
from repro.exceptions import ConfigError

__all__ = [
    "CircuitEntry",
    "circuit_names",
    "get_circuit",
    "generate_dataset",
]

#: Builder signature: (n_samples, seed, design, variant, mna_backend).
_Builder = Callable[[int, int, object, CircuitVariant, Optional[str]], PairedDataset]

_IDENTITY = CircuitVariant()


@dataclass(frozen=True)
class CircuitEntry:
    """One registered circuit block.

    Attributes
    ----------
    name:
        Registry key (CLI ``generate`` choice, scenario ``circuit:``).
    summary:
        One-line human description (CLI listings, docs generation).
    design_cls:
        The design dataclass; its zero-argument construction is the
        default design.
    metric_names:
        Column labels of the produced datasets.
    default_samples:
        Monte-Carlo bank size when the caller does not specify one.
    builder:
        Stage-pair dataset builder honouring the circuit variant.
    supports_mna_backend:
        Whether the simulator threads an ``mna_backend`` through its
        batched solves (StampPlan-based circuits only).
    """

    name: str
    summary: str
    design_cls: type
    metric_names: Tuple[str, ...]
    default_samples: int
    builder: _Builder
    supports_mna_backend: bool = False


# ---------------------------------------------------------------------------
# process-sample circuits
# ---------------------------------------------------------------------------
def _corner_samples(spec: CornerSpec, samples, base_model):
    """Re-centre a sample bank at a corner (base-model sigma units)."""
    return [
        spec.apply(s, base_model.sigma_vth_global, base_model.sigma_kp_rel_global)
        for s in samples
    ]


def _process_builder(sim_cls: type, metric_names: Tuple[str, ...]) -> _Builder:
    """Builder for ProcessSample-seam circuits (op-amp-style)."""

    def build(
        n_samples: int,
        seed: int,
        design,
        variant: CircuitVariant,
        mna_backend: Optional[str],
    ) -> PairedDataset:
        early = sim_cls.schematic(design)
        late = sim_cls.post_layout(design)
        if variant.divergence_scale != _IDENTITY.divergence_scale:
            late = sim_cls(
                design, scale_divergence(late.parasitics, variant.divergence_scale)
            )
        base_model = early.process_model()
        model = scaled_process_model(base_model, variant.mismatch_scale)
        rng = np.random.default_rng(seed)
        samples = model.sample(early.devices, n_samples, rng)
        kwargs = {} if mna_backend is None else {"mna_backend": mna_backend}
        if variant.corner != _IDENTITY.corner:
            spec = variant.spec
            samples = _corner_samples(spec, samples, base_model)
            nominal = spec.apply(
                model.nominal_sample(early.devices),
                base_model.sigma_vth_global,
                base_model.sigma_kp_rel_global,
            )
            early_nominal = early.simulate(nominal).as_array()
            late_nominal = late.simulate(nominal).as_array()
        else:
            early_nominal = early.simulate_nominal().as_array()
            late_nominal = late.simulate_nominal().as_array()
        return PairedDataset(
            early=early.simulate_batch(samples, **kwargs),
            late=late.simulate_batch(samples, **kwargs),
            early_nominal=early_nominal,
            late_nominal=late_nominal,
            metric_names=metric_names,
        )

    return build


# ---------------------------------------------------------------------------
# die-seed circuits
# ---------------------------------------------------------------------------
def _die_builder(
    sim_cls: type,
    metric_names: Tuple[str, ...],
    corner_shift: Callable[[object, CornerSpec], object],
    sigma_fields: Tuple[str, ...],
    pivot_one: Tuple[str, ...],
) -> _Builder:
    """Builder for die-seed-seam circuits (flash-ADC-style)."""

    def build(
        n_samples: int,
        seed: int,
        design,
        variant: CircuitVariant,
        mna_backend: Optional[str],
    ) -> PairedDataset:
        resolved = design
        if variant.corner != _IDENTITY.corner:
            resolved = corner_shift(resolved, variant.spec)
        if variant.mismatch_scale != _IDENTITY.mismatch_scale:
            resolved = dataclasses.replace(
                resolved,
                **{
                    f: getattr(resolved, f) * variant.mismatch_scale
                    for f in sigma_fields
                },
            )
        early = sim_cls.schematic(resolved)
        late = sim_cls.post_layout(resolved)
        if variant.divergence_scale != _IDENTITY.divergence_scale:
            late = sim_cls(
                resolved,
                scale_divergence(
                    late.layout, variant.divergence_scale, pivot_one=pivot_one
                ),
            )
        die_seeds = np.arange(n_samples, dtype=np.int64) + np.int64(seed) * 1_000_003
        return PairedDataset(
            early=early.simulate_batch(die_seeds),
            late=late.simulate_batch(die_seeds),
            early_nominal=early.simulate_nominal().as_array(),
            late_nominal=late.simulate_nominal().as_array(),
            metric_names=metric_names,
        )

    return build


def _shift_adc(design: FlashADCDesign, spec: CornerSpec) -> FlashADCDesign:
    """Corner shift for the flash ADC: slow silicon burns less bias and
    is noisier; the resistor ladder current tracks sheet resistance."""
    s_avg = 0.5 * (spec.nmos_sigma + spec.pmos_sigma)
    return dataclasses.replace(
        design,
        comparator_bias=design.comparator_bias * (1.0 - 0.05 * s_avg),
        ladder_current=design.ladder_current * (1.0 - 0.03 * s_avg),
        noise_rms=design.noise_rms * (1.0 + 0.04 * s_avg),
    )


def _shift_r2r(design: R2RDACDesign, spec: CornerSpec) -> R2RDACDesign:
    """Corner shift for the R-2R DAC: sheet resistance and switch
    on-resistance rise at the slow corner, buffer bias falls."""
    s_avg = 0.5 * (spec.nmos_sigma + spec.pmos_sigma)
    return dataclasses.replace(
        design,
        r_unit=design.r_unit * (1.0 + 0.05 * s_avg),
        r_switch=design.r_switch * (1.0 + 0.10 * spec.nmos_sigma),
        buffer_current=design.buffer_current * (1.0 - 0.05 * s_avg),
    )


def _shift_sar(design: SarADCDesign, spec: CornerSpec) -> SarADCDesign:
    """Corner shift for the SAR ADC: comparator and CDAC switching
    currents fall at the slow corner, thermal noise rises."""
    s_avg = 0.5 * (spec.nmos_sigma + spec.pmos_sigma)
    return dataclasses.replace(
        design,
        comparator_current=design.comparator_current * (1.0 - 0.05 * s_avg),
        dac_switch_current=design.dac_switch_current * (1.0 - 0.05 * s_avg),
        noise_rms=design.noise_rms * (1.0 + 0.04 * s_avg),
    )


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------
_REGISTRY: Dict[str, CircuitEntry] = {}


def _register(entry: CircuitEntry) -> None:
    if entry.name in _REGISTRY:
        raise ConfigError(f"duplicate circuit registration: {entry.name!r}")
    _REGISTRY[entry.name] = entry


_register(
    CircuitEntry(
        name="opamp",
        summary="two-stage Miller op-amp (gain/bw/power/offset/phase margin)",
        design_cls=OpAmpDesign,
        metric_names=OPAMP_METRIC_NAMES,
        default_samples=5000,
        builder=_process_builder(TwoStageOpAmp, OPAMP_METRIC_NAMES),
        supports_mna_backend=True,
    )
)
_register(
    CircuitEntry(
        name="adc",
        summary="6-bit flash ADC (snr/sinad/sfdr/thd/power)",
        design_cls=FlashADCDesign,
        metric_names=ADC_METRIC_NAMES,
        default_samples=1000,
        builder=_die_builder(
            FlashADC,
            ADC_METRIC_NAMES,
            _shift_adc,
            ("sigma_offset", "sigma_ladder_rel", "sigma_bias_rel"),
            ("offset_inflation",),
        ),
    )
)
_register(
    CircuitEntry(
        name="ota",
        summary="folded-cascode OTA (gain/gbw/power/offset/slew rate)",
        design_cls=FoldedCascodeDesign,
        metric_names=OTA_METRIC_NAMES,
        default_samples=2000,
        builder=_process_builder(FoldedCascodeOTA, OTA_METRIC_NAMES),
        supports_mna_backend=True,
    )
)
_register(
    CircuitEntry(
        name="r2r_dac",
        summary="R-2R ladder DAC (dnl/inl/gain error/offset/power)",
        design_cls=R2RDACDesign,
        metric_names=R2R_DAC_METRIC_NAMES,
        default_samples=1000,
        builder=_die_builder(
            R2RLadderDAC,
            R2R_DAC_METRIC_NAMES,
            _shift_r2r,
            (
                "sigma_r_rel",
                "sigma_switch_rel",
                "sigma_offset",
                "sigma_bias_rel",
            ),
            ("mismatch_inflation",),
        ),
    )
)
_register(
    CircuitEntry(
        name="svf",
        summary="gm-C state-variable filter (f0/Q/peak gain/LP gain/power)",
        design_cls=GmCFilterDesign,
        metric_names=SVF_METRIC_NAMES,
        default_samples=2000,
        builder=_process_builder(GmCStateVariableFilter, SVF_METRIC_NAMES),
        supports_mna_backend=True,
    )
)
_register(
    CircuitEntry(
        name="sar_adc",
        summary="10-bit SAR ADC (snr/sinad/sfdr/thd/power)",
        design_cls=SarADCDesign,
        metric_names=SAR_ADC_METRIC_NAMES,
        default_samples=1000,
        builder=_die_builder(
            SarADC,
            SAR_ADC_METRIC_NAMES,
            _shift_sar,
            ("sigma_cap_unit_rel", "sigma_comp_offset", "sigma_bias_rel"),
            ("cap_mismatch_inflation",),
        ),
    )
)


def circuit_names() -> Tuple[str, ...]:
    """All registered circuit names, in registration order."""
    return tuple(_REGISTRY)


def get_circuit(name: str) -> CircuitEntry:
    """Look up a registry entry; unknown names raise with the valid set."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown circuit {name!r}; registered circuits: "
            f"{', '.join(circuit_names())}"
        ) from None


def generate_dataset(
    circuit: str,
    n_samples: Optional[int] = None,
    seed: int = 2015,
    design=None,
    variant: Optional[CircuitVariant] = None,
    cache_dir=None,
    use_cache: bool = True,
    mna_backend: Optional[str] = None,
) -> PairedDataset:
    """Generate (or cache-serve) one circuit's paired early/late bank.

    Parameters
    ----------
    circuit:
        Registry name (see :func:`circuit_names`).
    n_samples:
        Monte-Carlo bank size; ``None`` uses the circuit's default.
    seed:
        Master seed; die pairing across stages is seed-stable.
    design:
        Circuit design dataclass; ``None`` uses the registered default.
    variant:
        Optional :class:`CircuitVariant` (corner / mismatch / divergence).
        The identity variant is exactly the historical behaviour and does
        not perturb cache paths.
    cache_dir, use_cache:
        Disk-cache controls (see
        :func:`repro.circuits.montecarlo.dataset_cache_path`).
    mna_backend:
        MNA solve strategy for StampPlan circuits; rejected for circuits
        that do not thread one (their solves are not MNA-shaped).  Not
        part of the cache key (backend equivalence is gated by tests).
    """
    entry = get_circuit(circuit)
    resolved = design if design is not None else entry.design_cls()
    if not isinstance(resolved, entry.design_cls):
        raise ConfigError(
            f"{circuit}: design must be a {entry.design_cls.__name__}, "
            f"got {type(resolved).__name__}"
        )
    n = entry.default_samples if n_samples is None else int(n_samples)
    v = variant if variant is not None else _IDENTITY
    if mna_backend is not None and not entry.supports_mna_backend:
        raise ConfigError(
            f"{circuit} does not support mna_backend (no batched MNA solve)"
        )
    extra = None if v.is_default else v.as_config()

    def build() -> PairedDataset:
        return entry.builder(n, seed, resolved, v, mna_backend)

    return _cached_dataset(
        circuit, n, seed, resolved, build, cache_dir, use_cache, extra=extra
    )
