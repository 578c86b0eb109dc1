"""Circuit variants: corner / mismatch / divergence knobs over any circuit.

The scenario compiler (:mod:`repro.scenarios`) fans one declarative config
out into many concrete workloads.  Three of its axes are *circuit-agnostic*
— which process corner the population is centred on, how strong the random
mismatch is, and how far the post-layout (late) stage diverges from the
schematic (early) stage.  :class:`CircuitVariant` is the typed carrier of
those three knobs; how each circuit realises them differs by simulator
seam and lives next to the dataset builders in
:mod:`repro.circuits.registry`:

* **corner** — named deterministic global process shift.  Process-sample
  circuits (op-amp, OTA, gm-C filter) re-centre their draws with
  :meth:`repro.circuits.corners.CornerSpec.apply`; die-seed circuits
  (flash ADC, R-2R DAC, SAR ADC) shift their design nominals (bias
  currents, sheet resistance, noise) deterministically.
* **mismatch** — multiplies every random variation sigma; ``1.0`` is the
  process as characterised, larger values emulate a noisier corner.
* **divergence** — scales the fixed early/late deviation set (parasitics
  or layout effects), interpolating between "layout changes nothing"
  (``0.0``) and "worse than extracted" (``> 1.0``).

The default variant is the identity: :func:`CircuitVariant.as_config`
returns an empty mapping for it, and the dataset cache key deliberately
omits the variant in that case so every pre-variant cache entry keeps its
exact path (see :func:`repro.circuits.montecarlo._dataset_cache_key`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Sequence, TypeVar, Union

from repro.circuits.corners import STANDARD_CORNERS, CornerSpec
from repro.circuits.process import ProcessVariationModel
from repro.exceptions import ConfigError

__all__ = [
    "CircuitVariant",
    "corner_spec",
    "scale_divergence",
    "scaled_process_model",
]

T = TypeVar("T")

_CORNER_NAMES = tuple(c.name for c in STANDARD_CORNERS)


def corner_spec(name: str) -> CornerSpec:
    """Look up a standard corner by name (``TT``/``SS``/``FF``/``SF``/``FS``)."""
    for corner in STANDARD_CORNERS:
        if corner.name == name:
            return corner
    raise ConfigError(
        f"unknown corner {name!r}; expected one of {', '.join(_CORNER_NAMES)}"
    )


@dataclass(frozen=True)
class CircuitVariant:
    """One (corner, mismatch, divergence) point of the variant space.

    Attributes
    ----------
    corner:
        Named process corner the population is centred on (``"TT"`` is
        the characterised centre).
    mismatch_scale:
        Multiplier on every random variation sigma (global and local).
    divergence_scale:
        Multiplier on the early/late deviation set: ``0.0`` collapses the
        late stage onto the early stage, ``1.0`` is the circuit's stock
        post-layout model.
    """

    corner: str = "TT"
    mismatch_scale: float = 1.0
    divergence_scale: float = 1.0

    def __post_init__(self) -> None:
        corner_spec(self.corner)  # validates the name
        if self.mismatch_scale < 0.0:
            raise ConfigError(
                f"mismatch_scale must be >= 0, got {self.mismatch_scale}"
            )
        if self.divergence_scale < 0.0:
            raise ConfigError(
                f"divergence_scale must be >= 0, got {self.divergence_scale}"
            )

    @property
    def is_default(self) -> bool:
        """True when this variant is the identity (TT, both scales 1)."""
        return self == CircuitVariant()

    def as_config(self) -> Dict[str, Union[str, float]]:
        """JSON-safe config mapping; empty for the default variant.

        Only non-default fields appear, so the mapping (and anything
        hashed over it) is stable when later fields are added with
        identity defaults.
        """
        default = CircuitVariant()
        out: Dict[str, Union[str, float]] = {}
        if self.corner != default.corner:
            out["corner"] = self.corner
        if self.mismatch_scale != default.mismatch_scale:
            out["mismatch_scale"] = float(self.mismatch_scale)
        if self.divergence_scale != default.divergence_scale:
            out["divergence_scale"] = float(self.divergence_scale)
        return out

    @property
    def spec(self) -> CornerSpec:
        """The :class:`CornerSpec` this variant centres on."""
        return corner_spec(self.corner)


def scale_divergence(effects: T, scale: float, pivot_one: Sequence[str] = ()) -> T:
    """Scale a parasitics/layout-effects dataclass toward or past schematic.

    Every float field is multiplied by ``scale``; fields named in
    ``pivot_one`` are *inflation factors* whose neutral value is ``1.0``,
    so their deviation from 1 is scaled instead (``1 + (x - 1) * scale``).
    ``scale=1`` returns an equal instance; ``scale=0`` returns the
    all-neutral (schematic) set.
    """
    changes = {}
    for field in dataclasses.fields(effects):  # type: ignore[arg-type]
        value = getattr(effects, field.name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if field.name in pivot_one:
            changes[field.name] = 1.0 + (float(value) - 1.0) * scale
        else:
            changes[field.name] = float(value) * scale
    return dataclasses.replace(effects, **changes)  # type: ignore[type-var]


def scaled_process_model(
    model: ProcessVariationModel, mismatch_scale: float
) -> ProcessVariationModel:
    """A process model with every variation sigma scaled by ``mismatch_scale``."""
    return ProcessVariationModel(
        sigma_vth_global=model.sigma_vth_global * mismatch_scale,
        sigma_kp_rel_global=model.sigma_kp_rel_global * mismatch_scale,
        polarity_correlation=model.polarity_correlation,
        sigma_temp=model.sigma_temp * mismatch_scale,
        local_scale=model.local_scale * mismatch_scale,
    )
