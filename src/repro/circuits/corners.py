"""Process-corner populations for multi-population experiments.

Reference [7] (which the paper extends) motivates BMF with "simulation and
measurement data under different circuit configurations and corners [that]
are strongly correlated".  This module manufactures that setting on the
op-amp substrate: each named corner is a deterministic global process
offset (slow/fast NMOS and PMOS) superimposed on the usual random
variations, giving several *correlated populations* of the same circuit.

The standard five-corner set is provided; magnitudes are expressed in
multiples of the global sigma so they track the process model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.circuits.montecarlo import PairedDataset
from repro.circuits.opamp import OPAMP_METRIC_NAMES, OpAmpDesign, TwoStageOpAmp
from repro.circuits.process import GlobalVariation, ProcessBank, ProcessSample
from repro.exceptions import SimulationError

__all__ = ["CornerSpec", "STANDARD_CORNERS", "generate_corner_datasets"]


@dataclass(frozen=True)
class CornerSpec:
    """A named process corner: deterministic global offsets in sigma units."""

    name: str
    nmos_sigma: float  # positive = slow NMOS (higher Vth, lower mobility)
    pmos_sigma: float

    def apply(
        self, sample: Union[ProcessSample, ProcessBank], sigma_vth: float, sigma_kp: float
    ) -> Union[ProcessSample, ProcessBank]:
        """Shift a random process sample, or every die of a bank, to this corner.

        A bank is re-centred column by column with the per-sample
        arithmetic, so its dies equal the shifted samples bit for bit; the
        local draws are shared, not copied.
        """
        if isinstance(sample, ProcessBank):
            shifted = np.array(sample.global_draws)
            shifted[:, 0] += self.nmos_sigma * sigma_vth
            shifted[:, 1] += self.pmos_sigma * sigma_vth
            shifted[:, 2] -= self.nmos_sigma * sigma_kp
            shifted[:, 3] -= self.pmos_sigma * sigma_kp
            return ProcessBank(shifted, sample.local_draws, sample.device_names)
        g = sample.global_variation
        return ProcessSample(
            global_variation=GlobalVariation(
                dvth_n=g.dvth_n + self.nmos_sigma * sigma_vth,
                dvth_p=g.dvth_p + self.pmos_sigma * sigma_vth,
                dkp_rel_n=g.dkp_rel_n - self.nmos_sigma * sigma_kp,
                dkp_rel_p=g.dkp_rel_p - self.pmos_sigma * sigma_kp,
                temp_delta=g.temp_delta,
            ),
            local=sample.local,
        )


#: The classical five-corner set.
STANDARD_CORNERS: Tuple[CornerSpec, ...] = (
    CornerSpec("TT", 0.0, 0.0),
    CornerSpec("SS", 1.5, 1.5),
    CornerSpec("FF", -1.5, -1.5),
    CornerSpec("SF", 1.5, -1.5),
    CornerSpec("FS", -1.5, 1.5),
)


def generate_corner_datasets(
    corners: Tuple[CornerSpec, ...] = STANDARD_CORNERS,
    n_samples: int = 500,
    seed: int = 2015,
    design: Optional[OpAmpDesign] = None,
) -> Dict[str, PairedDataset]:
    """Paired early/late op-amp banks, one per corner, sharing random draws.

    The *same* random process samples are re-centred at each corner, so
    cross-corner correlation comes from the shared randomness — the
    structure multi-population fusion exploits.
    """
    if n_samples < 2:
        raise SimulationError(f"n_samples must be >= 2, got {n_samples}")
    if not corners:
        raise SimulationError("at least one corner required")
    names = [c.name for c in corners]
    if len(set(names)) != len(names):
        raise SimulationError(f"duplicate corner names: {names}")

    early_sim = TwoStageOpAmp.schematic(design)
    late_sim = TwoStageOpAmp.post_layout(design)
    model = early_sim.process_model()
    rng = np.random.default_rng(seed)
    base_bank = model.sample_bank(early_sim.devices, n_samples, rng)

    out: Dict[str, PairedDataset] = {}
    for corner in corners:
        shifted = corner.apply(
            base_bank, model.sigma_vth_global, model.sigma_kp_rel_global
        )
        nominal = corner.apply(
            model.nominal_sample(early_sim.devices),
            model.sigma_vth_global,
            model.sigma_kp_rel_global,
        )
        out[corner.name] = PairedDataset(
            early=early_sim.simulate_batch(shifted),
            late=late_sim.simulate_batch(shifted),
            early_nominal=early_sim._simulate_one(nominal).as_array(),
            late_nominal=late_sim._simulate_one(nominal).as_array(),
            metric_names=OPAMP_METRIC_NAMES,
        )
    return out
