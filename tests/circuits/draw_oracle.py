"""The per-die process draw loop, kept as the oracle of ``sample_bank``.

:meth:`repro.circuits.process.ProcessVariationModel.sample_bank` draws a
whole bank with one array fill.  This is the loop it replaced: one scalar
``standard_normal()`` per device and parameter, die by die, each die
wrapped in a :class:`ProcessSample`.  The two must consume the generator
in the same order and agree bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.circuits.process import GlobalVariation, ProcessSample


def loop_draws(model, devices, n: int, rng: np.random.Generator) -> List[ProcessSample]:
    """``n`` dies drawn one scalar at a time (the pre-bank ``sample`` body)."""
    dvth_n, dvth_p = model._correlated_pair(rng, model.sigma_vth_global, n)
    dkp_n, dkp_p = model._correlated_pair(rng, model.sigma_kp_rel_global, n)
    temps = (
        rng.standard_normal(n) * model.sigma_temp
        if model.sigma_temp > 0.0
        else np.zeros(n)
    )
    sigmas = {dev.name: dev.mismatch_sigma() for dev in devices}
    samples: List[ProcessSample] = []
    for i in range(n):
        local: Dict[str, Tuple[float, float]] = {}
        for dev in devices:
            s_vth, s_kp = sigmas[dev.name]
            local[dev.name] = (
                float(rng.standard_normal() * s_vth * model.local_scale),
                float(rng.standard_normal() * s_kp * model.local_scale),
            )
        samples.append(
            ProcessSample(
                global_variation=GlobalVariation(
                    dvth_n=float(dvth_n[i]),
                    dvth_p=float(dvth_p[i]),
                    dkp_rel_n=float(dkp_n[i]),
                    dkp_rel_p=float(dkp_p[i]),
                    temp_delta=float(temps[i]),
                ),
                local=local,
            )
        )
    return samples
