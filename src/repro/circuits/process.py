"""Process variation model: global (inter-die) plus local (mismatch) components.

Each Monte-Carlo sample draws one *global* variation vector shared by every
transistor on the die (lot/wafer-level threshold and mobility shifts) and
independent *local* deviations per transistor whose standard deviations
follow the Pelgrom area law supplied by each device.  The same
:class:`ProcessSample` is replayed through both the schematic-level and the
post-layout simulator so early/late metric pairs are *correlated through
the physics*, which is the property BMF exploits (Sec. 1: data from the two
stages "are derived from the same circuit" and "are expected to be highly
correlated").

A whole bank of draws is a :class:`ProcessBank`: one array of global
draws and one of local draws, which the batch engines read column by
column.  A :class:`ProcessSample` is one die of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.devices import Mosfet
from repro.exceptions import SimulationError

__all__ = [
    "GLOBAL_FIELDS",
    "GlobalVariation",
    "ProcessBank",
    "ProcessSample",
    "ProcessVariationModel",
]

#: Columns of :attr:`ProcessBank.global_draws`, in :class:`GlobalVariation`
#: field order.
GLOBAL_FIELDS = ("dvth_n", "dvth_p", "dkp_rel_n", "dkp_rel_p", "temp_delta")


@dataclass(frozen=True)
class GlobalVariation:
    """Die-level variation shared by all devices of one polarity.

    Attributes
    ----------
    dvth_n, dvth_p:
        Global threshold shifts for NMOS and PMOS devices (V).  Drawn with
        a positive correlation because many underlying causes (oxide
        thickness, gate-length bias) move both polarities together.
    dkp_rel_n, dkp_rel_p:
        Global relative mobility (``kp``) deviations.
    temp_delta:
        Die temperature deviation from nominal (K); scales mobility via
        the usual ``T^-1.5`` law inside the simulators that opt in.
    """

    dvth_n: float
    dvth_p: float
    dkp_rel_n: float
    dkp_rel_p: float
    temp_delta: float = 0.0


@dataclass(frozen=True)
class ProcessSample:
    """One die's complete variation draw.

    ``local`` maps transistor instance names to their
    ``(dvth, dkp_rel)`` local deviations (on top of the global shift).
    """

    global_variation: GlobalVariation
    local: Dict[str, Tuple[float, float]]

    def apply(self, device: Mosfet, polarity: str) -> Mosfet:
        """Return ``device`` re-instantiated with this sample's variations."""
        if polarity not in ("n", "p"):
            raise SimulationError(f"polarity must be 'n' or 'p', got {polarity!r}")
        g = self.global_variation
        g_dvth = g.dvth_n if polarity == "n" else g.dvth_p
        g_dkp = g.dkp_rel_n if polarity == "n" else g.dkp_rel_p
        l_dvth, l_dkp = self.local.get(device.name, (0.0, 0.0))
        return device.with_variation(g_dvth + l_dvth, g_dkp + l_dkp)


def _read_only(values) -> np.ndarray:
    """A read-only float64 view of ``values`` (the caller's array keeps its flags)."""
    view = np.asarray(values, dtype=float).view()
    view.flags.writeable = False
    return view


class ProcessBank:
    """The process draws of ``n`` dies as arrays: the batch form of
    :class:`ProcessSample`.

    Attributes
    ----------
    global_draws:
        ``(n, 5)`` die-level draws, columns in :data:`GLOBAL_FIELDS` order.
    local_draws:
        ``(n, n_devices, 2)`` local ``(dvth, dkp_rel)`` deviations, devices
        in :attr:`device_names` order.
    device_names:
        The devices' instance names; duplicates raise
        :class:`~repro.exceptions.SimulationError`, since a name must pick
        one device's draws.

    Both arrays are read-only, so banks derived from one another (slices,
    corner re-centring) share them safely.  An integer index (and
    iteration) yields one die as a :class:`ProcessSample`; a slice or an
    index array yields a smaller bank.
    """

    __slots__ = ("global_draws", "local_draws", "device_names", "_column")

    def __init__(self, global_draws, local_draws, device_names: Sequence[str]) -> None:
        names = tuple(device_names)
        if len(set(names)) != len(names):
            raise SimulationError(f"duplicate device names in a process bank: {names}")
        g = _read_only(global_draws)
        local = _read_only(local_draws)
        if g.ndim != 2 or g.shape[1] != len(GLOBAL_FIELDS):
            raise SimulationError(
                f"global draws must be (n, {len(GLOBAL_FIELDS)}), got {g.shape}"
            )
        if local.shape != (g.shape[0], len(names), 2):
            raise SimulationError(
                f"local draws must be {(g.shape[0], len(names), 2)}, got {local.shape}"
            )
        self.global_draws = g
        self.local_draws = local
        self.device_names = names
        self._column = {name: i for i, name in enumerate(names)}

    @classmethod
    def from_samples(
        cls, samples: Sequence[ProcessSample], device_names: Sequence[str]
    ) -> "ProcessBank":
        """Stack per-die samples; a device a sample does not list draws zero."""
        names = tuple(device_names)
        zero = (0.0, 0.0)
        g = [[getattr(s.global_variation, f) for f in GLOBAL_FIELDS] for s in samples]
        local = [[s.local.get(name, zero) for name in names] for s in samples]
        n = len(g)
        return cls(
            np.array(g, dtype=float).reshape(n, len(GLOBAL_FIELDS)),
            np.array(local, dtype=float).reshape(n, len(names), 2),
            names,
        )

    def __len__(self) -> int:
        return self.global_draws.shape[0]

    def __getitem__(self, key) -> Union[ProcessSample, "ProcessBank"]:
        if isinstance(key, (int, np.integer)):
            return self._sample(
                self.global_draws[key].tolist(), self.local_draws[key].tolist()
            )
        return ProcessBank(self.global_draws[key], self.local_draws[key], self.device_names)

    def __iter__(self) -> Iterator[ProcessSample]:
        for g, local in zip(self.global_draws.tolist(), self.local_draws.tolist()):
            yield self._sample(g, local)

    def _sample(self, g: List[float], local: List[List[float]]) -> ProcessSample:
        return ProcessSample(
            global_variation=GlobalVariation(*g),
            local={name: tuple(pair) for name, pair in zip(self.device_names, local)},
        )

    def local_of(self, name: str) -> Optional[np.ndarray]:
        """``(n, 2)`` local draws of device ``name``, or ``None`` if unlisted."""
        i = self._column.get(name)
        return None if i is None else self.local_draws[:, i, :]


class ProcessVariationModel:
    """Sampler of process draws: a :class:`ProcessBank` per call.

    Parameters
    ----------
    sigma_vth_global:
        Std of the global threshold shift (V), same for both polarities.
    sigma_kp_rel_global:
        Std of the global relative ``kp`` deviation.
    polarity_correlation:
        Correlation between the NMOS and PMOS global shifts (0..1).
    sigma_temp:
        Std of the die temperature deviation (K).
    local_scale:
        Multiplier on every device's Pelgrom sigmas; ``1.0`` is nominal,
        larger values emulate a noisier process corner.

    Every sigma and ``local_scale`` must be finite and non-negative, and
    the correlation must lie in (-1, 1); anything else raises
    :class:`~repro.exceptions.SimulationError`.
    """

    def __init__(
        self,
        sigma_vth_global: float = 0.015,
        sigma_kp_rel_global: float = 0.05,
        polarity_correlation: float = 0.6,
        sigma_temp: float = 0.0,
        local_scale: float = 1.0,
    ) -> None:
        scales = {
            "sigma_vth_global": sigma_vth_global,
            "sigma_kp_rel_global": sigma_kp_rel_global,
            "sigma_temp": sigma_temp,
            "local_scale": local_scale,
        }
        for name, value in scales.items():
            if not (math.isfinite(value) and value >= 0.0):
                raise SimulationError(f"{name} must be finite and >= 0, got {value}")
        if not -1.0 < polarity_correlation < 1.0:
            raise SimulationError(
                f"polarity correlation must lie in (-1, 1), got {polarity_correlation}"
            )
        self.sigma_vth_global = float(sigma_vth_global)
        self.sigma_kp_rel_global = float(sigma_kp_rel_global)
        self.polarity_correlation = float(polarity_correlation)
        self.sigma_temp = float(sigma_temp)
        self.local_scale = float(local_scale)

    # ------------------------------------------------------------------
    def _correlated_pair(
        self, rng: np.random.Generator, sigma: float, n: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Two length-``n`` vectors with correlation ``polarity_correlation``."""
        rho = self.polarity_correlation
        z1 = rng.standard_normal(n)
        z2 = rho * z1 + np.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
        return sigma * z1, sigma * z2

    def sample_bank(
        self,
        devices: Sequence[Mosfet],
        n: int,
        rng: Optional[np.random.Generator] = None,
    ) -> ProcessBank:
        """Draw ``n`` dies for the given device list as one bank.

        Local deviations are independent across devices and dies, scaled
        per device by its Pelgrom sigmas (so small transistors are noisier,
        as in real silicon).  The generator's stream is consumed in a fixed
        order: the correlated global pairs, the temperatures, then every
        die's ``(dvth, dkp)`` pairs device by device — one array fill, which
        NumPy draws in stream order.
        """
        if n < 1:
            raise SimulationError(f"n must be >= 1, got {n}")
        names = [dev.name for dev in devices]
        gen = rng if rng is not None else np.random.default_rng()
        dvth_n, dvth_p = self._correlated_pair(gen, self.sigma_vth_global, n)
        dkp_n, dkp_p = self._correlated_pair(gen, self.sigma_kp_rel_global, n)
        temps = (
            gen.standard_normal(n) * self.sigma_temp
            if self.sigma_temp > 0.0
            else np.zeros(n)
        )
        sigmas = np.array(
            [dev.mismatch_sigma() for dev in devices], dtype=float
        ).reshape(len(names), 2)
        local = gen.standard_normal((n, len(names), 2)) * sigmas * self.local_scale
        return ProcessBank(
            np.column_stack([dvth_n, dvth_p, dkp_n, dkp_p, temps]), local, names
        )

    def sample(
        self,
        devices: Sequence[Mosfet],
        n: int,
        rng: Optional[np.random.Generator] = None,
    ) -> List[ProcessSample]:
        """:meth:`sample_bank`, one :class:`ProcessSample` per die."""
        return list(self.sample_bank(devices, n, rng))

    def nominal_sample(self, devices: Sequence[Mosfet]) -> ProcessSample:
        """The variation-free sample used for nominal simulations (Sec. 4.1)."""
        return ProcessSample(
            global_variation=GlobalVariation(0.0, 0.0, 0.0, 0.0, 0.0),
            local={dev.name: (0.0, 0.0) for dev in devices},
        )
