"""Monte-Carlo engine producing paired early/late metric datasets.

The paper generates "5000 Monte-Carlo samples by both schematic-level and
post-layout simulations" for the op-amp and 1000 for the ADC (Sec. 5).
:class:`PairedDataset` is the in-memory equivalent of those sample banks:
two aligned ``(n, d)`` metric matrices plus the two nominal vectors needed
by the Sec. 4.1 shift-and-scale step.

An optional measurement-noise model emulates the post-silicon validation
use case, where late-stage "samples" are bench measurements with their own
instrumentation error.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import zipfile
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.circuits.adc import FlashADCDesign
from repro.circuits.opamp import OpAmpDesign
from repro.exceptions import DimensionError, ReproError, SimulationError

__all__ = [
    "PairedDataset",
    "dataset_cache_path",
    "generate_opamp_dataset",
    "generate_adc_dataset",
]

#: Environment variable selecting the dataset cache directory.
DATASET_CACHE_ENV = "REPRO_DATASET_CACHE_DIR"

#: Bump whenever a simulator change alters generated metric values, so
#: stale cache entries are never reused across code versions.
_DATASET_CACHE_VERSION = 1


@dataclass(frozen=True)
class PairedDataset:
    """Aligned early/late Monte-Carlo metric banks for one circuit.

    Attributes
    ----------
    early, late:
        ``(n, d)`` metric matrices; row ``i`` of both corresponds to the
        *same die* simulated at the two stages.
    early_nominal, late_nominal:
        Nominal metric vectors (one variation-free run per stage).
    metric_names:
        Column labels.
    """

    early: np.ndarray
    late: np.ndarray
    early_nominal: np.ndarray
    late_nominal: np.ndarray
    metric_names: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.early.shape != self.late.shape:
            raise DimensionError(
                f"stage shapes differ: {self.early.shape} vs {self.late.shape}"
            )
        d = self.early.shape[1]
        if self.early_nominal.shape != (d,) or self.late_nominal.shape != (d,):
            raise DimensionError("nominal vectors must match the metric count")
        if len(self.metric_names) != d:
            raise DimensionError("metric_names must match the metric count")

    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        """Number of paired dies."""
        return self.early.shape[0]

    @property
    def dim(self) -> int:
        """Number of performance metrics ``d``."""
        return self.early.shape[1]

    def late_subset(
        self, n: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Draw ``n`` late-stage rows without replacement.

        This emulates collecting only ``n`` expensive late-stage samples
        out of the population; the paper's sweeps repeat this 100 times
        "based on independent samples to average out random fluctuations".
        """
        if not 1 <= n <= self.n_samples:
            raise SimulationError(
                f"subset size {n} outside [1, {self.n_samples}]"
            )
        gen = rng if rng is not None else np.random.default_rng()
        idx = gen.choice(self.n_samples, size=n, replace=False)
        return self.late[idx]

    def with_measurement_noise(
        self, noise_std_rel, rng: Optional[np.random.Generator] = None
    ) -> "PairedDataset":
        """A copy whose late-stage bank carries instrumentation noise.

        ``noise_std_rel`` is a scalar or length-``d`` vector of noise
        standard deviations *relative to each metric's late-stage std* —
        the post-silicon validation scenario where bench measurements are
        themselves noisy.
        """
        rel = np.broadcast_to(np.asarray(noise_std_rel, dtype=float), (self.dim,))
        if np.any(rel < 0.0):
            raise SimulationError("noise levels must be non-negative")
        gen = rng if rng is not None else np.random.default_rng()
        stds = self.late.std(axis=0, ddof=0)
        noisy = self.late + gen.standard_normal(self.late.shape) * stds * rel
        return PairedDataset(
            early=self.early,
            late=noisy,
            early_nominal=self.early_nominal,
            late_nominal=self.late_nominal,
            metric_names=self.metric_names,
        )


# ---------------------------------------------------------------------------
# dataset disk cache
# ---------------------------------------------------------------------------
def _resolve_cache_dir(cache_dir: Optional[Union[str, Path]]) -> Path:
    """Cache directory: explicit argument > env var > XDG cache default."""
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get(DATASET_CACHE_ENV, "")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "datasets"


def _dataset_cache_key(
    circuit: str, n_samples: int, seed: int, design, extra: Optional[dict] = None
) -> str:
    """Content hash over everything that determines the generated bank.

    ``extra`` carries additional generation config beyond the design —
    today the scenario compiler's non-default circuit variant (corner /
    mismatch / divergence knobs).  It is folded into the hashed payload
    *only when present*, so every pre-variant configuration keeps its
    exact historical cache path.
    """
    config = {
        "circuit": circuit,
        "version": _DATASET_CACHE_VERSION,
        "n_samples": int(n_samples),
        "seed": int(seed),
        "design": dataclasses.asdict(design),
    }
    if extra:
        config["extra"] = extra
    payload = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def dataset_cache_path(
    circuit: str,
    n_samples: int,
    seed: int,
    design,
    cache_dir: Optional[Union[str, Path]] = None,
    extra: Optional[dict] = None,
) -> Path:
    """Where the cache entry for this exact configuration lives (may not exist)."""
    key = _dataset_cache_key(circuit, n_samples, seed, design, extra)
    return _resolve_cache_dir(cache_dir) / f"{circuit}-{key[:20]}.npz"


class CacheLookup(NamedTuple):
    """Where one build's cache entry lives, and whether the bank was read
    back from it (``False`` when it was built, also when a torn or
    corrupt entry was rebuilt)."""

    path: Path
    hit: bool


_LOOKUPS: ContextVar[Optional[List[CacheLookup]]] = ContextVar(
    "dataset_cache_lookups", default=None
)


@contextmanager
def recorded_cache_lookups() -> Iterator[List[CacheLookup]]:
    """Collect a :class:`CacheLookup` for every cache-routed build run in
    the ``with`` block (in this thread or task), in call order."""
    lookups: List[CacheLookup] = []
    token = _LOOKUPS.set(lookups)
    try:
        yield lookups
    finally:
        _LOOKUPS.reset(token)


def _record_lookup(path: Path, hit: bool) -> None:
    lookups = _LOOKUPS.get()
    if lookups is not None:
        lookups.append(CacheLookup(path, hit))


def _cached_dataset(
    circuit: str,
    n_samples: int,
    seed: int,
    design,
    builder: Callable[[], PairedDataset],
    cache_dir: Optional[Union[str, Path]],
    use_cache: bool,
    extra: Optional[dict] = None,
) -> PairedDataset:
    """Round a dataset build through the disk cache.

    Cache entries are keyed by a hash of the full generation config
    (circuit, design parameters, ``n_samples``, ``seed`` and the engine
    version), so any config change lands on a different file and a stale
    entry is never served.  The key is hashed once per call, and the
    outcome goes to :func:`recorded_cache_lookups` when one is active.
    Writes are atomic (temp file + ``os.replace``) so concurrent sweep
    workers cannot observe a torn ``.npz``.
    """
    path = dataset_cache_path(circuit, n_samples, seed, design, cache_dir, extra)
    if use_cache and path.exists():
        # Lazy upward import: repro.io owns (de)serialisation and already
        # depends on circuits for PairedDataset, so the cache round-trip
        # has to call up a layer at function scope to avoid an import cycle.
        from repro.io import load_dataset  # reprolint: disable=RPL003 -- lazy cache IO, see above

        try:
            dataset = load_dataset(path)
        except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile, ReproError):
            # Torn/corrupt/stale cache entry (np.load raises any of these;
            # a flipped byte in a stored member fails its CRC-32 check);
            # fall through and regenerate it.  Everything else propagates.
            pass
        else:
            _record_lookup(path, True)
            return dataset
    _record_lookup(path, False)
    dataset = builder()
    if not use_cache:
        return dataset
    from repro.io import save_dataset  # reprolint: disable=RPL003 -- lazy cache IO, see above

    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.stem}.{os.getpid()}.tmp.npz")
        save_dataset(dataset, tmp)
        os.replace(tmp, path)  # reprolint: disable=RPL008 -- cache entry: atomicity (no torn .npz) is required, power-loss durability is not; a lost or corrupt entry is detected on load and regenerated
    except OSError:
        pass  # read-only cache location: serve the fresh build uncached
    return dataset


def generate_opamp_dataset(
    n_samples: int = 5000,
    seed: int = 2015,
    design: Optional[OpAmpDesign] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    use_cache: bool = True,
) -> PairedDataset:
    """Generate the paper's op-amp sample bank (Sec. 5.1).

    Draws one process bank and replays it through both the
    schematic and the post-layout simulator so rows are paired by die.
    Identical configurations are served from the disk cache (see
    :func:`dataset_cache_path`); pass ``use_cache=False`` to force a
    fresh simulation.
    """
    # Lazy upward import: the registry aggregates every circuit module
    # (this one included), so dispatching through it at module scope
    # would be an import cycle.
    from repro.circuits.registry import generate_dataset

    return generate_dataset(
        "opamp",
        n_samples=n_samples,
        seed=seed,
        design=design,
        cache_dir=cache_dir,
        use_cache=use_cache,
    )


def generate_adc_dataset(
    n_samples: int = 1000,
    seed: int = 2015,
    design: Optional[FlashADCDesign] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    use_cache: bool = True,
) -> PairedDataset:
    """Generate the paper's flash-ADC sample bank (Sec. 5.2).

    Die seeds are shared between stages so each row pair is the same die.
    Identical configurations are served from the disk cache (see
    :func:`dataset_cache_path`); pass ``use_cache=False`` to force a
    fresh simulation.
    """
    from repro.circuits.registry import generate_dataset

    return generate_dataset(
        "adc",
        n_samples=n_samples,
        seed=seed,
        design=design,
        cache_dir=cache_dir,
        use_cache=use_cache,
    )
