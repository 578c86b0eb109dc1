"""Shared per-die standard-normal draw bank for die-seed circuits.

The die-seed simulator seam (flash ADC, R-2R DAC, SAR ADC) identifies a
Monte-Carlo die by an integer seed: each stage spins up
``np.random.default_rng(SeedSequence(seed))`` and consumes a fixed number
of standard normals in a documented order, so the schematic and
post-layout simulators of the *same die* replay the same raw draws and
their metrics stay physically correlated.

Replaying that per-die RNG loop dominates the vectorized engines, and the
draws are *stage-independent* (stage scaling happens downstream), so one
bank serves both stages of a paired dataset and every repeat of the same
seed bank.  :func:`die_draw_bank` is the generic cache: one read-only
``(n_dies, stride)`` row per die, filled with a single
``standard_normal(out=row)`` call — the identical value sequence a scalar
path obtains from the same generator — keyed by a content hash of the
seeds plus the stride, LRU-bounded so sweeps over many banks cannot grow
without limit.

:func:`die_seed_array` is the one check every die-seed entry point runs:
a seed must be a non-negative integer, so a non-integral, negative or
multi-dimensional seed raises :class:`~repro.exceptions.SimulationError`
instead of being truncated or escaping as a raw NumPy error.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Tuple

import numpy as np

from repro.exceptions import SimulationError

__all__ = ["die_draw_bank", "die_seed_array"]

_BANK_CACHE: "OrderedDict[Tuple[str, int], np.ndarray]" = OrderedDict()
_BANK_CACHE_MAX_ROWS = 4096
_BANK_LOCK = threading.Lock()


def die_seed_array(die_seeds) -> np.ndarray:
    """Validated die seeds as a non-empty 1-D ``int64`` array.

    A scalar is one die.  Integral floats (``2.0``) are accepted; a
    negative, non-integral, non-numeric or multi-dimensional seed array
    raises :class:`~repro.exceptions.SimulationError`.
    """
    raw = np.atleast_1d(np.asarray(die_seeds))
    if raw.ndim != 1 or raw.size == 0:
        raise SimulationError(
            f"die seeds must be a non-empty 1-D array, got shape {raw.shape}"
        )
    if raw.dtype.kind not in "iuf":
        raise SimulationError(f"die seeds must be integers, got dtype {raw.dtype}")
    if raw.dtype.kind == "f" and not np.all(np.isfinite(raw) & (raw == np.floor(raw))):
        raise SimulationError("die seeds must be integers, got non-integral values")
    limit = 2.0**63 if raw.dtype.kind == "f" else 2**63
    if np.any(raw < 0) or np.any(raw >= limit):
        raise SimulationError("die seeds must lie in [0, 2**63)")
    return raw.astype(np.int64)


def die_draw_bank(seeds: np.ndarray, stride: int) -> np.ndarray:
    """Standard-normal draws for every die: read-only ``(n_dies, stride)``.

    Row ``i`` holds the first ``stride`` values of
    ``default_rng(SeedSequence(int(seeds[i])))`` — callers slice the row
    into their documented per-die draw layout.  Rows are cached across
    calls (and across simulator stages) under a content hash of the seed
    array plus the stride.
    """
    seeds = np.ascontiguousarray(die_seed_array(seeds))
    if stride < 1:
        raise SimulationError(f"stride must be >= 1, got {stride}")
    key = (hashlib.sha256(seeds.tobytes()).hexdigest(), int(stride))
    with _BANK_LOCK:
        cached = _BANK_CACHE.get(key)
        if cached is not None:
            _BANK_CACHE.move_to_end(key)
            return cached
    bank = np.empty((seeds.size, stride))
    for i, seed in enumerate(seeds):
        die_rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
        die_rng.standard_normal(out=bank[i])
    bank.flags.writeable = False
    with _BANK_LOCK:
        _BANK_CACHE[key] = bank
        total = sum(b.shape[0] for b in _BANK_CACHE.values())
        while total > _BANK_CACHE_MAX_ROWS and len(_BANK_CACHE) > 1:
            _, evicted = _BANK_CACHE.popitem(last=False)
            total -= evicted.shape[0]
    return bank
