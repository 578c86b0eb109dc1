"""Benchmark infrastructure shared by the ``scripts/``/``benchmarks/`` harnesses.

Layer-0 utility package: it depends only on :mod:`repro.exceptions` so any
benchmark script — whatever layer it exercises — can record its numbers
without creating an import cycle.
"""

from repro.bench.timing import best_of, best_of_batched
from repro.bench.trajectory import (
    TRAJECTORY_SCHEMA,
    append_entry,
    environment_info,
    load_trajectory,
    utc_timestamp,
)

__all__ = [
    "TRAJECTORY_SCHEMA",
    "append_entry",
    "best_of",
    "best_of_batched",
    "environment_info",
    "load_trajectory",
    "utc_timestamp",
]
