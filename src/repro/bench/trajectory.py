"""Append-only benchmark trajectory files (``BENCH_*.json``).

Benchmark scripts used to overwrite their ``BENCH_*.json`` with a single
snapshot, so a regression was only visible if the reviewer happened to
diff the file against git history.  A *trajectory* keeps every run::

    {
      "schema": "repro-bench-trajectory/v1",
      "benchmark": "mc",
      "history": [
        {"timestamp": ..., "config": {...}, "environment": {...},
         "results": {...}},
        ...
      ]
    }

``history`` is append-only and chronologically ordered (oldest first), so
``history[-1]`` is always the latest run and the file itself shows the
performance trajectory across commits.  A file that declares no
``schema`` is refused, like one that declares an unknown schema.

Writes are atomic (temp file + ``os.replace``) so a crashed benchmark run
can never leave a torn file behind.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.exceptions import ConfigError, SchemaVersionError
from repro.schemas import TRAJECTORY_SCHEMA, write_json_atomic

__all__ = [
    "TRAJECTORY_SCHEMA",
    "utc_timestamp",
    "environment_info",
    "load_trajectory",
    "append_entry",
]

#: Schema identifier stamped into every trajectory document.
# TRAJECTORY_SCHEMA (re-exported in __all__) is defined in repro.schemas,
# the single source of truth for artefact version markers.


def utc_timestamp() -> str:
    """Current UTC time as an ISO-8601 string (second resolution).

    Benchmark trajectories are measurement logs, not seeded replication
    artefacts: the timestamp annotates *when* a wall-clock measurement was
    taken and is never consumed by library code, so the determinism rule
    does not apply here.
    """
    now = datetime.datetime.now(datetime.timezone.utc)  # reprolint: disable=RPL006 -- benchmark log timestamp, never in a seeded path
    return now.strftime("%Y-%m-%dT%H:%M:%SZ")


def environment_info() -> Dict[str, Any]:
    """The environment fingerprint recorded with every trajectory entry.

    The numpy and scipy versions are recorded (scipy as ``None`` when it
    cannot be imported), so a speedup regression can be traced to a
    dependency change rather than a code change.  ``cpu_count`` is the machine's CPU count and
    ``affinity_cpus`` the CPUs this process may run on (``None`` where the
    platform cannot say).
    """
    import numpy

    info: Dict[str, Any] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "affinity_cpus": (
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
        ),
    }
    try:
        import scipy

        info["scipy"] = str(scipy.__version__)
    except ImportError:
        info["scipy"] = None
    return info


def load_trajectory(
    path: Union[str, Path], benchmark: str
) -> Dict[str, Any]:
    """Load the trajectory document at ``path``.

    A missing file yields an empty trajectory.  A document with no
    ``"schema"`` key raises :class:`~repro.exceptions.ConfigError`; one
    declaring an unknown schema raises
    :class:`~repro.exceptions.SchemaVersionError` rather than guessing.
    """
    path = Path(path)
    if not path.exists():
        return {"schema": TRAJECTORY_SCHEMA, "benchmark": benchmark, "history": []}
    try:
        document = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"unreadable benchmark file {path}: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError(f"benchmark file {path} is not a JSON object")
    schema = document.get("schema")
    if schema is None:
        raise ConfigError(
            f"benchmark file {path} declares no schema; expected {TRAJECTORY_SCHEMA!r}"
        )
    if schema != TRAJECTORY_SCHEMA:
        raise SchemaVersionError(
            f"benchmark file {path} declares schema {schema!r}; this reader "
            f"understands {TRAJECTORY_SCHEMA!r}"
        )
    history = document.get("history")
    if not isinstance(history, list):
        raise ConfigError(f"benchmark file {path} has no history array")
    return document


def append_entry(
    path: Union[str, Path],
    benchmark: str,
    config: Dict[str, Any],
    results: Dict[str, Any],
    environment: Optional[Dict[str, Any]] = None,
    timestamp: Optional[str] = None,
) -> Dict[str, Any]:
    """Append one run to the trajectory at ``path`` and write it atomically.

    Returns the full document after the append (``history[-1]`` is the
    entry just written).  ``environment`` defaults to
    :func:`environment_info`; ``timestamp`` defaults to
    :func:`utc_timestamp`.
    """
    path = Path(path)
    document = load_trajectory(path, benchmark)
    entry = {
        "timestamp": timestamp if timestamp is not None else utc_timestamp(),
        "config": config,
        "environment": (
            environment if environment is not None else environment_info()
        ),
        "results": results,
    }
    document["benchmark"] = benchmark
    document["history"].append(entry)
    write_json_atomic(document, path, canonical=False)
    return document
