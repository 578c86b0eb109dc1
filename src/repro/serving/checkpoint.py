"""Atomic checkpoint / restore of full serving state.

A long-running estimation service accumulates state that is expensive or
impossible to regenerate (silicon measurements trickle in once); the
checkpoint makes it durable with three guarantees:

* **Exactness** — sufficient statistics, priors, logical clocks, and
  counters are serialized as JSON floats, which round-trip IEEE-754
  doubles bit-for-bit (``float.__repr__`` is shortest-round-trip), so a
  restored service answers queries *bit-identically* to the uninterrupted
  one — TTL eviction decisions included, because time is logical.
* **Integrity** — the payload carries a sha256 over its canonical JSON
  encoding; a flipped bit or truncated file fails loudly at load.
* **Crash safety** — writes go to a temporary file in the target
  directory, are fsync'd, then atomically renamed over the destination;
  a crash mid-write leaves the previous checkpoint intact.

Versioning follows the :mod:`repro.schemas` convention: a ``schema``
marker plus an integer ``schema_version`` checked through
:func:`repro.schemas.check_schema_version`, so files written by a newer layout
are rejected with :class:`~repro.exceptions.SchemaVersionError` instead
of being misdecoded.

**Interaction with group-committed WALs** — when the serving layer runs
a write-ahead log with group commit (``flush_records``/``flush_bytes``
> 1 record), acknowledged records may still sit in the WAL's in-memory
buffer. Checkpoint writers MUST therefore call ``wal.sync()`` (flush +
fsync) *before* ``save_checkpoint`` so the durable WAL prefix covers
every mutation captured in the checkpointed state; the shard workers in
:mod:`repro.serving.worker` enforce this ordering. Without the barrier a
crash between checkpoint and WAL flush could leave a checkpoint that
references seqnos the log never persisted, breaking replay-from-
checkpoint recovery.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.exceptions import ConfigError
from repro.schemas import (
    CHECKPOINT_SCHEMA,
    canonical_json,
    check_schema_version,
    write_json_atomic,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_SCHEMA_VERSION",
    "save_checkpoint",
    "load_checkpoint",
]

PathLike = Union[str, Path]

#: ``CHECKPOINT_SCHEMA`` (re-exported above) comes from :mod:`repro.schemas`,
#: the single source of truth for artefact version markers.

#: Structural version; bump on any breaking change to the state layout.
CHECKPOINT_SCHEMA_VERSION = 1


def _digest(state: Dict[str, Any]) -> str:
    """sha256 over the canonical encoding of the versioned state."""
    document = {
        "schema": CHECKPOINT_SCHEMA,
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "state": state,
    }
    return hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()


def save_checkpoint(state: Dict[str, Any], path: PathLike) -> str:
    """Write a service state dictionary atomically; returns the sha256.

    ``state`` is what :meth:`repro.serving.worker.ShardWorker.state_dict`
    produces (the function itself is agnostic — any JSON-safe dict works,
    which keeps it testable in isolation).
    """
    payload = {
        "schema": CHECKPOINT_SCHEMA,
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "sha256": _digest(state),
        "state": state,
    }
    write_json_atomic(payload, path)
    return str(payload["sha256"])


def load_checkpoint(path: PathLike) -> Dict[str, Any]:
    """Read, verify, and return the state dictionary of a checkpoint.

    Raises
    ------
    ConfigError
        Not a checkpoint file, or the sha256 does not match (corruption,
        truncation, or manual edits).
    SchemaVersionError
        The file declares a version this reader does not support.
    """
    target = Path(path)
    try:
        payload = json.loads(target.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"checkpoint {target} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != CHECKPOINT_SCHEMA:
        raise ConfigError(
            f"{target} is not a serving checkpoint "
            f"(schema {payload.get('schema') if isinstance(payload, dict) else None!r}, "
            f"expected {CHECKPOINT_SCHEMA!r})"
        )
    check_schema_version(payload, CHECKPOINT_SCHEMA_VERSION, "serving checkpoint")
    state = payload.get("state")
    if not isinstance(state, dict):
        raise ConfigError(f"checkpoint {target} has no state dictionary")
    declared = payload.get("sha256")
    actual = _digest(state)
    if declared != actual:
        raise ConfigError(
            f"checkpoint {target} failed integrity verification "
            f"(declared sha256 {declared!r}, computed {actual!r})"
        )
    return state
