"""Canonical schema/version registry + the encodings those schemas pin.

Every durable or wire-crossing artefact in this code base carries a
version marker of the shape ``repro.<artefact>.v<N>`` (or, for the
benchmark trajectories, ``repro-bench-trajectory/v<N>``).  Those markers
are *contracts*: readers reject unknown versions instead of misdecoding,
and sha256 chains/digests are computed over encodings that embed them.
This module is their single source of truth — reprolint rule RPL009
flags any matching string literal defined anywhere else, so a version
bump (or a new artefact) is always one edit here plus the code that
understands it, never a drift of scattered copies.

Alongside the markers live the two primitives every versioned artefact
is built on, placed here (the bottom architectural layer) so every layer
— ``stats`` wire encodings and ``bench`` trajectories included — can
reach them without a layering back-edge:

* :func:`canonical_json` — the one canonical JSON encoding used for
  every hashed payload, and :func:`parse_json`, its fast ``json.loads``
  twin for request lines and log metadata;
* :func:`check_schema_version` — the reader-side check of a payload's
  integer ``schema_version``;
* :func:`fsync_dir` — the directory-fsync half of the crash-safe
  ``flush -> fsync -> os.replace -> fsync_dir`` write pattern that
  reprolint rule RPL008 enforces;
* :func:`write_json_atomic` — the full pattern packaged, so it has
  exactly one implementation (RPL008 flags hand-rolled copies).
"""

from __future__ import annotations

import json
import os
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence, Union

from repro.exceptions import SchemaVersionError

__all__ = [
    "RESULT_SCHEMA",
    "CHECKPOINT_SCHEMA",
    "WAL_SCHEMA_V1",
    "WAL_SCHEMA_V2",
    "WAL2_MAGIC",
    "MANIFEST_SCHEMA",
    "TRAJECTORY_SCHEMA",
    "SCENARIO_SCHEMA",
    "ALL_SCHEMAS",
    "canonical_json",
    "parse_json",
    "check_schema_version",
    "fsync_dir",
    "write_json_atomic",
]

PathLike = Union[str, Path]

#: Serialized pipeline results (:mod:`repro.io`).
RESULT_SCHEMA = "repro.pipeline-result.v1"

#: Serving checkpoints (:mod:`repro.serving.checkpoint`).
CHECKPOINT_SCHEMA = "repro.serving-checkpoint.v1"

#: Write-ahead log, retired v1 JSON-lines format: no longer written or read;
#: :mod:`repro.serving.wal` names it when it refuses such a log.
WAL_SCHEMA_V1 = "repro.serving-wal.v1"

#: Write-ahead log, v2 binary-frame format (:mod:`repro.serving.wal`).
WAL_SCHEMA_V2 = "repro.serving-wal.v2"

#: First bytes of every v2 log file, derived from the schema marker so the
#: two can never disagree (human-readable even in binary dumps).
WAL2_MAGIC = b"#" + WAL_SCHEMA_V2.encode("ascii") + b"\n"

#: Sharded-checkpoint manifest (:mod:`repro.serving.router`).
MANIFEST_SCHEMA = "repro.serving-shards.v1"

#: Append-only benchmark trajectory documents (:mod:`repro.bench.trajectory`).
TRAJECTORY_SCHEMA = "repro-bench-trajectory/v1"

#: Declarative scenario documents (:mod:`repro.scenarios.spec`).
SCENARIO_SCHEMA = "repro.scenario.v1"

#: Every known artefact marker, for tooling and exhaustiveness tests.
ALL_SCHEMAS = (
    RESULT_SCHEMA,
    CHECKPOINT_SCHEMA,
    WAL_SCHEMA_V1,
    WAL_SCHEMA_V2,
    MANIFEST_SCHEMA,
    TRAJECTORY_SCHEMA,
    SCENARIO_SCHEMA,
)


#: The one encoder behind :func:`canonical_json`.  ``json.dumps`` with
#: non-default arguments builds a new encoder per call; ``encode`` keeps no
#: state on the instance between calls, so one shared instance is safe
#: across threads and writes the same bytes.
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _canonical_scanner() -> Optional[Callable[[Any, int], Sequence[str]]]:
    """The C scanner ``_CANONICAL_ENCODER.encode`` builds on every call
    (CPython 3.9-3.13 share this constructor), built once; ``None`` where
    the ``_json`` accelerator is missing or takes other arguments.

    It gets no circular-reference table, so a self-containing payload
    raises ``RecursionError`` rather than ``ValueError``.  It keeps no
    other state, so one instance is safe across threads.
    """
    if c_make_encoder is None:
        return None
    try:
        return c_make_encoder(
            None, _CANONICAL_ENCODER.default, encode_basestring_ascii, None,
            ":", ",", True, False, True,
        )
    except TypeError:
        return None


_CANONICAL_SCAN = _canonical_scanner()


def canonical_json(payload: Any) -> str:
    """The one canonical JSON encoding used for every hashed artefact.

    Sorted keys, no whitespace — so a sha256 over the encoding is a
    well-defined function of the *value*, not of dict insertion order or
    formatting.  Floats go through ``float.__repr__`` (shortest round
    trip), which preserves IEEE-754 doubles bit-for-bit.  The bytes equal
    ``json.dumps(payload, sort_keys=True, separators=(",", ":"))``.
    """
    if _CANONICAL_SCAN is None:
        return _CANONICAL_ENCODER.encode(payload)
    return "".join(_CANONICAL_SCAN(payload, 0))


#: The one decoder behind :func:`parse_json` (``json.loads`` with default
#: arguments uses an equivalent shared instance, but only behind a
#: whitespace scan and an end-of-input check per call).
_raw_decode = json.JSONDecoder().raw_decode


def parse_json(text: Union[str, bytes]) -> Any:
    """``json.loads(text)``: the same value, or the same error text.

    The common input is exactly one JSON value (a request line, or the
    :func:`canonical_json` meta of a log frame), which one ``raw_decode``
    parses.  Anything else — bytes, leading or trailing whitespace, extra
    data, malformed input — goes to ``json.loads``, which raises (or
    returns) exactly what it always did.
    """
    if isinstance(text, str):
        try:
            value, end = _raw_decode(text)
        except json.JSONDecodeError:
            pass
        else:
            if end == len(text):
                return value
    return json.loads(text)


def check_schema_version(
    payload: Dict, supported: int, name: str, default: int = 1
) -> int:
    """Validate the ``schema_version`` field of a serialized artefact.

    Returns the declared version.  A payload without the field is treated
    as ``default`` (files written before versioning existed); anything
    other than ``supported`` raises :class:`~repro.exceptions.SchemaVersionError`
    — previously unknown future versions loaded silently and produced
    whatever the old field layout happened to decode to.
    """
    version = payload.get("schema_version", default)
    if not isinstance(version, int) or isinstance(version, bool):
        raise SchemaVersionError(
            f"{name}: schema_version must be an integer, got {version!r}"
        )
    if version != supported:
        raise SchemaVersionError(
            f"{name}: unsupported schema_version {version} "
            f"(this reader supports version {supported}); "
            "upgrade the repro package to read this file"
        )
    return version


def fsync_dir(path: PathLike) -> None:
    """Fsync a directory so a rename inside it survives power loss.

    ``os.replace`` makes a rename atomic against crashes of *this*
    process, but the rename itself lives in the directory entry — until
    the directory is fsync'd, a power cut can roll it back.  Platforms
    that cannot open or fsync directories (e.g. Windows) make this a
    no-op, which matches their rename-durability semantics anyway.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_json_atomic(payload: Any, path: PathLike, canonical: bool = True) -> str:
    """Write a JSON document crash-safely; returns the encoded text.

    The bytes go to a temporary file in the target directory, are fsync'd,
    then atomically renamed over the destination (``os.replace``) and the
    parent directory is fsync'd so the rename is durable — a crash
    mid-write leaves the previous file intact.  With ``canonical`` the
    encoding is :func:`canonical_json` (hash-stable); otherwise an
    indented human-readable form.
    """
    target = Path(path)
    encoded = canonical_json(payload) if canonical else json.dumps(payload, indent=2)
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(encoded)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)
    fsync_dir(target.parent)
    return encoded
