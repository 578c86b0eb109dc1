"""JSON-lines wire protocol for the estimation service.

One request per line on stdin, one response per line on stdout — the
transport every tester harness and glue script speaks.  A request is a
JSON object with an ``op`` field; a response always carries ``"ok"``:

.. code-block:: text

    {"op": "create", "key": "lna/tt", "prior_mean": [...], "prior_covariance": [[...]]}
    {"ok": true, "op": "create", "key": "lna/tt", "dim": 5}

    {"op": "bogus"}
    {"ok": false, "op": "bogus", "error": "ConfigError", "message": "..."}

Supported operations (full field reference in ``docs/SERVING.md``):

=============  ==============================================================
``ping``       liveness probe; echoes ``{"ok": true, "op": "ping"}``
``create``     register a session from explicit prior moments
``ingest``     fold a sample block (``samples``) or shard sufficient
               statistics (``stats``) into a session
``estimate``   MAP ``(mu, Sigma)`` of a session
``loglik``     joint log-likelihood of ``x`` under the session's MAP
``yield``      box-probability yield for ``lower``/``upper`` spec bounds
``sessions``   list live session keys
``drop``       remove a session
``stats``      service counter snapshot
``checkpoint`` atomic snapshot of the full service state to ``path``
``shutdown``   stop the serve loop (after responding)
=============  ==============================================================

Errors never kill the loop: any :class:`~repro.exceptions.ReproError` or
malformed-input error is reported on the offending response line and the
loop keeps reading.  Queries taken through this module use the service's
synchronous batch path (``query_many``) — a single stdin reader gains
nothing from cross-request coalescing, and determinism is worth more on
the wire.

**Zero-copy arrays.**  Every array-valued request field (``samples``,
``prior_mean``, ``x``, spec bounds, suffstats ``mean``/``scatter``)
accepts either a nested JSON list or the ``b64f64`` envelope::

    {"encoding": "b64f64", "shape": [n, d], "data": "<base64 of raw <f8>"}

i.e. the array's little-endian float64 buffer, base64-wrapped to stay
inside JSON-lines framing.  This skips the tolist/parse round-trip (and
its per-float formatting cost) on the ingest hot path; decoding is one
``base64`` pass, read-only over its bytes.  A request that carries
``"encoding": "b64f64"`` at the top level gets its array-valued
*response* fields (``estimate``'s mean/covariance) in the same envelope.
Both encodings are bit-exact: ``float.__repr__`` round-trips, and raw
bytes trivially so.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import re
import sys
from typing import Any, Callable, Dict, IO, Iterable, Optional

import numpy as np

from repro.exceptions import ConfigError, ReproError
from repro.schemas import canonical_json, parse_json
from repro.serving.router import ShardedMomentService
from repro.core.prior import PriorKnowledge
from repro.stats.suffstats import SufficientStats

__all__ = [
    "handle_request",
    "serve_loop",
    "PROTOCOL_OPS",
    "WIRE_B64F64",
    "encode_array",
    "decode_array",
]

#: Marker value of the zero-copy float64 array envelope.
WIRE_B64F64 = "b64f64"
_WIRE_F8 = np.dtype("<f8")
_BASE64 = re.compile("[A-Za-z0-9+/]*={0,2}")

#: Operations the wire protocol accepts.
PROTOCOL_OPS = (
    "ping",
    "create",
    "ingest",
    "estimate",
    "loglik",
    "yield",
    "sessions",
    "drop",
    "stats",
    "checkpoint",
    "shutdown",
)


def encode_array(values: Any) -> Dict[str, Any]:
    """Wrap an array in the ``b64f64`` envelope (raw LE float64 + base64)."""
    arr = np.ascontiguousarray(np.asarray(values, dtype="<f8"))
    return {
        "encoding": WIRE_B64F64,
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def decode_array(value: Any) -> np.ndarray:
    """Accept a nested list *or* a ``b64f64`` envelope; return float64.

    The permissive side of the wire: clients choose per-field, and both
    paths produce bit-identical arrays: a list a new writable one, an
    envelope a read-only view of its decoded bytes (no copy).  Its ``data``
    must be the padded standard base64 of ``8 * prod(shape)`` bytes; else
    :class:`~repro.exceptions.ConfigError` names the first fault.
    """
    if not isinstance(value, dict):
        return np.asarray(value, dtype=float)
    shape, data = value.get("shape"), value.get("data")
    try:
        raw = binascii.a2b_base64(data)
        array = np.ndarray(shape, _WIRE_F8, raw)
    except (TypeError, ValueError):
        array = None
    # a2b_base64 skips stray characters, so a string of exactly the padded
    # length that decodes to exactly the array's bytes is pure base64
    if (
        array is None
        or value.get("encoding") != WIRE_B64F64
        or type(shape) is not list
        or array.nbytes != len(raw)
        or len(data) != (len(raw) + 2) // 3 * 4
    ):
        raise _envelope_error(value)
    return array


def _envelope_error(value: Dict[str, Any]) -> ConfigError:
    """The refusal of a malformed ``b64f64`` envelope, naming its first fault."""
    encoding, shape, data = value.get("encoding"), value.get("shape"), value.get("data")
    if encoding != WIRE_B64F64:
        return ConfigError(f"unknown array encoding {encoding!r} (expected {WIRE_B64F64!r})")
    if not isinstance(data, str):
        return ConfigError(f"{WIRE_B64F64} envelope requires a data string")
    if not isinstance(shape, list):
        return ConfigError(f"{WIRE_B64F64} envelope requires a shape list")
    if not all(type(extent) is int and extent >= 0 for extent in shape):
        return ConfigError(f"{WIRE_B64F64} shape {shape} must list non-negative integers")
    if len(data) % 4 or not _BASE64.fullmatch(data):
        return ConfigError(f"undecodable {WIRE_B64F64} data: not padded standard base64")
    return ConfigError(
        f"{WIRE_B64F64} payload holds {len(binascii.a2b_base64(data))} bytes "
        f"but shape {shape} needs {8 * math.prod(shape)}"
    )


def _decode_stats(payload: Any) -> SufficientStats:
    """Suffstats from the wire; ``mean``/``scatter`` may be ``b64f64``."""
    if isinstance(payload, dict) and (
        isinstance(payload.get("mean"), dict) or isinstance(payload.get("scatter"), dict)
    ):
        payload = dict(payload)
        payload["mean"] = decode_array(payload.get("mean"))
        payload["scatter"] = decode_array(payload.get("scatter"))
    return SufficientStats.from_dict(payload)


def _require(request: Dict[str, Any], field: str) -> Any:
    try:
        return request[field]
    except KeyError:
        raise ConfigError(
            f"request op {request.get('op')!r} requires field {field!r}"
        ) from None


def _op_ping(service: ShardedMomentService, request: Dict[str, Any]) -> Dict[str, Any]:
    del service, request
    return {}


def _op_create(service: ShardedMomentService, request: Dict[str, Any]) -> Dict[str, Any]:
    key = str(_require(request, "key"))
    prior = PriorKnowledge.shared(
        decode_array(_require(request, "prior_mean")),
        decode_array(_require(request, "prior_covariance")),
        int(request.get("prior_n_samples", 0)),
    )
    kappa0 = request.get("kappa0")
    v0 = request.get("v0")
    session = service.create_session(
        key,
        prior,
        kappa0=None if kappa0 is None else float(kappa0),
        v0=None if v0 is None else float(v0),
        exist_ok=bool(request.get("exist_ok", False)),
    )
    return {
        "key": session.key,
        "dim": session.dim,
        "kappa0": session.kappa0,
        "v0": session.v0,
        "n": service.row_count(key),
    }


def _op_ingest(service: ShardedMomentService, request: Dict[str, Any]) -> Dict[str, Any]:
    key = str(_require(request, "key"))
    if "stats" in request:
        stats = _decode_stats(request["stats"])
        total = service.ingest_stats(key, stats)
        folded = stats.n
    else:
        samples = decode_array(_require(request, "samples"))
        total = service.ingest(key, samples)
        folded = 1 if samples.ndim == 1 else int(samples.shape[0])
    return {"key": key, "ingested": folded, "n": total}


def _op_estimate(service: ShardedMomentService, request: Dict[str, Any]) -> Dict[str, Any]:
    key = str(_require(request, "key"))
    estimate = service.query_many([("estimate", key, None)])[0]
    binary = request.get("encoding") == WIRE_B64F64
    return {
        "key": key,
        "mean": encode_array(estimate.mean) if binary else estimate.mean.tolist(),
        "covariance": (
            encode_array(estimate.covariance)
            if binary
            else estimate.covariance.tolist()
        ),
        "n": estimate.n_samples,
        "method": estimate.method,
        "info": dict(estimate.info),
    }


def _op_loglik(service: ShardedMomentService, request: Dict[str, Any]) -> Dict[str, Any]:
    key = str(_require(request, "key"))
    x = decode_array(_require(request, "x"))
    value = service.query_many([("loglik", key, x)])[0]
    return {"key": key, "loglik": float(value)}


def _op_yield(service: ShardedMomentService, request: Dict[str, Any]) -> Dict[str, Any]:
    key = str(_require(request, "key"))
    lower = decode_array(_require(request, "lower"))
    upper = decode_array(_require(request, "upper"))
    value = service.query_many([("yield", key, (lower, upper))])[0]
    return {"key": key, "yield": float(value)}


def _op_sessions(service: ShardedMomentService, request: Dict[str, Any]) -> Dict[str, Any]:
    del request
    return {"sessions": service.session_keys()}


def _op_drop(service: ShardedMomentService, request: Dict[str, Any]) -> Dict[str, Any]:
    key = str(_require(request, "key"))
    return {"key": key, "dropped": service.drop_session(key)}


def _op_stats(service: ShardedMomentService, request: Dict[str, Any]) -> Dict[str, Any]:
    del request
    return {"stats": service.stats()}


def _op_checkpoint(service: ShardedMomentService, request: Dict[str, Any]) -> Dict[str, Any]:
    path = str(_require(request, "path"))
    sha256 = service.checkpoint(path)
    return {"path": path, "sha256": sha256}


_HANDLERS: Dict[str, Callable[[ShardedMomentService, Dict[str, Any]], Dict[str, Any]]] = {
    "ping": _op_ping,
    "create": _op_create,
    "ingest": _op_ingest,
    "estimate": _op_estimate,
    "loglik": _op_loglik,
    "yield": _op_yield,
    "sessions": _op_sessions,
    "drop": _op_drop,
    "stats": _op_stats,
    "checkpoint": _op_checkpoint,
}


def handle_request(service: ShardedMomentService, line: str) -> Dict[str, Any]:
    """Decode one request line, execute it, and return the response dict.

    Never raises for client mistakes — malformed JSON, unknown ops,
    missing fields, and estimator errors all come back as
    ``{"ok": false, "error": <class>, "message": <detail>}`` so a stream
    of requests degrades per-line rather than tearing the session down.
    """
    op: Optional[str] = None
    try:
        request = parse_json(line)
        if not isinstance(request, dict):
            raise ConfigError("request must be a JSON object")
        op = str(request.get("op"))
        if op == "shutdown":
            return {"ok": True, "op": "shutdown"}
        handler = _HANDLERS.get(op)
        if handler is None:
            raise ConfigError(
                f"unknown op {op!r}; expected one of {sorted(PROTOCOL_OPS)}"
            )
        response = handler(service, request)
    except json.JSONDecodeError as exc:
        return {
            "ok": False,
            "op": op,
            "error": "JSONDecodeError",
            "message": str(exc),
        }
    except (ReproError, TypeError, ValueError, KeyError) as exc:
        return {
            "ok": False,
            "op": op,
            "error": type(exc).__name__,
            "message": str(exc),
        }
    # each handler returns a fresh body: complete it in place
    response["ok"] = True
    response["op"] = op
    return response


def serve_loop(
    service: ShardedMomentService,
    lines: Optional[Iterable[str]] = None,
    out: Optional[IO[str]] = None,
) -> int:
    """Run the JSON-lines loop until ``shutdown``, end of input, or a
    closed output pipe.

    Returns the number of requests handled.  ``lines``/``out`` default to
    stdin/stdout; injectable for tests.  Each response is flushed as soon
    as it is written so piped clients see replies promptly, and a client
    that hangs up (``BrokenPipeError`` on write/flush) ends the loop
    cleanly — the response that could not be delivered does not count as
    handled, and no traceback escapes.
    """
    source = sys.stdin if lines is None else lines
    sink = sys.stdout if out is None else out
    handled = 0
    # An update whose scatter overflows answers NotSPDError; the overflow
    # (and the inf - inf an overflowed mean leaves in the scatter) is that
    # refusal, so NumPy's RuntimeWarning is not printed as well.  One
    # errstate for the whole loop: entering one per request would cost a
    # sizeable share of a small ingest.
    with np.errstate(over="ignore", invalid="ignore"):
        for raw in source:
            line = raw.strip()
            if not line:
                continue
            response = handle_request(service, line)
            try:
                sink.write(canonical_json(response) + "\n")
                sink.flush()
            except BrokenPipeError:
                break
            handled += 1
            if response.get("op") == "shutdown" and response.get("ok"):
                break
    return handled
