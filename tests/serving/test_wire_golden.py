"""Byte identity of the JSON-lines wire.

A fixed request script goes through ``serve_loop`` on both service entry
points, and a set of edge-case lines through ``handle_request``; the
sha256 of each transcript is pinned.  Any change to the encoder, the
request parse, the routing layer's acknowledgements or an error message
shows up here as a digest mismatch.  Properties then pin the two
primitives against the standard library: ``canonical_json`` against
``json.dumps`` with the same arguments, and the request parse against
``json.loads`` (same value, or the same ``JSONDecodeError`` text).
"""

import base64
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.schemas import canonical_json
from repro.serving import ShardedMomentService, ShardWorker, handle_request, protocol, serve_loop


def _b64(values, shape):
    data = np.asarray(values, dtype="<f8").reshape(shape).tobytes()
    return {"encoding": "b64f64", "shape": list(shape), "data": base64.b64encode(data).decode()}


PRIOR_A = {"prior_mean": [0.5, -0.25], "prior_covariance": [[2.0, 0.5], [0.5, 1.0]]}
PRIOR_B = {
    "prior_mean": _b64([1.0, 3.0], (2,)),
    "prior_covariance": _b64([1.5, -0.25, -0.25, 0.75], (2, 2)),
}


def _line(**request):
    return json.dumps(request)


#: Every op except ``stats`` (latency fields vary) and ``checkpoint``
#: (the path varies), both array encodings, malformed lines, and lines
#: after ``shutdown`` that must not be read.
SCRIPT = [
    _line(op="ping"),
    _line(op="create", key="a", kappa0=2.0, v0=5.0, **PRIOR_A),
    _line(op="create", key="b", kappa0=4.0, v0=7.5, prior_n_samples=20, **PRIOR_B),
    _line(op="create", key="a", exist_ok=True, **PRIOR_A),
    _line(op="create", key="a", **PRIOR_A),
    _line(op="create", key="ключ/µ", **PRIOR_A),
    _line(op="ingest", key="a", samples=[0.25, 1.5]),
    _line(op="ingest", key="a", samples=[[1.0, -1.0], [0.125, 0.5], [-2.0, 0.75]]),
    _line(op="ingest", key="b", samples=_b64([1, 2, 3, 4, 0.5, 0.25, -1, 7], (4, 2))),
    _line(op="ingest", key="a", stats={"n": 3, "mean": [0.5, 0.5], "scatter": [[2.0, 0.5], [0.5, 1.0]]}),
    _line(
        op="ingest",
        key="b",
        stats={"n": 2, "mean": _b64([2.0, 1.0], (2,)), "scatter": _b64([1, 0, 0, 1], (2, 2))},
    ),
    _line(op="ingest", key="ключ/µ", samples=[1e-05, 1e16]),
    _line(op="estimate", key="a"),
    _line(op="estimate", key="b", encoding="b64f64"),
    _line(op="loglik", key="a", x=[0.1, 0.2]),
    _line(op="loglik", key="b", x=[[0.1, 0.2], [1.0, 2.0]]),
    _line(op="yield", key="b", lower=[-1.0, 0.0], upper=[3.0, 5.0]),
    _line(op="sessions"),
    _line(op="drop", key="b"),
    _line(op="drop", key="b"),
    _line(op="estimate", key="b"),
    "not json",
    "[1, 2]",
    '{"op":"ping"} trailing',
    '{"op":"ping"}{"op":"ping"}',
    _line(op="bogus"),
    _line(op="ingest", key="a"),
    _line(op="ingest", key="a", samples={"encoding": "b64f64", "shape": [1, 2], "data": "AAAA"}),
    _line(op="ingest", key="a", samples={"encoding": "hex", "shape": [2], "data": "00"}),
    '{"op": "loglik", "key": "a", "x": [NaN, 0.5]}',
    '{"op": "yield", "key": "a", "lower": [-Infinity, 0.0], "upper": [Infinity, Infinity]}',
    "",
    '   {"op": "estimate", "key": "a"}   ',
    _line(op="shutdown"),
    _line(op="ping"),
]

#: Lines fed to ``handle_request`` directly, past ``serve_loop``'s strip.
EDGE_LINES = [
    '  {"op":"ping"}',
    '{"op":"ping"}  ',
    '\n{"op":"ping"}\n',
    '{"op":"ping"}{"op":"ping"}',
    '{"op":"ping"} {"op":"ping"}',
    '\ufeff{"op":"ping"}',
    b'{"op":"ping"}',
    "",
    "   ",
    "{",
    '{"op": "ping", }',
    "NaN",
    "-Infinity",
    '"ping"',
]

#: sha256 of each transcript; any edit to the script needs new digests.
SERVE_LOOP_DIGESTS = {
    "worker": "e43826733f5dadaac7c693c69ecce2a54c10ad8d72293be038f0758b91a15618",
    "router": "cd6afeec220db9e166f660f6efcd9115dd7e65e13487ce5e82f70543a2d26da4",
}
EDGE_DIGEST = "a545198eb3466fa2e944f5ab21b89f2f5075d7e4a2c01d5b056c884ed47583fe"


#: The two entry points: a bare worker, and a coalescing two-shard router.
SERVICES = {
    "worker": ShardWorker,
    "router": lambda: ShardedMomentService(n_shards=2, flush_rows=4),
}


def serve_loop_transcript(name):
    out = io.StringIO()
    with SERVICES[name]() as service:
        handled = serve_loop(service, SCRIPT, out=out)
    return handled, out.getvalue()


def edge_transcript():
    with ShardWorker() as service:
        return "".join(canonical_json(handle_request(service, line)) + "\n" for line in EDGE_LINES)


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(SERVE_LOOP_DIGESTS))
def test_serve_loop_bytes_are_pinned(name):
    handled, transcript = serve_loop_transcript(name)
    assert handled == len([line for line in SCRIPT if line.strip()]) - 1
    assert _sha256(transcript) == SERVE_LOOP_DIGESTS[name]


def test_handle_request_edge_lines_are_pinned():
    assert _sha256(edge_transcript()) == EDGE_DIGEST


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
)
_json_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_canonical_json_matches_json_dumps(value):
    assert canonical_json(value) == json.dumps(value, sort_keys=True, separators=(",", ":"))


def _echo(service, request):
    del service
    return {"value": request["value"]}


def _via_protocol(line):
    response = handle_request(None, line)
    if response["ok"]:
        return "value", response["value"]
    assert response["error"] == "JSONDecodeError", response
    return "error", response["message"]


def _via_json_loads(line):
    try:
        return "value", json.loads(line)["value"]
    except json.JSONDecodeError as exc:
        return "error", str(exc)


_padding = st.sampled_from(["", " ", "\n", "\t ", "x", "}", "{}", ",", "\ufeff"])


@settings(max_examples=300, deadline=None)
@given(_json_values, _padding, _padding, st.integers(min_value=0, max_value=60))
def test_request_parse_matches_json_loads(value, before, after, cut):
    """What ``handle_request`` parses equals ``json.loads`` of the same
    line: the same value, or a ``JSONDecodeError`` with the same text."""
    request = {"op": "echo", "value": value}
    text = canonical_json(request)
    lines = [text, before + text + after, text[:cut], json.dumps(request, indent=1)]
    lines.append(lines[1].encode("utf-8"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(protocol._HANDLERS, "echo", _echo)
        for line in lines:
            got, want = _via_protocol(line), _via_json_loads(line)
            assert got[0] == want[0]
            # compared through the encoder, so a parsed NaN equals itself
            assert canonical_json(got[1]) == canonical_json(want[1])
