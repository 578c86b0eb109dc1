"""JSON-lines protocol: every op, error containment, the serve loop."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigError
from repro.serving import (
    ShardedMomentService,
    ShardWorker,
    decode_array,
    encode_array,
    handle_request,
    serve_loop,
)

D = 3


@pytest.fixture
def service():
    with ShardWorker() as svc:
        yield svc


class RouterService:
    """Mixin: rerun a protocol suite against the other entry point, a
    two-shard router with coalesced ingest."""

    @pytest.fixture
    def service(self):
        with ShardedMomentService(n_shards=2, flush_rows=4) as svc:
            yield svc


@pytest.fixture
def prior_fields(rng):
    a = rng.standard_normal((D, D))
    cov = a @ a.T + D * np.eye(D)
    return {
        "prior_mean": rng.standard_normal(D).tolist(),
        "prior_covariance": cov.tolist(),
    }


def call(service, **request):
    return handle_request(service, json.dumps(request))


class TestOps:
    def test_ping(self, service):
        assert call(service, op="ping") == {"ok": True, "op": "ping"}

    def test_create_ingest_estimate(self, service, prior_fields, rng):
        created = call(
            service, op="create", key="dut", kappa0=2.0, v0=D + 2.0, **prior_fields
        )
        assert created["ok"] and created["dim"] == D and created["n"] == 0

        block = rng.standard_normal((12, D)).tolist()
        ingested = call(service, op="ingest", key="dut", samples=block)
        assert ingested["ok"] and ingested["n"] == 12 and ingested["ingested"] == 12

        estimate = call(service, op="estimate", key="dut")
        assert estimate["ok"]
        assert len(estimate["mean"]) == D
        assert estimate["n"] == 12
        reference = service.query_many([("estimate", "dut", None)])[0]
        assert estimate["mean"] == reference.mean.tolist()

    def test_ingest_suffstats_payload(self, service, prior_fields, rng):
        from repro.stats.suffstats import SufficientStats

        call(service, op="create", key="dut", **prior_fields)
        shard = SufficientStats.from_samples(rng.standard_normal((9, D)))
        response = call(service, op="ingest", key="dut", stats=shard.to_dict())
        assert response["ok"] and response["n"] == 9

    def test_loglik_and_yield(self, service, prior_fields, rng):
        call(service, op="create", key="dut", **prior_fields)
        call(
            service,
            op="ingest",
            key="dut",
            samples=rng.standard_normal((20, D)).tolist(),
        )
        ll = call(service, op="loglik", key="dut", x=rng.standard_normal(D).tolist())
        assert ll["ok"] and np.isfinite(ll["loglik"])
        y = call(
            service,
            op="yield",
            key="dut",
            lower=[-4.0] * D,
            upper=[4.0] * D,
        )
        assert y["ok"] and 0.0 <= y["yield"] <= 1.0

    def test_sessions_drop_stats(self, service, prior_fields):
        call(service, op="create", key="a", **prior_fields)
        call(service, op="create", key="b", **prior_fields)
        assert call(service, op="sessions")["sessions"] == ["a", "b"]
        assert call(service, op="drop", key="a")["dropped"] is True
        assert call(service, op="sessions")["sessions"] == ["b"]
        stats = call(service, op="stats")
        assert stats["ok"] and stats["stats"]["sessions_live"] == 1

    def test_checkpoint_op(self, service, prior_fields, tmp_path):
        call(service, op="create", key="dut", **prior_fields)
        path = tmp_path / "wire.ckpt"
        response = call(service, op="checkpoint", path=str(path))
        assert response["ok"] and len(response["sha256"]) == 64
        restored = type(service).restore(path)
        assert restored.session_keys() == ["dut"]


class TestErrorContainment:
    def test_malformed_json(self, service):
        response = handle_request(service, "this is { not json")
        assert response == {
            "ok": False,
            "op": None,
            "error": "JSONDecodeError",
            "message": response["message"],
        }

    def test_non_object_request(self, service):
        response = handle_request(service, "[1, 2, 3]")
        assert not response["ok"] and response["error"] == "ConfigError"

    def test_unknown_op(self, service):
        response = call(service, op="transmogrify")
        assert not response["ok"]
        assert "unknown op" in response["message"]

    def test_missing_field(self, service):
        response = call(service, op="estimate")
        assert not response["ok"] and "requires field" in response["message"]

    def test_estimator_error_is_reported(self, service):
        response = call(service, op="estimate", key="ghost")
        assert not response["ok"] and response["error"] == "SessionNotFoundError"

    def test_duplicate_create_reported(self, service, prior_fields):
        call(service, op="create", key="dut", **prior_fields)
        response = call(service, op="create", key="dut", **prior_fields)
        assert not response["ok"] and response["error"] == "ConfigError"


    @pytest.mark.parametrize("samples", [5, [[[1.0, 2.0, 3.0]]]])
    def test_ingest_shape_error_keeps_the_loop_serving(
        self, service, prior_fields, samples
    ):
        lines = [
            json.dumps({"op": "create", "key": "dut", **prior_fields}),
            json.dumps({"op": "ingest", "key": "dut", "samples": samples}),
            json.dumps({"op": "ingest", "key": "dut", "samples": [0.5, 1.0, 1.5]}),
            json.dumps({"op": "shutdown"}),
        ]
        out = io.StringIO()
        handled = serve_loop(service, lines=[line + "\n" for line in lines], out=out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert handled == 4
        assert [r["ok"] for r in responses] == [True, False, True, True]
        assert responses[1]["error"] == "DimensionError"
        assert responses[2]["n"] == 1

    @pytest.mark.parametrize("field", ["kappa0", "v0"])
    def test_non_finite_create_hyperparam_reported(self, service, prior_fields, field):
        response = call(
            service, op="create", key="dut", **{field: float("nan")}, **prior_fields
        )
        assert not response["ok"] and response["error"] == "ConfigError"
        assert call(service, op="estimate", key="dut")["error"] == "SessionNotFoundError"


class TestServeLoop:
    def test_loop_until_shutdown(self, service, prior_fields):
        lines = [
            json.dumps({"op": "ping"}),
            "",  # blank lines are skipped
            json.dumps({"op": "create", "key": "dut", **prior_fields}),
            json.dumps({"op": "bogus"}),
            json.dumps({"op": "shutdown"}),
            json.dumps({"op": "ping"}),  # never reached
        ]
        out = io.StringIO()
        handled = serve_loop(service, lines=[line + "\n" for line in lines], out=out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert handled == 4
        assert [r["ok"] for r in responses] == [True, True, False, True]
        assert responses[-1]["op"] == "shutdown"

    def test_loop_survives_end_of_input(self, service):
        out = io.StringIO()
        handled = serve_loop(service, lines=['{"op": "ping"}\n'], out=out)
        assert handled == 1


class TestWireEncoding:
    """Optional zero-copy b64f64 array envelopes on the wire."""

    def test_encode_decode_round_trip(self, rng):
        from repro.serving import decode_array, encode_array

        arr = rng.standard_normal((7, D))
        envelope = encode_array(arr)
        assert envelope["encoding"] == "b64f64"
        assert envelope["shape"] == [7, D]
        out = decode_array(envelope)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, arr)

    def test_decode_passes_through_lists(self, rng):
        from repro.serving import decode_array

        arr = rng.standard_normal((4, D))
        np.testing.assert_array_equal(decode_array(arr.tolist()), arr)

    def test_b64f64_ingest_matches_list_ingest(self, service, prior_fields, rng):
        from repro.serving import encode_array

        block = rng.standard_normal((15, D))
        call(service, op="create", key="as_list", **prior_fields)
        call(service, op="create", key="as_b64", **prior_fields)
        call(service, op="ingest", key="as_list", samples=block.tolist())
        call(service, op="ingest", key="as_b64", samples=encode_array(block))
        est_list = call(service, op="estimate", key="as_list")
        est_b64 = call(service, op="estimate", key="as_b64")
        assert est_b64["n"] == 15
        assert est_b64["mean"] == est_list["mean"]
        assert est_b64["covariance"] == est_list["covariance"]

    def test_b64f64_create_and_query_fields(self, service, rng):
        from repro.serving import encode_array

        a = rng.standard_normal((D, D))
        cov = a @ a.T + D * np.eye(D)
        created = call(
            service,
            op="create",
            key="dut",
            prior_mean=encode_array(rng.standard_normal(D)),
            prior_covariance=encode_array(cov),
        )
        assert created["ok"] and created["dim"] == D
        call(service, op="ingest", key="dut", samples=rng.standard_normal((8, D)).tolist())
        ll = call(service, op="loglik", key="dut", x=encode_array(rng.standard_normal(D)))
        assert ll["ok"] and np.isfinite(ll["loglik"])
        y = call(
            service,
            op="yield",
            key="dut",
            lower=encode_array(np.full(D, -5.0)),
            upper=encode_array(np.full(D, 5.0)),
        )
        assert y["ok"] and 0.0 <= y["yield"] <= 1.0

    def test_b64f64_stats_ingest(self, service, prior_fields, rng):
        from repro.serving import encode_array
        from repro.stats.suffstats import SufficientStats

        call(service, op="create", key="dut", **prior_fields)
        shard = SufficientStats.from_samples(rng.standard_normal((9, D)))
        payload = shard.to_dict()
        payload["mean"] = encode_array(np.asarray(payload["mean"]))
        payload["scatter"] = encode_array(np.asarray(payload["scatter"]))
        response = call(service, op="ingest", key="dut", stats=payload)
        assert response["ok"] and response["n"] == 9

    def test_estimate_response_encoding(self, service, prior_fields, rng):
        from repro.serving import decode_array

        call(service, op="create", key="dut", **prior_fields)
        call(
            service,
            op="ingest",
            key="dut",
            samples=rng.standard_normal((10, D)).tolist(),
        )
        plain = call(service, op="estimate", key="dut")
        packed = call(service, op="estimate", key="dut", encoding="b64f64")
        assert packed["ok"]
        assert packed["mean"]["encoding"] == "b64f64"
        np.testing.assert_array_equal(decode_array(packed["mean"]), plain["mean"])
        np.testing.assert_array_equal(
            decode_array(packed["covariance"]), plain["covariance"]
        )

    def test_envelope_survives_json_round_trip(self, service, prior_fields, rng):
        from repro.serving import encode_array

        block = rng.standard_normal((6, D))
        request = {"op": "ingest", "key": "dut", "samples": encode_array(block)}
        call(service, op="create", key="dut", **prior_fields)
        response = handle_request(service, json.dumps(request))
        assert response["ok"] and response["n"] == 6

    @pytest.mark.parametrize(
        "envelope",
        [
            {"encoding": "b64f64", "shape": [2, 3]},  # missing data
            {"encoding": "b64f64", "shape": [2, 3], "data": "!!notbase64!!"},
            {"encoding": "b64f64", "shape": [2, 4], "data": None},
            {"encoding": "zstd", "shape": [2], "data": "AAA="},
        ],
    )
    def test_malformed_envelope_is_contained(self, service, prior_fields, envelope):
        call(service, op="create", key="dut", **prior_fields)
        response = call(service, op="ingest", key="dut", samples=envelope)
        assert not response["ok"]

    def test_shape_mismatch_is_contained(self, service, prior_fields, rng):
        from repro.serving import encode_array

        call(service, op="create", key="dut", **prior_fields)
        envelope = encode_array(rng.standard_normal((5, D)))
        envelope["shape"] = [4, D]  # lies about the payload size
        response = call(service, op="ingest", key="dut", samples=envelope)
        assert not response["ok"]


@st.composite
def _wire_arrays(draw):
    """``(d,)`` and ``(n, d)`` float64 arrays, zero extents included."""
    shape = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=2)))
    values = draw(
        st.lists(
            st.floats(allow_nan=False, width=64),
            min_size=int(np.prod(shape)),
            max_size=int(np.prod(shape)),
        )
    )
    return np.array(values, dtype=float).reshape(shape)


#: A 2-vector's valid envelope data, and malformed envelopes with the one
#: refusal text each gets on every Python version.
_ROW = encode_array([1.0, 2.0])["data"]
MALFORMED = {
    "bad_alphabet": (
        {"encoding": "b64f64", "shape": [2], "data": _ROW[:5] + "!" + _ROW[6:]},
        "undecodable b64f64 data: not padded standard base64",
    ),
    "unpadded": (
        {"encoding": "b64f64", "shape": [2], "data": _ROW.rstrip("=")},
        "undecodable b64f64 data: not padded standard base64",
    ),
    "byte_count": (
        {"encoding": "b64f64", "shape": [3], "data": _ROW},
        "b64f64 payload holds 16 bytes but shape [3] needs 24",
    ),
    "negative_extent": (
        {"encoding": "b64f64", "shape": [-2, -1], "data": _ROW},
        "b64f64 shape [-2, -1] must list non-negative integers",
    ),
    "non_list_shape": (
        {"encoding": "b64f64", "shape": 2, "data": _ROW},
        "b64f64 envelope requires a shape list",
    ),
    "missing_data": (
        {"encoding": "b64f64", "shape": [2]},
        "b64f64 envelope requires a data string",
    ),
    "unknown_encoding": (
        {"encoding": "zstd", "shape": [2], "data": _ROW},
        "unknown array encoding 'zstd' (expected 'b64f64')",
    ),
}


class TestDecodeArray:
    @settings(max_examples=200, deadline=None)
    @given(_wire_arrays())
    def test_b64f64_and_lists_decode_bit_identically(self, arr):
        """Both encodings give the same float64 bytes.  An envelope keeps
        every shape and decodes read-only; a list decodes writable, and
        cannot spell an ``(0, d)`` shape, which it gives as ``(0,)``."""
        wire = json.loads(json.dumps({"b64": encode_array(arr), "list": arr.tolist()}))
        packed, listed = decode_array(wire["b64"]), decode_array(wire["list"])
        assert packed.dtype == listed.dtype == np.float64
        assert packed.shape == arr.shape
        assert listed.shape == (arr.shape if arr.shape[0] or arr.ndim == 1 else (0,))
        assert packed.tobytes() == listed.tobytes() == arr.tobytes()
        assert not packed.flags.writeable and listed.flags.writeable

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_envelope_names_its_fault(self, service, prior_fields, case):
        envelope, message = MALFORMED[case]
        with pytest.raises(ConfigError) as refused:
            decode_array(envelope)
        assert str(refused.value) == message
        call(service, op="create", key="dut", **prior_fields)
        response = call(service, op="ingest", key="dut", samples=envelope)
        assert (response["error"], response["message"]) == ("ConfigError", message)


class TestBrokenPipe:
    def test_serve_loop_exits_cleanly_on_broken_pipe(self, service):
        class BrokenSink:
            def __init__(self):
                self.writes = 0

            def write(self, _text):
                self.writes += 1
                if self.writes > 1:
                    raise BrokenPipeError

            def flush(self):
                pass

        sink = BrokenSink()
        lines = ['{"op": "ping"}\n'] * 5
        handled = serve_loop(service, lines=lines, out=sink)
        assert handled == 1  # the undelivered response does not count

    def test_serve_loop_broken_pipe_on_flush(self, service):
        class FlushBrokenSink(io.StringIO):
            def flush(self):
                raise BrokenPipeError

        handled = serve_loop(
            service, lines=['{"op": "ping"}\n'] * 3, out=FlushBrokenSink()
        )
        assert handled == 0


# The same suites through the router: every op, error path, the loop, the
# wire encodings and broken pipes must behave identically.
class TestOpsRouter(RouterService, TestOps):
    pass


class TestErrorContainmentRouter(RouterService, TestErrorContainment):
    pass


class TestServeLoopRouter(RouterService, TestServeLoop):
    pass


class TestWireEncodingRouter(RouterService, TestWireEncoding):
    pass


class TestBrokenPipeRouter(RouterService, TestBrokenPipe):
    pass
