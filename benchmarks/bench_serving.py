"""Serving layer: ingest throughput and micro-batched vs per-request scoring.

The serving acceptance number lives here: with 64 concurrent sessions at
d = 5, scoring one coalesced batch through the stacked kernels must be at
least 5x faster than issuing the same queries one request at a time.
Both paths run the *identical* scoring code (`ShardWorker.query_many`),
so the comparison isolates exactly what micro-batching buys — amortised
Python dispatch and ``(B, d, d)`` LAPACK calls instead of ``B`` separate
``(d, d)`` ones.

The measured numbers are appended to the ``BENCH_serving.json`` trajectory
at the repo root (same convention as ``BENCH_cv.json`` / ``BENCH_mc.json``;
see :mod:`repro.bench.trajectory`) so the speedup trend is tracked across
commits.  ``REPRO_BENCH_SCALE=smoke`` shrinks ingest volume and repeats
for CI; the session count stays at 64 because it is part of the
acceptance criterion.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from _bench_util import emit
from repro.bench import append_entry
from repro.core.prior import PriorKnowledge
from repro.serving import ShardedMomentService, ShardWorker

D = 5
N_SESSIONS = 64
LOGLIK_ROWS = 8

_REPO_ROOT = Path(__file__).resolve().parent.parent


def _sizing(scale):
    if scale.label == "smoke":
        return {"rows_per_session": 20, "repeats": 2, "ingest_rows": 2_000}
    if scale.label == "paper":
        return {"rows_per_session": 500, "repeats": 10, "ingest_rows": 100_000}
    return {"rows_per_session": 200, "repeats": 5, "ingest_rows": 20_000}


def _build_service(rows_per_session: int, seed: int = 0) -> ShardWorker:
    rng = np.random.default_rng(seed)
    service = ShardWorker(shard_id=0)
    for i in range(N_SESSIONS):
        a = rng.standard_normal((D, D))
        prior = PriorKnowledge(rng.standard_normal(D), a @ a.T + D * np.eye(D))
        key = f"pop/{i:03d}"
        service.create_session(key, prior, kappa0=2.0, v0=D + 3.0)
        if rows_per_session > 0:
            service.ingest(key, rng.standard_normal((rows_per_session, D)))
    return service


def _best_of(fn, repeats: int):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


@pytest.fixture(scope="module")
def sized(scale):
    return _sizing(scale)


def test_ingest_throughput(sized, scale):
    """Single-row Welford ingest rate (the tester-floor trickle path)."""
    service = ShardWorker(shard_id=0)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((D, D))
    prior = PriorKnowledge(rng.standard_normal(D), a @ a.T + D * np.eye(D))
    service.create_session("dut", prior, kappa0=2.0, v0=D + 3.0)
    rows = rng.standard_normal((sized["ingest_rows"], D))

    t0 = time.perf_counter()
    for row in rows:
        service.ingest("dut", row)
    elapsed = time.perf_counter() - t0
    rate = sized["ingest_rows"] / elapsed

    block_service = _build_service(0, seed=3)
    t0 = time.perf_counter()
    block_service.ingest("pop/000", rows)
    block_elapsed = time.perf_counter() - t0

    emit(
        f"serving ingest ({scale.label}): {sized['ingest_rows']} rows one-at-a-time "
        f"in {elapsed * 1e3:.1f} ms ({rate:,.0f} rows/s); "
        f"same block batched in {block_elapsed * 1e3:.2f} ms"
    )
    assert service.store.get("dut").n_ingested == sized["ingest_rows"]
    _record("ingest", {
        "rows": sized["ingest_rows"],
        "one_at_a_time_s": round(elapsed, 6),
        "rows_per_s": round(rate),
        "block_s": round(block_elapsed, 6),
    })


def test_batched_vs_per_request_query_latency(sized, scale):
    """The acceptance measurement: 64 sessions, d=5, batched >= 5x."""
    service = _build_service(sized["rows_per_session"], seed=7)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((LOGLIK_ROWS, D))
    keys = service.store.keys()
    queries = [("estimate", key, None) for key in keys] + [
        ("loglik", key, x) for key in keys
    ]

    batched_s, batched_results = _best_of(
        lambda: service.query_many(queries), sized["repeats"]
    )
    per_request_s, per_request_results = _best_of(
        lambda: [service.query_many([query])[0] for query in queries],
        sized["repeats"],
    )

    # same scoring code either way -> answers must agree before timing counts
    for batched, scalar in zip(batched_results, per_request_results):
        if hasattr(batched, "mean"):
            np.testing.assert_allclose(batched.mean, scalar.mean, atol=1e-10)
            np.testing.assert_allclose(
                batched.covariance, scalar.covariance, atol=1e-10
            )
        else:
            assert batched == pytest.approx(scalar, abs=1e-8)

    speedup = per_request_s / batched_s
    emit(
        f"serving query scoring ({scale.label}): {len(queries)} queries over "
        f"{N_SESSIONS} sessions (d={D}) — per-request {per_request_s * 1e3:.1f} ms, "
        f"micro-batched {batched_s * 1e3:.2f} ms -> {speedup:.1f}x"
    )
    _record("query_latency", {
        "n_sessions": N_SESSIONS,
        "dim": D,
        "n_queries": len(queries),
        "rows_per_session": sized["rows_per_session"],
        "repeats": sized["repeats"],
        "per_request_s": round(per_request_s, 6),
        "batched_s": round(batched_s, 6),
        "speedup": round(speedup, 2),
    }, finalize=True, scale_label=scale.label)
    if scale.label != "smoke":
        # CI smoke boxes are too noisy to gate on; the committed
        # BENCH_serving.json records the reduced-scale number.
        assert speedup >= 5.0, f"micro-batching speedup {speedup:.1f}x < 5x"


def _zipf_sizing(scale):
    if scale.label == "smoke":
        return {"n_sessions": 256, "n_ops": 3_000, "query_every": 750}
    if scale.label == "paper":
        return {"n_sessions": 10_000, "n_ops": 100_000, "query_every": 5_000}
    return {"n_sessions": 2_000, "n_ops": 20_000, "query_every": 2_500}


ZIPF_ALPHA = 1.6
SHARD_COUNTS = (1, 4)


def _run_zipf_load(n_shards, n_sessions, n_ops, query_every, seed=0):
    """One skewed-key ingest/query pass; returns (rows_per_s, p99_ms).

    Keys are drawn Zipf(``ZIPF_ALPHA``) over the session population — the
    tester-floor shape where a handful of hot populations take most of the
    trickle.  Every ``query_every`` ingests an ``estimate`` lands on a
    (also Zipf-drawn) key, so the measurement includes the merge-on-read
    barrier flushes of the queried keys and the final flush of every
    buffer, not just raw buffered appends.
    """
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n_sessions + 1, dtype=float)
    weights = 1.0 / ranks**ZIPF_ALPHA
    weights /= weights.sum()
    keys = [f"pop/{i:05d}" for i in range(n_sessions)]
    key_draws = rng.choice(n_sessions, size=n_ops, p=weights)
    rows = rng.standard_normal((n_ops, D))
    query_draws = rng.choice(n_sessions, size=n_ops // query_every + 1, p=weights)

    service = ShardedMomentService(
        n_shards=n_shards, max_sessions_per_shard=n_sessions + 1
    )
    prior_rng = np.random.default_rng(42)
    a = prior_rng.standard_normal((D, D))
    prior = PriorKnowledge(prior_rng.standard_normal(D), a @ a.T + D * np.eye(D))
    for key in keys:
        service.create_session(key, prior, kappa0=2.0, v0=D + 3.0)

    latencies = []
    query_index = 0
    t0 = time.perf_counter()
    for i in range(n_ops):
        service.ingest(keys[key_draws[i]], rows[i])
        if (i + 1) % query_every == 0:
            tq = time.perf_counter()
            service.estimate(keys[query_draws[query_index]])
            query_index += 1
            latencies.append(time.perf_counter() - tq)
    service.flush()
    elapsed = time.perf_counter() - t0
    service.close()
    p99_ms = float(np.percentile(np.asarray(latencies) * 1e3, 99.0))
    return n_ops / elapsed, p99_ms


def test_sharded_zipf_throughput(scale):
    """Skewed-key load: 4-shard coalesced ingest must beat 1 shard >= 2x.

    Single-shard mode is the bit-identical passthrough (every row hits the
    store immediately); multi-shard mode buffers per key and flushes
    64-row blocks, so the hot Zipf keys amortise store and accumulator
    overhead.  The >= 2x floor holds at every scale including CI smoke —
    the win is structural (fewer store operations), not machine-dependent
    parallelism.
    """
    sizing = _zipf_sizing(scale)
    per_shard = {}
    for n_shards in SHARD_COUNTS:
        rows_per_s, p99_ms = _run_zipf_load(n_shards, **sizing)
        per_shard[n_shards] = {
            "rows_per_s": round(rows_per_s),
            "estimate_p99_ms": round(p99_ms, 3),
        }
        emit(
            f"serving sharded zipf ({scale.label}): shards={n_shards} -> "
            f"{rows_per_s:,.0f} rows/s, estimate p99 {p99_ms:.2f} ms"
        )
    speedup = (
        per_shard[SHARD_COUNTS[-1]]["rows_per_s"]
        / per_shard[SHARD_COUNTS[0]]["rows_per_s"]
    )
    emit(
        f"serving sharded zipf ({scale.label}): {SHARD_COUNTS[-1]}-shard "
        f"speedup {speedup:.2f}x over single shard"
    )
    out = _REPO_ROOT / "BENCH_serving.json"
    append_entry(
        out,
        "serving",
        config={
            "scale": scale.label,
            "section": "sharded_zipf",
            "dim": D,
            "zipf_alpha": ZIPF_ALPHA,
            **sizing,
        },
        results={
            "per_shard": {str(k): v for k, v in per_shard.items()},
            "speedup_at_4_shards": round(speedup, 2),
        },
    )
    emit(f"appended to {out}")
    assert speedup >= 2.0, (
        f"4-shard Zipf ingest speedup {speedup:.2f}x < 2x floor"
    )


WAL_CONFIGS = (
    ("v1", {"wal_format": "v1"}),
    ("v2", {"wal_format": "v2"}),
    ("v2_delta", {"wal_format": "v2", "wal_delta_rows": 32}),
)


def _wal_sizing(scale):
    if scale.label == "smoke":
        return {"n_sessions": 256, "n_ops": 300, "rows_per_op": 64}
    if scale.label == "paper":
        return {"n_sessions": 10_000, "n_ops": 3_000, "rows_per_op": 64}
    return {"n_sessions": 2_000, "n_ops": 1_000, "rows_per_op": 64}


def _run_wal_ingest(wal_dir, n_sessions, n_ops, rows_per_op, **wal_kwargs):
    """One durable Zipf ingest pass; returns (rows_per_s, wal_bytes_per_row).

    Single-shard passthrough (``flush_rows=1``) so every accepted block
    hits the worker — and therefore the WAL — immediately: the timing
    isolates the log encode/flush cost the WAL v2 work targets, not the
    router's coalescing.  The clock stops after a final ``sync()`` so
    group-committed records are actually on their way to disk, and WAL
    bytes are measured on the file past the session-create prefix.
    """
    rng = np.random.default_rng(0)
    ranks = np.arange(1, n_sessions + 1, dtype=float)
    weights = 1.0 / ranks**ZIPF_ALPHA
    weights /= weights.sum()
    keys = [f"pop/{i:05d}" for i in range(n_sessions)]
    key_draws = rng.choice(n_sessions, size=n_ops, p=weights)
    blocks = rng.standard_normal((n_ops, rows_per_op, D))

    service = ShardedMomentService(
        n_shards=1,
        max_sessions_per_shard=n_sessions + 1,
        wal_dir=wal_dir,
        **wal_kwargs,
    )
    prior_rng = np.random.default_rng(42)
    a = prior_rng.standard_normal((D, D))
    prior = PriorKnowledge(prior_rng.standard_normal(D), a @ a.T + D * np.eye(D))
    for key in keys:
        service.create_session(key, prior, kappa0=2.0, v0=D + 3.0)
    wal = service.workers[0].wal
    wal.sync()
    base_bytes = wal.path.stat().st_size

    t0 = time.perf_counter()
    for i in range(n_ops):
        service.ingest(keys[key_draws[i]], blocks[i])
    wal.sync()
    elapsed = time.perf_counter() - t0

    total_rows = n_ops * rows_per_op
    wal_bytes = wal.path.stat().st_size - base_bytes
    service.close()
    return total_rows / elapsed, wal_bytes / total_rows


def test_wal_ingest_formats(scale, tmp_path):
    """Durable ingest: WAL v2 + group commit must beat the v1 JSON log >= 3x.

    Three configurations over the same Zipf block stream: v1 JSON lines
    (flush per record, the PR 7 baseline), v2 binary frames with 64-record
    group commit, and v2 with suffstats-delta logging (blocks logged as
    O(d^2) statistics).  The acceptance floor is 3x rows/s for v2 over v1
    (1.5x on CI smoke boxes, where the reduced op count leaves less
    per-record encode work to amortise).
    """
    sizing = _wal_sizing(scale)
    results = {}
    for name, wal_kwargs in WAL_CONFIGS:
        rows_per_s, bytes_per_row = _run_wal_ingest(
            tmp_path / name, **sizing, **wal_kwargs
        )
        results[name] = {
            "rows_per_s": round(rows_per_s),
            "wal_bytes_per_row": round(bytes_per_row, 2),
        }
        emit(
            f"serving wal ingest ({scale.label}): {name} -> "
            f"{rows_per_s:,.0f} rows/s, {bytes_per_row:.1f} WAL bytes/row"
        )
    speedup = results["v2"]["rows_per_s"] / results["v1"]["rows_per_s"]
    delta_speedup = results["v2_delta"]["rows_per_s"] / results["v1"]["rows_per_s"]
    emit(
        f"serving wal ingest ({scale.label}): v2+group-commit {speedup:.2f}x "
        f"over v1, suffstats-delta {delta_speedup:.2f}x"
    )
    out = _REPO_ROOT / "BENCH_serving.json"
    append_entry(
        out,
        "serving",
        config={
            "scale": scale.label,
            "section": "wal_ingest",
            "dim": D,
            "zipf_alpha": ZIPF_ALPHA,
            **sizing,
        },
        results={
            "per_format": results,
            "v2_speedup": round(speedup, 2),
            "v2_delta_speedup": round(delta_speedup, 2),
        },
    )
    emit(f"appended to {out}")
    floor = 1.5 if scale.label == "smoke" else 3.0
    assert speedup >= floor, (
        f"WAL v2 + group-commit ingest speedup {speedup:.2f}x < {floor}x floor"
    )


_SECTIONS = {}


def _record(section, payload, finalize=False, scale_label=""):
    """Accumulate sections; append to the BENCH_serving.json trajectory
    once all are in."""
    _SECTIONS[section] = payload
    if not finalize:
        return
    out = _REPO_ROOT / "BENCH_serving.json"
    append_entry(
        out,
        "serving",
        config={"scale": scale_label, "n_sessions": N_SESSIONS, "dim": D},
        results=dict(_SECTIONS),
    )
    emit(f"appended to {out}")
