"""Serving layer: ingest throughput, micro-batched scoring, sharding, WAL
logging and WAL recovery.

Runs the bodies in ``scripts/bench_serving.py`` at the active scale,
appends each section to the ``BENCH_serving.json`` trajectory at the repo
root (floors included), and asserts the script's floors.
``REPRO_BENCH_SCALE=smoke`` shrinks ingest volume and repeats for CI; the
session count stays at 64 because it is part of the acceptance criterion.
"""

from pathlib import Path

from _bench_util import emit
from repro.bench import append_entry
from scripts.bench_serving import (
    BATCHED_SPEEDUP_FLOOR,
    SHARD_SPEEDUP_FLOOR,
    WAL_BYTES_PER_ROW_CEILING,
    WAL_THROUGHPUT_FLOOR,
    ingest_throughput,
    query_latency,
    ratio,
    sharded_load,
    wal_ingest,
    wal_recover,
)

D = 5
N_SESSIONS = 64
ZIPF_ALPHA = 1.6

#: Per scale: query scoring, Zipf load and WAL block-ingest sizes.
SIZING = {
    "smoke": (
        {"rows_per_session": 20, "repeats": 2, "ingest_rows": 2_000},
        {"n_sessions": 256, "n_ops": 3_000, "query_every": 750},
        {"n_sessions": 256, "n_ops": 300, "rows_per_op": 64},
    ),
    "reduced": (
        {"rows_per_session": 200, "repeats": 5, "ingest_rows": 20_000},
        {"n_sessions": 2_000, "n_ops": 20_000, "query_every": 2_500},
        {"n_sessions": 2_000, "n_ops": 1_000, "rows_per_op": 64},
    ),
    "paper": (
        {"rows_per_session": 500, "repeats": 10, "ingest_rows": 100_000},
        {"n_sessions": 10_000, "n_ops": 100_000, "query_every": 5_000},
        {"n_sessions": 10_000, "n_ops": 3_000, "rows_per_op": 64},
    ),
}

_OUT = Path(__file__).resolve().parent.parent / "BENCH_serving.json"
_SECTIONS = {}


def _append(scale, config, results):
    append_entry(
        _OUT, "serving", config={"scale": scale.label, "dim": D, **config}, results=results
    )
    emit(f"serving ({scale.label}): appended {sorted(results)} to {_OUT}")


def test_ingest_throughput(scale):
    """Single-row Welford ingest rate (the tester-floor trickle path)."""
    n_rows = SIZING[scale.label][0]["ingest_rows"]
    row = ingest_throughput(n_rows, dim=D)
    emit(f"serving ingest ({scale.label}): {row}")
    assert row["rows"] == n_rows
    _SECTIONS["ingest"] = row


def test_batched_vs_per_request_query_latency(scale):
    """The acceptance measurement: 64 sessions, d=5, batched >= 5x."""
    sizing = SIZING[scale.label][0]
    row = query_latency(
        sizing["rows_per_session"], sizing["repeats"], n_sessions=N_SESSIONS, dim=D
    )
    emit(f"serving query scoring ({scale.label}): {row}")
    _SECTIONS["query_latency"] = row
    _append(
        scale,
        {"n_sessions": N_SESSIONS, "batched_speedup_floor": BATCHED_SPEEDUP_FLOOR},
        dict(_SECTIONS),
    )
    # CI smoke boxes are too noisy to gate on.
    if scale.label != "smoke":
        assert row["per_request_s"] >= BATCHED_SPEEDUP_FLOOR * row["batched_s"], row


def test_sharded_zipf_throughput(scale):
    """Skewed-key load: 4-shard coalesced ingest must beat 1 shard >= 2x.

    One shard runs at ``flush_rows=1``, bit-identical to a bare worker
    (every row reaches the store immediately); multi-shard mode buffers
    per key and flushes 64-row blocks, so the hot Zipf keys amortise store
    and accumulator overhead.  The floor holds at every scale including CI smoke: the win
    is structural (fewer store operations), not parallelism.
    """
    sizing = SIZING[scale.label][1]
    results = sharded_load((1, 4), dim=D, alpha=ZIPF_ALPHA, seed=0, **sizing)
    speedup = ratio(results["per_shard"], "4", "1")
    emit(f"serving sharded zipf ({scale.label}): 4 shards at {speedup:.2f}x of 1")
    _append(
        scale,
        {
            "section": "sharded_zipf",
            "zipf_alpha": ZIPF_ALPHA,
            "speedup_floor_at_4_shards": SHARD_SPEEDUP_FLOOR,
            **sizing,
        },
        results,
    )
    assert speedup >= SHARD_SPEEDUP_FLOOR


def test_wal_ingest_overhead(scale, tmp_path):
    """Durable ingest: the v2 group-commit WAL keeps >= 0.25x no-WAL rows/s
    and writes <= 10 bytes per row.

    A log that paid a per-float text encoding again (the retired
    JSON-lines format ran at 0.07-0.17x of no-WAL) fails the floor; one
    that logged sample blocks raw again (~42 B/row) fails the ceiling.
    """
    sizing = SIZING[scale.label][2]
    results = wal_ingest(tmp_path, dim=D, alpha=ZIPF_ALPHA, **sizing)
    speedup = ratio(results["per_config"], "v2", "no_wal")
    emit(f"serving wal ingest ({scale.label}): {results}")
    _append(
        scale,
        {
            "section": "wal_ingest",
            "zipf_alpha": ZIPF_ALPHA,
            "v2_vs_no_wal_floor": WAL_THROUGHPUT_FLOOR,
            "wal_bytes_per_row_ceiling": WAL_BYTES_PER_ROW_CEILING,
            **sizing,
        },
        results,
    )
    assert speedup >= WAL_THROUGHPUT_FLOOR
    assert results["per_config"]["v2"]["wal_bytes_per_row"] <= WAL_BYTES_PER_ROW_CEILING


def test_wal_recover(scale, tmp_path):
    """One-pass recovery of the ``wal_ingest`` log: the recovered sessions
    must equal the live ones bit for bit.  Rows/s and the ratio to the
    two-pass oracle are recorded, not gated (CI boxes are too noisy)."""
    sizing = SIZING[scale.label][2]
    results = wal_recover(
        tmp_path, dim=D, alpha=ZIPF_ALPHA, repeats=2 if scale.label == "smoke" else 3, **sizing
    )
    emit(f"serving wal recover ({scale.label}): {results}")
    _append(
        scale,
        {"section": "wal_recover", "zipf_alpha": ZIPF_ALPHA, **sizing},
        results,
    )
    assert results["recovered_equals_live"], results
