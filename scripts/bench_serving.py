#!/usr/bin/env python
"""Skewed-key load generator for the sharded serving stack.

Drives :class:`repro.serving.ShardedMomentService` with a Zipf-distributed
ingest stream — the tester-floor shape where a handful of hot populations
take most of the sample trickle — interleaved with ``estimate`` queries,
and records throughput (rows/s) and p99 query latency per shard count
into the ``BENCH_serving.json`` trajectory at the repository root (see
:mod:`repro.bench.trajectory`).

Single-shard mode is the bit-identical passthrough (every row hits the
store immediately); multi-shard mode buffers rows per key and flushes
64-row blocks, so hot keys amortise store and accumulator overhead.  The
interleaved queries are part of the measurement on purpose: each one is a
merge-on-read barrier that flushes the queried key's ingest buffer, and
the final flush of every buffer is inside the timed window, so the
reported throughput includes the cost coalescing has to pay back.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/bench_serving.py [--sessions 10000]
        [--ops 100000] [--dim 5] [--alpha 1.6] [--query-every 5000]
        [--shards 1 2 4 8] [--seed 0] [--out BENCH_serving.json] [--smoke]
        [--wal none|v1|v2|v2-delta] [--wire direct|list|b64f64]

``--smoke`` shrinks the workload for CI wall-clock budgets and is the
configuration the CI floor check runs (4 shards >= 2x single shard).

``--wal`` turns on write-ahead durability for the run: ``v1`` is the
JSON-lines log, ``v2`` the binary group-commit log, ``v2-delta`` adds
sufficient-statistics delta logging (the logs live in a temporary
directory that is deleted afterwards — this measures logging cost, not
recovery).  ``--wire`` routes every op through the JSON-lines protocol
layer instead of direct method calls, with arrays as nested lists
(``list``) or zero-copy base64 float64 envelopes (``b64f64``), so the
serialization tax of each encoding shows up in the reported rows/s.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.bench import append_entry
from repro.core.prior import PriorKnowledge
from repro.serving import ShardedMomentService, encode_array, handle_request

REPO_ROOT = Path(__file__).resolve().parent.parent

#: --wal choices mapped to ShardedMomentService keyword arguments.
WAL_MODES = {
    "none": None,
    "v1": {"wal_format": "v1"},
    "v2": {"wal_format": "v2"},
    "v2-delta": {"wal_format": "v2", "wal_delta_rows": 32},
}


def run_load(
    n_shards: int,
    n_sessions: int,
    n_ops: int,
    dim: int,
    alpha: float,
    query_every: int,
    seed: int,
    wal: str = "none",
    wire: str = "direct",
) -> dict:
    """One full pass; returns the per-shard-count result row."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n_sessions + 1, dtype=float)
    weights = 1.0 / ranks**alpha
    weights /= weights.sum()
    keys = [f"pop/{i:06d}" for i in range(n_sessions)]
    key_draws = rng.choice(n_sessions, size=n_ops, p=weights)
    rows = rng.standard_normal((n_ops, dim))
    query_draws = rng.choice(n_sessions, size=n_ops // query_every + 1, p=weights)

    wal_kwargs = WAL_MODES[wal]
    wal_tmp = None
    service_kwargs = dict(
        n_shards=n_shards, max_sessions_per_shard=n_sessions + 1
    )
    if wal_kwargs is not None:
        wal_tmp = tempfile.TemporaryDirectory(prefix="bench-serving-wal-")
        service_kwargs.update(wal_dir=wal_tmp.name, **wal_kwargs)
    service = ShardedMomentService(**service_kwargs)

    def wire_ingest(key: str, row: np.ndarray) -> None:
        samples = encode_array(row) if wire == "b64f64" else row.tolist()
        handle_request(
            service,
            json.dumps({"op": "ingest", "key": key, "samples": samples}),
        )

    def wire_estimate(key: str) -> None:
        handle_request(service, json.dumps({"op": "estimate", "key": key}))

    prior_rng = np.random.default_rng(42)
    a = prior_rng.standard_normal((dim, dim))
    prior = PriorKnowledge(
        prior_rng.standard_normal(dim), a @ a.T + dim * np.eye(dim)
    )
    t_create0 = time.perf_counter()
    for key in keys:
        service.create_session(key, prior, kappa0=2.0, v0=dim + 3.0)
    create_s = time.perf_counter() - t_create0

    latencies = []
    query_index = 0
    t0 = time.perf_counter()
    for i in range(n_ops):
        if wire == "direct":
            service.ingest(keys[key_draws[i]], rows[i])
        else:
            wire_ingest(keys[key_draws[i]], rows[i])
        if (i + 1) % query_every == 0:
            key = keys[query_draws[query_index]]
            tq = time.perf_counter()
            if wire == "direct":
                service.estimate(key)
            else:
                wire_estimate(key)
            query_index += 1
            latencies.append(time.perf_counter() - tq)
    service.flush()
    elapsed = time.perf_counter() - t0
    service.close()
    if wal_tmp is not None:
        wal_tmp.cleanup()

    lat_ms = np.asarray(latencies) * 1e3
    return {
        "n_shards": n_shards,
        "wal": wal,
        "wire": wire,
        "elapsed_s": round(elapsed, 4),
        "create_s": round(create_s, 4),
        "rows_per_s": round(n_ops / elapsed),
        "queries": len(latencies),
        "estimate_p50_ms": round(float(np.percentile(lat_ms, 50.0)), 3),
        "estimate_p99_ms": round(float(np.percentile(lat_ms, 99.0)), 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=10_000)
    parser.add_argument("--ops", type=int, default=100_000)
    parser.add_argument("--dim", type=int, default=5)
    parser.add_argument("--alpha", type=float, default=1.6)
    parser.add_argument("--query-every", type=int, default=5_000)
    parser.add_argument(
        "--shards", type=int, nargs="+", default=[1, 2, 4, 8]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_serving.json"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="shrink the workload for CI (and gate 4 shards >= 2x)",
    )
    parser.add_argument(
        "--wal",
        choices=sorted(WAL_MODES),
        default="none",
        help="write-ahead log mode for the run (logs go to a temp dir)",
    )
    parser.add_argument(
        "--wire",
        choices=["direct", "list", "b64f64"],
        default="direct",
        help="route ops through the JSON protocol with this array encoding",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.sessions = min(args.sessions, 256)
        args.ops = min(args.ops, 3_000)
        args.query_every = min(args.query_every, 750)

    print(
        f"sharded serving load: {args.sessions} sessions, {args.ops} ops, "
        f"d={args.dim}, zipf alpha={args.alpha}, "
        f"query every {args.query_every}, wal={args.wal}, wire={args.wire}"
    )
    results = []
    for n_shards in args.shards:
        row = run_load(
            n_shards,
            n_sessions=args.sessions,
            n_ops=args.ops,
            dim=args.dim,
            alpha=args.alpha,
            query_every=args.query_every,
            seed=args.seed,
            wal=args.wal,
            wire=args.wire,
        )
        results.append(row)
        print(
            f"  shards={row['n_shards']}: {row['rows_per_s']:,} rows/s "
            f"({row['elapsed_s']:.3f}s), estimate p50/p99 "
            f"{row['estimate_p50_ms']:.2f}/{row['estimate_p99_ms']:.2f} ms"
        )

    by_shards = {row["n_shards"]: row for row in results}
    speedup_4 = None
    if 1 in by_shards and 4 in by_shards:
        speedup_4 = by_shards[4]["rows_per_s"] / by_shards[1]["rows_per_s"]
        print(f"  4-shard speedup over single shard: {speedup_4:.2f}x")

    append_entry(
        args.out,
        "serving",
        config={
            "section": "sharded_load",
            "smoke": bool(args.smoke),
            "wal": args.wal,
            "wire": args.wire,
            "n_sessions": args.sessions,
            "n_ops": args.ops,
            "dim": args.dim,
            "zipf_alpha": args.alpha,
            "query_every": args.query_every,
            "shard_counts": list(args.shards),
            "seed": args.seed,
        },
        results={
            "per_shard": {str(r["n_shards"]): r for r in results},
            "speedup_at_4_shards": (
                round(speedup_4, 2) if speedup_4 is not None else None
            ),
        },
    )
    print(f"appended to {args.out}")

    if args.smoke and speedup_4 is not None and speedup_4 < 2.0:
        print(
            f"FAIL: 4-shard speedup {speedup_4:.2f}x below the 2x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
