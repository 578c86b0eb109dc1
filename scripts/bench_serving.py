#!/usr/bin/env python
"""Skewed-key load generator for the sharded serving stack.

Drives :class:`repro.serving.ShardedMomentService` with a Zipf-distributed
ingest stream — the tester-floor shape where a handful of hot populations
take most of the sample trickle — interleaved with ``estimate`` queries,
and records throughput (rows/s) and p99 query latency per shard count
into the ``BENCH_serving.json`` trajectory at the repository root (see
:mod:`repro.bench.trajectory`).

One shard runs at ``flush_rows=1``, bit-identical to a bare worker
(every row reaches the store immediately); multi-shard mode buffers rows
per key and flushes 64-row blocks, so hot keys amortise store and
accumulator overhead.  The interleaved queries are part of the
measurement on purpose: each one is a merge-on-read barrier that flushes
the queried key's ingest buffer, and the final flush of every buffer is
inside the timed window, so the reported throughput includes the cost
coalescing has to pay back.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/bench_serving.py [--sessions 10000]
        [--ops 100000] [--dim 5] [--alpha 1.6] [--query-every 5000]
        [--shards 1 2 4 8] [--seed 0] [--out BENCH_serving.json] [--smoke]
        [--wal none|v2] [--wire direct|list|b64f64]

``--smoke`` shrinks the workload for CI wall-clock budgets and is the
configuration the CI floor check runs (4 shards >= 2x single shard, on
the fastest of ``SMOKE_PASSES`` passes per shard count); it needs
``--shards`` to include 1 and 4 and exits 2 otherwise.

``--wal v2`` turns on write-ahead durability for the run: the binary
group-commit log (the logs live in a temporary directory that is deleted
afterwards, so ``--wal`` measures logging cost; :func:`wal_recover`
measures recovery).  ``--wire`` routes every op through the JSON-lines
protocol layer instead of direct method calls, with arrays as nested lists
(``list``) or zero-copy base64 float64 envelopes (``b64f64``), so the
serialization tax of each encoding shows up in the reported rows/s.

``benchmarks/bench_serving.py`` runs this module's functions under
pytest: :func:`sharded_load`, plus the sections only it records —
:func:`wal_ingest` (durable-ingest overhead), :func:`wal_recover`
(one-pass recovery of that log, gated on recovered == live and timed
against the two-pass oracle in ``tests/serving/recovery_oracle.py``),
:func:`ingest_throughput` and :func:`query_latency` (micro-batched vs
per-request scoring).  Every floor is a constant here.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.bench import append_entry, best_of
from repro.core.prior import PriorKnowledge
from repro.serving import (
    ShardedMomentService,
    ShardWorker,
    encode_array,
    handle_request,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The ``wal_ingest`` configurations by results key.  ``no_wal`` runs
#: last, so first-pass warm-up costs land on the logged pass and the
#: floor below errs strict.
WAL_CONFIGS = ("v2", "no_wal")

#: 4-shard coalesced ingest over single-shard rows/s, at every scale.
SHARD_SPEEDUP_FLOOR = 2.0
#: Passes per shard count under ``--smoke``, the fastest of which is
#: gated: one smoke pass times a ~10 ms window, which a single scheduler
#: stall on a shared machine can halve.
SMOKE_PASSES = 3
#: v2 durable ingest over the no-WAL rows/s of the same stream.
WAL_THROUGHPUT_FLOOR = 0.25
#: Micro-batched over per-request scoring of 64 sessions; asserted
#: outside smoke scale (CI smoke boxes are too noisy to gate on).
BATCHED_SPEEDUP_FLOOR = 5.0


def zipf_stream(
    n_sessions: int,
    n_ops: int,
    dim: int,
    alpha: float,
    seed: int,
    rows_per_op=None,
    n_queries: int = 0,
):
    """Zipf(``alpha``) session draws for ``n_ops`` ops, their rows (one per
    op, or a ``rows_per_op`` block), then ``n_queries`` query-key draws.

    The tester-floor shape: a handful of hot populations take most of
    the trickle.
    """
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, n_sessions + 1, dtype=float) ** alpha
    weights /= weights.sum()
    key_draws = rng.choice(n_sessions, size=n_ops, p=weights)
    block = () if rows_per_op is None else (rows_per_op,)
    rows = rng.standard_normal((n_ops, *block, dim))
    query_draws = rng.choice(n_sessions, size=n_queries, p=weights)
    return key_draws, rows, query_draws


def random_prior(rng: np.random.Generator, dim: int) -> PriorKnowledge:
    a = rng.standard_normal((dim, dim))
    return PriorKnowledge(rng.standard_normal(dim), a @ a.T + dim * np.eye(dim))


def zipf_sessions(n_sessions: int, dim: int, **service_kwargs):
    """A sharded service holding ``n_sessions`` sessions on one seeded prior.

    Returns ``(service, keys, create_s)``; ``create_s`` times the session
    creation alone.
    """
    service = ShardedMomentService(
        max_sessions_per_shard=n_sessions + 1, **service_kwargs
    )
    prior = random_prior(np.random.default_rng(42), dim)
    keys = [f"pop/{i:06d}" for i in range(n_sessions)]
    t0 = time.perf_counter()
    for key in keys:
        service.create_session(key, prior, kappa0=2.0, v0=dim + 3.0)
    return service, keys, time.perf_counter() - t0


def ratio(section: dict, fast: str, slow: str) -> float:
    """Rows/s of row ``fast`` over row ``slow`` of a section, unrounded."""
    return section[fast]["rows_per_s"] / section[slow]["rows_per_s"]


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
    key_draws, rows, query_draws = zipf_stream(
        n_sessions, n_ops, dim, alpha, seed, n_queries=n_ops // query_every + 1
    )
    wal_tmp = None
    service_kwargs = {"n_shards": n_shards}
    if wal != "none":
        wal_tmp = tempfile.TemporaryDirectory(prefix="bench-serving-wal-")
        service_kwargs["wal_dir"] = wal_tmp.name
    service, keys, create_s = zipf_sessions(n_sessions, dim, **service_kwargs)

    def request(op: str, key: str, **fields) -> None:
        handle_request(service, json.dumps({"op": op, "key": key, **fields}))

    latencies = []
    query_index = 0
    t0 = time.perf_counter()
    for i in range(n_ops):
        if wire == "direct":
            service.ingest(keys[key_draws[i]], rows[i])
        else:
            samples = encode_array(rows[i]) if wire == "b64f64" else rows[i].tolist()
            request("ingest", keys[key_draws[i]], samples=samples)
        if (i + 1) % query_every == 0:
            key = keys[query_draws[query_index]]
            tq = time.perf_counter()
            if wire == "direct":
                service.estimate(key)
            else:
                request("estimate", key)
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


def sharded_load(shard_counts, passes: int = 1, **load) -> dict:
    """:func:`run_load` per shard count, the fastest of ``passes`` passes
    each; the 4-shard speedup over one shard is ``None`` unless both ran."""
    per_shard = {
        str(n): best_of(lambda: run_load(n, **load), passes)[1] for n in shard_counts
    }
    speedup = None
    if "1" in per_shard and "4" in per_shard:
        speedup = round(ratio(per_shard, "4", "1"), 2)
    return {"per_shard": per_shard, "speedup_at_4_shards": speedup}


def zipf_block_ingest(wal_dir, n_sessions, n_ops, rows_per_op, dim, alpha):
    """One Zipf block-ingest pass; returns ``(service, seconds, wal_bytes)``.

    One shard at ``flush_rows=1``, so every accepted block reaches the
    worker — and therefore the WAL — immediately: the timing isolates the
    log encode/flush cost, not the router's coalescing.  ``wal_dir=None``
    runs the same stream with no log (the baseline).  The clock stops
    after a final ``sync()`` so group-committed records are actually on
    their way to disk, and WAL bytes are measured on the file past the
    session-create prefix.  The service is returned open.
    """
    key_draws, blocks, _ = zipf_stream(
        n_sessions, n_ops, dim, alpha, seed=0, rows_per_op=rows_per_op
    )
    service, keys, _ = zipf_sessions(n_sessions, dim, n_shards=1, wal_dir=wal_dir)
    wal = service.workers[0].wal
    if wal is not None:
        wal.sync()
        base_bytes = wal.path.stat().st_size

    t0 = time.perf_counter()
    for i in range(n_ops):
        service.ingest(keys[key_draws[i]], blocks[i])
    if wal is not None:
        wal.sync()
    elapsed = time.perf_counter() - t0

    wal_bytes = 0 if wal is None else wal.path.stat().st_size - base_bytes
    return service, elapsed, wal_bytes


def run_wal_ingest(wal_dir, n_sessions, n_ops, rows_per_op, dim, alpha):
    """:func:`zipf_block_ingest`; returns ``(rows_per_s, wal_bytes_per_row)``."""
    service, elapsed, wal_bytes = zipf_block_ingest(
        wal_dir, n_sessions, n_ops, rows_per_op, dim, alpha
    )
    service.close()
    total_rows = n_ops * rows_per_op
    return total_rows / elapsed, wal_bytes / total_rows


def wal_ingest(work_dir: Path, dim: int, alpha: float, **sizing) -> dict:
    """Every :data:`WAL_CONFIGS` pass over the same Zipf block stream.

    ``v2`` is binary frames with 64-record group commit; ``no_wal`` is
    the same stream unlogged.  The logs go to subdirectories of
    ``work_dir``.
    """
    per_config = {}
    for name in WAL_CONFIGS:
        wal_dir = None if name == "no_wal" else Path(work_dir) / name
        rows_per_s, bytes_per_row = run_wal_ingest(wal_dir, dim=dim, alpha=alpha, **sizing)
        per_config[name] = {
            "rows_per_s": round(rows_per_s),
            "wal_bytes_per_row": round(bytes_per_row, 2),
        }
    return {
        "per_config": per_config,
        "v2_vs_no_wal": round(ratio(per_config, "v2", "no_wal"), 2),
    }


def same_sessions(a, b) -> bool:
    """Whether two session stores hold the same keys, in the same LRU order,
    with bit-identical (``array_equal``) statistics."""
    left, right = a.to_dict()["sessions"], b.to_dict()["sessions"]
    return len(left) == len(right) and all(
        x["key"] == y["key"]
        and x["stats"]["n"] == y["stats"]["n"]
        and np.array_equal(x["stats"]["mean"], y["stats"]["mean"])
        and np.array_equal(x["stats"]["scatter"], y["stats"]["scatter"])
        for x, y in zip(left, right)
    )


def wal_recover(work_dir: Path, dim: int, alpha: float, repeats: int = 3, **sizing) -> dict:
    """Rows/s of :meth:`ShardedMomentService.recover` over the ``v2``
    ``wal_ingest`` log, best of ``repeats``.

    The log is the one :func:`wal_ingest` times (same Zipf block stream,
    one shard), written to ``work_dir/recover``.  ``recovered_equals_live``
    is the gate: every recovered session's statistics ``array_equal`` the
    live service's, and so do the oracle's.  The two-pass oracle
    (``open``, then ``replay`` re-reading the file) is timed on the same
    log in the same run; ``speedup_vs_two_pass`` is its time over ours.
    """
    if str(REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(REPO_ROOT))
    from tests.serving.recovery_oracle import two_pass_recover

    wal_dir = Path(work_dir) / "recover"
    live, _, _ = zipf_block_ingest(wal_dir, dim=dim, alpha=alpha, **sizing)
    live.close()
    max_sessions = sizing["n_sessions"] + 1  # as zipf_sessions sized it

    def one_pass():
        service = ShardedMomentService.recover(wal_dir, max_sessions_per_shard=max_sessions)
        service.close()
        return service.workers[0].store

    def two_pass():
        (worker,) = two_pass_recover(wal_dir, max_sessions_per_shard=max_sessions)
        worker.close()
        return worker.store

    two_pass_s, oracle = best_of(two_pass, repeats)
    one_pass_s, recovered = best_of(one_pass, repeats)
    live_store = live.workers[0].store
    total_rows = sizing["n_ops"] * sizing["rows_per_op"]
    return {
        "rows_per_s": round(total_rows / one_pass_s),
        "recover_s": round(one_pass_s, 4),
        "two_pass_rows_per_s": round(total_rows / two_pass_s),
        "speedup_vs_two_pass": round(two_pass_s / one_pass_s, 2),
        "recovered_equals_live": same_sessions(recovered, live_store)
        and same_sessions(oracle, live_store),
    }


def worker_sessions(
    n_sessions: int, dim: int, rows_per_session: int, seed: int
) -> ShardWorker:
    """One shard worker with ``n_sessions`` random-prior sessions, each
    holding ``rows_per_session`` ingested rows."""
    rng = np.random.default_rng(seed)
    service = ShardWorker(shard_id=0)
    for i in range(n_sessions):
        key = f"pop/{i:03d}"
        service.create_session(key, random_prior(rng, dim), kappa0=2.0, v0=dim + 3.0)
        if rows_per_session > 0:
            service.ingest(key, rng.standard_normal((rows_per_session, dim)))
    return service


def ingest_throughput(n_rows: int, dim: int = 5) -> dict:
    """Single-row ingest rate (the tester-floor trickle path), and the
    same rows as one block.  ``rows`` is what the session counted."""
    rows = np.random.default_rng(4).standard_normal((n_rows, dim))
    service, block_service = (worker_sessions(1, dim, 0, seed=3) for _ in range(2))
    t0 = time.perf_counter()
    for row in rows:
        service.ingest("pop/000", row)
    elapsed = time.perf_counter() - t0

    t0 = time.perf_counter()
    block_service.ingest("pop/000", rows)
    block_elapsed = time.perf_counter() - t0
    return {
        "rows": service.store.get("pop/000").n_ingested,
        "one_at_a_time_s": round(elapsed, 6),
        "rows_per_s": round(n_rows / elapsed),
        "block_s": round(block_elapsed, 6),
    }


def query_latency(
    rows_per_session: int,
    repeats: int,
    n_sessions: int = 64,
    dim: int = 5,
    loglik_rows: int = 8,
) -> dict:
    """An estimate and a log-likelihood query per session, scored as one
    micro-batch and one request at a time.

    Both paths run the identical scoring code (``ShardWorker.query_many``),
    so the comparison isolates what micro-batching buys: amortised Python
    dispatch and ``(B, d, d)`` LAPACK calls instead of ``B`` separate
    ``(d, d)`` ones.  The answers must agree before the times count.
    """
    service = worker_sessions(n_sessions, dim, rows_per_session, seed=7)
    x = np.random.default_rng(11).standard_normal((loglik_rows, dim))
    keys = service.store.keys()
    queries = [("estimate", key, None) for key in keys] + [
        ("loglik", key, x) for key in keys
    ]
    batched_s, batched_results = best_of(lambda: service.query_many(queries), repeats)
    per_request_s, per_request_results = best_of(
        lambda: [service.query_many([query])[0] for query in queries], repeats
    )
    for batched, scalar in zip(batched_results, per_request_results):
        if hasattr(batched, "mean"):
            np.testing.assert_allclose(batched.mean, scalar.mean, rtol=0, atol=1e-10)
            np.testing.assert_allclose(
                batched.covariance, scalar.covariance, rtol=0, atol=1e-10
            )
        else:
            np.testing.assert_allclose(batched, scalar, rtol=0, atol=1e-8)
    return {
        "n_sessions": n_sessions,
        "dim": dim,
        "n_queries": len(queries),
        "rows_per_session": rows_per_session,
        "repeats": repeats,
        "per_request_s": round(per_request_s, 6),
        "batched_s": round(batched_s, 6),
        "speedup": round(per_request_s / batched_s, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=10_000)
    parser.add_argument("--ops", type=int, default=100_000)
    parser.add_argument("--dim", type=int, default=5)
    parser.add_argument("--alpha", type=float, default=1.6)
    parser.add_argument("--query-every", type=int, default=5_000)
    parser.add_argument("--shards", type=int, nargs="+", default=[1, 2, 4, 8])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_serving.json")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="shrink the workload for CI (and gate 4 shards >= 2x)",
    )
    parser.add_argument(
        "--wal",
        choices=["none", "v2"],
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
        if not {1, 4} <= set(args.shards):
            parser.error("--smoke gates 4 shards against 1: --shards must include 1 and 4")
        args.sessions = min(args.sessions, 256)
        args.ops = min(args.ops, 3_000)
        args.query_every = min(args.query_every, 750)

    print(
        f"sharded serving load: {args.sessions} sessions, {args.ops} ops, "
        f"d={args.dim}, zipf alpha={args.alpha}, "
        f"query every {args.query_every}, wal={args.wal}, wire={args.wire}"
    )
    passes = SMOKE_PASSES if args.smoke else 1
    results = sharded_load(
        args.shards,
        passes=passes,
        n_sessions=args.sessions,
        n_ops=args.ops,
        dim=args.dim,
        alpha=args.alpha,
        query_every=args.query_every,
        seed=args.seed,
        wal=args.wal,
        wire=args.wire,
    )
    for row in results["per_shard"].values():
        print(
            f"  shards={row['n_shards']}: {row['rows_per_s']:,} rows/s "
            f"({row['elapsed_s']:.3f}s), estimate p50/p99 "
            f"{row['estimate_p50_ms']:.2f}/{row['estimate_p99_ms']:.2f} ms"
        )
    if results["speedup_at_4_shards"] is not None:
        print(f"  4-shard speedup over single shard: {results['speedup_at_4_shards']:.2f}x")

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
            "passes": passes,
            "seed": args.seed,
            "speedup_floor_at_4_shards": SHARD_SPEEDUP_FLOOR if args.smoke else None,
        },
        results=results,
    )
    print(f"appended to {args.out}")

    if args.smoke:
        speedup = ratio(results["per_shard"], "4", "1")
        if speedup < SHARD_SPEEDUP_FLOOR:
            print(
                f"FAIL: 4-shard speedup {speedup:.2f}x below the "
                f"{SHARD_SPEEDUP_FLOOR}x floor",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
