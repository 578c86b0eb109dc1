#!/usr/bin/env python
"""Benchmark the scenario compiler: expansion, cold compile, cache service.

Expands the bundled ``builtin:ams_fleet`` document (106 instances across
all six registry circuits) and times three phases:

* ``expand_s`` — document parse + sweep expansion + config hashing;
* ``cold_s`` — compiling every instance into an empty dataset cache;
* ``warm_s`` — recompiling the same document (must be pure cache service).

The warm pass is also a correctness gate: any instance that re-simulates
(``cache_hit`` false) or any hash drift between the passes aborts the
report, because it means scenario identity is broken, not slow.  The
flag is the cache layer's own answer (the bank was read back from its
entry), so a corrupt entry that is rebuilt counts as a miss.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/bench_scenarios.py [--jobs -1]
        [--repeats 3] [--baseline FILE] [--out BENCH_scenarios.json]

``--baseline FILE`` reads a trajectory another tree's copy of this script
wrote (``--out FILE``, e.g. the parent commit on the same host) and stores
its last entry's ``cold_s``/``warm_s`` as ``results["baseline"]``.

Times are best-of-``--repeats`` wall clock.  ``BENCH_scenarios.json`` is
an append-only trajectory (see :mod:`repro.bench.trajectory`).
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
import time
from pathlib import Path

from repro.bench import append_entry, best_of
from repro.scenarios import (
    builtin_document_path,
    compile_all,
    expand,
    load_scenario_doc,
)

DOCUMENT = "builtin:ams_fleet"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--baseline",
        type=Path,
        help="trajectory written by another tree's copy of this script",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_scenarios.json",
    )
    args = parser.parse_args()

    path = builtin_document_path(DOCUMENT)
    expand_s, instances = best_of(lambda: expand(load_scenario_doc(path)), args.repeats)
    hashes = [inst.config_hash for inst in instances]

    work = Path(tempfile.mkdtemp(prefix="bench-scenarios-"))
    try:
        cold_s = float("inf")
        cache = work / "cache"
        for _ in range(args.repeats):
            shutil.rmtree(cache, ignore_errors=True)
            t0 = time.perf_counter()
            cold = compile_all(instances, n_jobs=args.jobs, cache_dir=cache)
            cold_s = min(cold_s, time.perf_counter() - t0)
            if any(r["cache_hit"] for r in cold):
                raise SystemExit("cold pass reported cache hits -- stale cache dir")
        warm_s, warm = best_of(
            lambda: compile_all(instances, n_jobs=args.jobs, cache_dir=cache),
            args.repeats,
        )
        if not all(r["cache_hit"] for r in warm):
            misses = [r["name"] for r in warm if not r["cache_hit"]]
            raise SystemExit(
                f"warm pass re-simulated {len(misses)} instance(s) "
                f"({misses[:3]}...) -- cache identity broken, refusing to report"
            )
        if [r["config_hash"] for r in warm] != hashes:
            raise SystemExit("config hashes drifted between passes")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = {
        "instances": len(instances),
        "expand_s": round(expand_s, 6),
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "warm_speedup": round(cold_s / warm_s, 2) if warm_s > 0 else None,
        "per_instance_cold_ms": round(1e3 * cold_s / len(instances), 3),
    }
    if args.baseline:
        before = json.loads(args.baseline.read_text())["history"][-1]["results"]
        results["baseline"] = {key: before[key] for key in ("cold_s", "warm_s")}
    append_entry(
        args.out,
        "scenarios",
        config={"document": DOCUMENT, "jobs": args.jobs, "repeats": args.repeats},
        results=results,
    )
    print(
        f"{DOCUMENT}: {results['instances']} instances | expand "
        f"{results['expand_s']:.3f} s | cold {results['cold_s']:.2f} s | "
        f"warm {results['warm_s']:.2f} s ({results['warm_speedup']}x)"
    )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
