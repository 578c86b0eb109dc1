#!/usr/bin/env python
"""Microbenchmark the CV hyper-parameter search: loop vs batched kernel.

Runs the full two-dimensional search (Sec. 4.2) through both scorers on the
same problem and folds, verifies they agree, and writes the timing summary
to ``BENCH_cv.json`` at the repository root so regressions are visible in
review diffs.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/bench_cv.py [--dim 5] [--grid 12]
        [--n-samples 32] [--n-folds 4] [--repeats 5] [--out BENCH_cv.json]

Times are best-of-``--repeats`` wall clock, which filters scheduler noise
on shared machines.

``BENCH_cv.json`` is an append-only trajectory (see
:mod:`repro.bench.trajectory`): every run adds a timestamped entry to the
``history`` array instead of overwriting the previous numbers.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import numpy as np

from repro.bench import append_entry
from repro.core.crossval import TwoDimensionalCV
from repro.core.hypergrid import HyperParameterGrid
from repro.core.prior import PriorKnowledge
from repro.stats.multivariate_gaussian import MultivariateGaussian


def build_problem(dim: int, n_samples: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    sigma = a @ a.T + dim * np.eye(dim)
    truth = MultivariateGaussian(rng.standard_normal(dim), sigma)
    prior = PriorKnowledge(truth.mean + 0.05, sigma * 1.1)
    return prior, truth.sample(n_samples, rng)


def best_of(fn, repeats: int) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=5)
    parser.add_argument("--grid", type=int, default=12, help="grid points per axis")
    parser.add_argument("--n-samples", type=int, default=32)
    parser.add_argument("--n-folds", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_cv.json",
    )
    args = parser.parse_args()

    prior, data = build_problem(args.dim, args.n_samples, args.seed)
    grid = HyperParameterGrid.paper_default(
        args.dim, n_kappa=args.grid, n_v=args.grid
    )

    def run(scoring):
        cv = TwoDimensionalCV(prior, grid, n_folds=args.n_folds, scoring=scoring)
        return cv.select(data, rng=np.random.default_rng(1))

    loop_s, loop_result = best_of(lambda: run("loop"), args.repeats)
    batched_s, batched_result = best_of(lambda: run("batched"), args.repeats)

    max_abs_diff = float(np.max(np.abs(batched_result.scores - loop_result.scores)))
    if batched_result.kappa0 != loop_result.kappa0 or (
        batched_result.v0 != loop_result.v0
    ):
        raise SystemExit("scorers disagree on the winner -- refusing to report")
    if max_abs_diff > 1e-9 * max(1.0, float(np.abs(loop_result.scores).max())):
        raise SystemExit(
            f"score surfaces diverge (max |diff| = {max_abs_diff:g}) -- "
            "refusing to report"
        )

    speedup = round(loop_s / batched_s, 2)
    append_entry(
        args.out,
        "cv",
        config={
            "dim": args.dim,
            "grid": f"{args.grid}x{args.grid}",
            "n_samples": args.n_samples,
            "n_folds": args.n_folds,
            "repeats": args.repeats,
            "seed": args.seed,
        },
        results={
            "loop_s": round(loop_s, 6),
            "batched_s": round(batched_s, 6),
            "speedup": speedup,
            "max_abs_score_diff": max_abs_diff,
            "selected": {
                "kappa0": batched_result.kappa0,
                "v0": batched_result.v0,
            },
        },
    )
    print(
        f"loop {loop_s * 1e3:.1f} ms | batched {batched_s * 1e3:.1f} ms | "
        f"speedup {speedup}x | max |score diff| {max_abs_diff:.2e}"
    )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
