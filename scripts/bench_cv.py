#!/usr/bin/env python
"""Benchmark the CV hyper-parameter search against its per-candidate oracle.

Times ``TwoDimensionalCV.select`` (Sec. 4.2: d = 5, 12x12 grid, Q = 4) at
n = 8, 32, 256 and 1024 late-stage samples.  At every n the score surface
and the winner are checked against the per-candidate loop oracle in
``tests/core/cv_oracles.py`` before any time is reported, and the timing
summary is appended to ``BENCH_cv.json`` at the repository root.  Each
row also records ``fold_stats_s``, the best-of time of the fold
statistics (``_fold_stats``) alone, and ``fallback_share``: the share of
(fold, candidate) members whose conditioning bound sends them from the
closed-form scorer to the Cholesky path (n = 8, the paper's smallest
size, flags the most).  A size that ``--n-folds`` does not divide (e.g.
n = 10) runs the padded, unequal-fold path.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/bench_cv.py [--dim 5] [--grid 12]
        [--n-samples 8 32 256 1024] [--n-folds 4] [--repeats 5]
        [--baseline FILE] [--out BENCH_cv.json]

    # time another checkout with its own script (no oracle, no write)
    cd /path/to/other && PYTHONPATH=src python scripts/bench_cv.py --timings-only > FILE

``--baseline FILE`` stores such timings (e.g. of the parent commit) in
the entry as ``results["baseline"]``, next to this tree's.  While
``_fold_stats`` and ``make_folds`` keep their signatures, this script can
also time another tree's sources directly
(``PYTHONPATH=/path/to/other/src python scripts/bench_cv.py --timings-only``).

Each time is per call: the fastest of ``--repeats`` batches, each batch
``k`` back-to-back calls with ``k`` chosen so one batch lasts at least
``SAMPLE_WINDOW_S`` (recorded in the entry's ``config``).  A lone
sub-millisecond call is mostly scheduler and timer jitter on shared
machines; the batch and the minimum filter it.
``benchmarks/bench_batched_cv.py`` runs the same functions under pytest.  ``BENCH_cv.json`` is an append-only trajectory (see
:mod:`repro.bench.trajectory`): every run adds a timestamped entry to the
``history`` array instead of overwriting the previous numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.bench import append_entry, best_of_batched
from repro.core.crossval import (
    TwoDimensionalCV,
    _closed_form_fold_ll,
    _fold_stats,
    make_folds,
)
from repro.core.hypergrid import HyperParameterGrid
from repro.core.prior import PriorKnowledge
from repro.stats.multivariate_gaussian import MultivariateGaussian

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Largest relative score deviation from the oracle that may be reported
#: (the winner must match exactly).
ORACLE_RTOL = 1e-10
#: Shortest wall time of one timed batch of calls, in seconds.
SAMPLE_WINDOW_S = 0.05


def build_problem(dim: int, n_samples: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    sigma = a @ a.T + dim * np.eye(dim)
    truth = MultivariateGaussian(rng.standard_normal(dim), sigma)
    prior = PriorKnowledge(truth.mean + 0.05, sigma * 1.1)
    return prior, truth.sample(n_samples, rng)


def time_select(
    n_samples,
    dim: int = 5,
    grid: int = 12,
    n_folds: int = 4,
    repeats: int = 5,
    seed: int = 0,
    oracle: bool = True,
) -> dict:
    """Per-call batch times of ``select`` and of its fold statistics at
    every n in ``n_samples``, keyed by n.

    With ``oracle``, each row also holds the score surface's worst
    relative deviation from the per-candidate loop oracle, whether the
    winners match, and the fallback share of the timed split.
    """
    if oracle:
        if str(REPO_ROOT) not in sys.path:
            sys.path.insert(0, str(REPO_ROOT))
        from tests.core.cv_oracles import cv_loop_select, max_rel_deviation

    hyper_grid = HyperParameterGrid.paper_default(dim, n_kappa=grid, n_v=grid)
    rows = {}
    for n in n_samples:
        prior, data = build_problem(dim, n, seed)
        cv = TwoDimensionalCV(prior, hyper_grid, n_folds=n_folds)
        seconds, result = best_of_batched(
            lambda: cv.select(data, rng=np.random.default_rng(1)),
            repeats,
            SAMPLE_WINDOW_S,
        )
        folds = make_folds(n, min(n_folds, n), np.random.default_rng(1))
        fold_seconds, _ = best_of_batched(
            lambda: _fold_stats(data, folds), repeats, SAMPLE_WINDOW_S
        )
        row = {"select_s": round(seconds, 6), "fold_stats_s": round(fold_seconds, 6)}
        if oracle:
            want = cv_loop_select(
                prior, hyper_grid, data, n_folds, rng=np.random.default_rng(1)
            )
            row["max_oracle_dev"] = max_rel_deviation(result.scores, want.scores)
            row["winner_matches"] = (result.kappa0, result.v0) == (want.kappa0, want.v0)
            row["selected"] = {"kappa0": result.kappa0, "v0": result.v0}
            row["fallback_share"] = fallback_share(cv, data, np.random.default_rng(1))
        rows[str(n)] = row
    return rows


def fallback_share(cv: TwoDimensionalCV, data: np.ndarray, rng) -> float:
    """Share of the (fold, candidate) members ``cv.select(data, rng)`` re-scores
    on the Cholesky path instead of in closed form."""
    n = data.shape[0]
    stats = _fold_stats(data, make_folds(n, min(cv.n_folds, n), rng))
    _, flagged = _closed_form_fold_ll(cv.prior, cv.grid, stats)
    return float(flagged.mean())


def gate_failures(rows: dict) -> list:
    """Every n whose winner or score surface disagrees with the oracle."""
    failures = []
    for n, row in rows.items():
        if not row["winner_matches"]:
            failures.append(f"n={n}: scorer and oracle disagree on the winner")
        if row["max_oracle_dev"] > ORACLE_RTOL:
            failures.append(
                f"n={n}: score surface diverges from the oracle "
                f"(max rel dev = {row['max_oracle_dev']:g})"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=5)
    parser.add_argument("--grid", type=int, default=12, help="grid points per axis")
    parser.add_argument("--n-samples", type=int, nargs="+", default=[8, 32, 256, 1024])
    parser.add_argument("--n-folds", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--timings-only",
        action="store_true",
        help="print the per-n select times as JSON; no oracle, no write",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        help="--timings-only output of another tree, stored as results['baseline']",
    )
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_cv.json")
    args = parser.parse_args(argv)

    sizing = dict(
        dim=args.dim,
        grid=args.grid,
        n_folds=args.n_folds,
        repeats=args.repeats,
        seed=args.seed,
    )
    if args.timings_only:
        print(json.dumps(time_select(args.n_samples, oracle=False, **sizing)))
        return 0

    rows = time_select(args.n_samples, **sizing)
    failures = gate_failures(rows)
    if failures:
        print("refusing to report:", *failures, sep="\n  ", file=sys.stderr)
        return 1

    baseline = json.loads(args.baseline.read_text()) if args.baseline else None
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
            "sample_window_s": SAMPLE_WINDOW_S,
            "gates": {"max_oracle_dev": ORACLE_RTOL, "winner_matches": True},
        },
        results={"select": rows, **({"baseline": baseline} if baseline else {})},
    )
    for n, row in rows.items():
        before = ""
        if baseline and n in baseline:
            before = f" (baseline {baseline[n]['select_s'] * 1e3:.2f} ms)"
        print(
            f"n={n}: select {row['select_s'] * 1e3:.2f} ms{before} | "
            f"fold stats {row['fold_stats_s'] * 1e6:.0f} us | "
            f"max oracle dev {row['max_oracle_dev']:.1e} | "
            f"fallback share {row['fallback_share']:.3f}"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
