#!/usr/bin/env python
"""Benchmark the MNA solver backends: dense vs sparse on an RC ladder.

An RC ladder with per-sample variable resistors is solved through
``backend="dense"`` and ``backend="sparse"`` at growing node counts,
recording wall time and the max relative disagreement (gated at 1e-9,
the sparse backend's documented tolerance).  The largest rung is sized
so the dense path *cannot* run inside the default 512 MiB memory budget
— the scenario the sparse backend exists for — and records dense as
infeasible rather than a time.  Results are appended to the
``BENCH_backends.json`` trajectory (see :mod:`repro.bench.trajectory`)
at the repository root.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/bench_backends.py [--repeats 3]
        [--mc-samples 64] [--out BENCH_backends.json] [--smoke]

``--smoke`` shrinks sizes for CI wall-clock budgets.
``benchmarks/bench_backends.py`` runs the same functions under pytest.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.bench import append_entry, best_of
from repro.circuits.mna import StampPlan
from repro.circuits.netlist import Netlist
from repro.exceptions import SimulationError
from repro.linalg.backends import sparse_mna

#: Relative-agreement gate between MNA backends (the documented sparse
#: tolerance; see docs/PERFORMANCE.md).
MNA_REL_TOL = 1e-9

#: Ladder size past the ``auto`` crossover (64 unknowns) at which sparse
#: must beat dense; ``benchmarks/bench_backends.py`` asserts it outside
#: smoke scale.
CROSSOVER_NODES = 128


def ladder(n_nodes: int, n_samples: int, seed: int = 0):
    """An ``n_nodes``-node RC ladder with every series resistor variable,
    and ``n_samples`` log-normal draws of those resistors."""
    net = Netlist()
    net.voltage_source("Vin", "n0", "0", 1.0)
    for i in range(n_nodes):
        net.resistor(f"R{i}", f"n{i}", f"n{i + 1}", 1000.0)
        net.capacitor(f"C{i}", f"n{i + 1}", "0", 1e-9)
    plan = StampPlan(net, variable=tuple(f"R{i}" for i in range(n_nodes)))
    rng = np.random.default_rng(seed)
    values = {
        f"R{i}": 1000.0 * np.exp(0.1 * rng.standard_normal(n_samples))
        for i in range(n_nodes)
    }
    return plan, values


def solve_ladder(plan: StampPlan, values: dict, freqs: np.ndarray, backend: str):
    """The last ladder node's voltage over ``freqs``."""
    out = f"n{len(values)}"
    return plan.solve_batched(values, freqs, outputs=[out], backend=backend).voltage(out)


def bench_mna(sizes, n_samples: int, n_freqs: int, repeats: int) -> list:
    freqs = np.logspace(2, 8, n_freqs)
    rows = []
    sparse_ok = sparse_mna.is_available()
    for n_nodes in sizes:
        plan, values = ladder(n_nodes, n_samples)
        row = {
            "n_nodes": n_nodes,
            "reduced_size": plan.reduced_size,
            "n_samples": n_samples,
            "n_freqs": n_freqs,
        }
        try:
            dense_s, dense_v = best_of(
                lambda: solve_ladder(plan, values, freqs, "dense"), repeats
            )
            row["dense_s"] = round(dense_s, 6)
        except SimulationError as exc:
            dense_v = None
            row["dense_s"] = None
            row["dense_infeasible"] = str(exc)

        if sparse_ok:
            sparse_s, sparse_v = best_of(
                lambda: solve_ladder(plan, values, freqs, "sparse"), repeats
            )
            row["sparse_s"] = round(sparse_s, 6)
            if dense_v is not None:
                row["max_rel_diff"] = float(
                    np.max(
                        np.abs(sparse_v - dense_v)
                        / np.maximum(np.abs(dense_v), 1e-300)
                    )
                )
                row["speedup_sparse_over_dense"] = round(dense_s / sparse_s, 2)
        else:
            row["sparse_s"] = None
            row["sparse_unavailable"] = "scipy not importable"
        rows.append(row)
        print(
            f"mna ladder {n_nodes:4d} nodes: dense "
            f"{row['dense_s'] if row['dense_s'] is not None else 'infeasible'} s"
            f" | sparse {row['sparse_s']} s"
        )
    return rows


def gate_failures(rows: list) -> list:
    """Every ladder size where the backends disagree beyond ``MNA_REL_TOL``."""
    return [
        f"dense/sparse diverge at {row['n_nodes']} nodes "
        f"(max rel diff {row['max_rel_diff']:g})"
        for row in rows
        if row.get("max_rel_diff", 0.0) > MNA_REL_TOL
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--mc-samples", type=int, default=64)
    parser.add_argument(
        "--smoke", action="store_true", help="shrink sizes for CI budgets"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_backends.json",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        sizes, n_samples, n_freqs = (16, 80), 8, 11
    else:
        # 500 nodes x 50 freqs x 64 samples needs ~574 MiB of stacked
        # dense systems -- beyond the default 512 MiB budget, so the
        # dense path refuses and only the sparse backend produces a time.
        sizes, n_samples, n_freqs = (16, 64, 128, 200, 500), args.mc_samples, 50

    mna_rows = bench_mna(sizes, n_samples, n_freqs, args.repeats)
    failures = gate_failures(mna_rows)
    if failures:
        print("refusing to report:", *failures, sep="\n  ", file=sys.stderr)
        return 1

    append_entry(
        args.out,
        "backends",
        config={
            "sizes": list(sizes),
            "mc_samples": n_samples,
            "n_freqs": n_freqs,
            "repeats": args.repeats,
            "smoke": args.smoke,
            "gates": {"max_rel_diff": MNA_REL_TOL, "crossover_nodes": CROSSOVER_NODES},
        },
        results={"mna_ladder": mna_rows},
    )
    print(f"appended to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
