#!/usr/bin/env python
"""Benchmark the pluggable solver backends: MNA dense vs sparse, kernel numpy vs numba.

Two sweeps, both appended to the ``BENCH_backends.json`` trajectory (see
:mod:`repro.bench.trajectory`) at the repository root:

* **MNA ladder scaling** — an RC ladder with per-sample variable
  resistors is solved through ``backend="dense"`` and ``backend="sparse"``
  at growing node counts, recording wall time and the max relative
  disagreement (gated at 1e-9, the sparse backend's documented
  tolerance).  The largest rung is sized so the dense path *cannot* run
  inside the default 512 MiB memory budget — the scenario the sparse
  backend exists for — and records dense as infeasible rather than a
  time.
* **Kernel micro-benchmark** — the three batched SPD primitives behind
  the CV scorer and the serving batch scorer
  (``cholesky_batched`` / ``solve_triangular_batched`` /
  ``mahalanobis_sq_batched``) through the numpy backend and, when the
  optional numba package is importable, the compiled backend (cold JIT
  excluded by warm-up).  An absent numba is recorded as
  ``"available": false`` so the trajectory shows *why* there is no
  number.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/bench_backends.py [--repeats 3]
        [--mc-samples 64] [--out BENCH_backends.json] [--smoke]

``--smoke`` shrinks sizes for CI wall-clock budgets.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import numpy as np

from repro.bench import append_entry
from repro.circuits.mna import StampPlan
from repro.circuits.netlist import Netlist
from repro.exceptions import SimulationError
from repro.linalg import (
    available_backends,
    cholesky_batched,
    mahalanobis_sq_batched,
    solve_triangular_batched,
    use_kernel_backend,
)

#: Relative-agreement gate between MNA backends (the documented sparse
#: tolerance; see repro.linalg.backends registry metadata).
MNA_REL_TOL = 1e-9


def best_of(fn, repeats: int) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def ladder_plan(n_nodes: int) -> StampPlan:
    """An ``n_nodes``-node RC ladder with every series resistor variable."""
    net = Netlist()
    net.voltage_source("Vin", "n0", "0", 1.0)
    for i in range(n_nodes):
        net.resistor(f"R{i}", f"n{i}", f"n{i + 1}", 1000.0)
        net.capacitor(f"C{i}", f"n{i + 1}", "0", 1e-9)
    return StampPlan(net, variable=tuple(f"R{i}" for i in range(n_nodes)))


def ladder_values(n_nodes: int, n_samples: int, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    return {
        f"R{i}": 1000.0 * np.exp(0.1 * rng.standard_normal(n_samples))
        for i in range(n_nodes)
    }


def bench_mna(sizes, n_samples: int, n_freqs: int, repeats: int) -> list:
    freqs = np.logspace(2, 8, n_freqs)
    rows = []
    sparse_ok = "sparse" in available_backends("mna")
    for n_nodes in sizes:
        plan = ladder_plan(n_nodes)
        values = ladder_values(n_nodes, n_samples)
        out = f"n{n_nodes}"
        row = {
            "n_nodes": n_nodes,
            "reduced_size": plan.reduced_size,
            "n_samples": n_samples,
            "n_freqs": n_freqs,
        }

        def solve(backend):
            return plan.solve_batched(
                values, freqs, outputs=[out], backend=backend
            ).voltage(out)

        try:
            dense_s, dense_v = best_of(lambda: solve("dense"), repeats)
            row["dense_s"] = round(dense_s, 6)
        except SimulationError as exc:
            dense_v = None
            row["dense_s"] = None
            row["dense_infeasible"] = str(exc)

        if sparse_ok:
            sparse_s, sparse_v = best_of(lambda: solve("sparse"), repeats)
            row["sparse_s"] = round(sparse_s, 6)
            if dense_v is not None:
                rel = float(
                    np.max(
                        np.abs(sparse_v - dense_v)
                        / np.maximum(np.abs(dense_v), 1e-300)
                    )
                )
                if rel > MNA_REL_TOL:
                    raise SystemExit(
                        f"dense/sparse diverge at {n_nodes} nodes "
                        f"(max rel diff {rel:g}) -- refusing to report"
                    )
                row["max_rel_diff"] = rel
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


def _spd_stack(batch: int, dim: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((batch, dim, dim))
    sigma = a @ np.swapaxes(a, -1, -2) + dim * np.eye(dim)
    x = rng.standard_normal((8, dim))
    mu = rng.standard_normal((batch, dim))
    return sigma, x, mu


def bench_kernels(batch: int, dim: int, repeats: int) -> dict:
    sigma, x, mu = _spd_stack(batch, dim)
    rhs = np.broadcast_to(x.T, (sigma.shape[0], dim, x.shape[0])).copy()

    def run():
        chol, _ok = cholesky_batched(sigma)
        solve_triangular_batched(chol, rhs, lower=True)
        return mahalanobis_sq_batched(chol, mu, x)

    section: dict = {"batch": batch, "dim": dim}
    results: dict = {}
    for name in ("numpy", "numba"):
        if name not in available_backends("kernels"):
            results[name] = {"available": False}
            continue
        with use_kernel_backend(name):
            run()  # warm-up: numba JIT compiles on first call
            elapsed, maha = best_of(run, repeats)
        results[name] = {"available": True, "best_s": round(elapsed, 6)}
        section.setdefault("_maha", {})[name] = maha
    maha_by_backend = section.pop("_maha", {})
    if len(maha_by_backend) == 2:
        diff = float(
            np.max(np.abs(maha_by_backend["numba"] - maha_by_backend["numpy"]))
        )
        results["max_abs_mahalanobis_diff"] = diff
        results["speedup_numba_over_numpy"] = round(
            results["numpy"]["best_s"] / results["numba"]["best_s"], 2
        )
    section["backends"] = results
    for name in ("numpy", "numba"):
        state = results[name]
        print(
            f"kernels {name}: "
            + (f"{state['best_s']} s" if state.get("available") else "unavailable")
        )
    return section


def main() -> None:
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
    args = parser.parse_args()

    if args.smoke:
        sizes, n_samples, n_freqs = (16, 80), 8, 11
        kernel_batch = 512
    else:
        # 500 nodes x 50 freqs x 64 samples needs ~574 MiB of stacked
        # dense systems -- beyond the default 512 MiB budget, so the
        # dense path refuses and only the sparse backend produces a time.
        sizes, n_samples, n_freqs = (16, 64, 128, 200, 500), args.mc_samples, 50
        kernel_batch = 4096

    mna_rows = bench_mna(sizes, n_samples, n_freqs, args.repeats)
    kernel_section = bench_kernels(kernel_batch, 5, args.repeats)

    append_entry(
        args.out,
        "backends",
        config={
            "sizes": list(sizes),
            "mc_samples": n_samples,
            "n_freqs": n_freqs,
            "kernel_batch": kernel_batch,
            "repeats": args.repeats,
            "smoke": args.smoke,
        },
        results={"mna_ladder": mna_rows, "kernels": kernel_section},
    )
    print(f"appended to {args.out}")


if __name__ == "__main__":
    main()
