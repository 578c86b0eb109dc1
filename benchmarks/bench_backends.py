"""Solver-backend benchmarks: MNA dense vs sparse crossover.

Pytest twin of ``scripts/bench_backends.py`` sized for CI: it checks the
*shape* of the performance story — sparse overtakes dense beyond the
``auto`` crossover, and only sparse can solve a system whose stacked
dense form exceeds the default memory budget — with floors relaxed at
``REPRO_BENCH_SCALE=smoke`` where shared-runner noise makes exact ratios
meaningless.  Both tests skip when scipy is not importable, so the
optional-backends CI job and the base job both run this file.
"""

import time

import numpy as np
import pytest

from _bench_util import emit
from repro.circuits.mna import StampPlan
from repro.circuits.netlist import Netlist
from repro.exceptions import SimulationError
from repro.linalg.backends import sparse_mna

sparse_available = sparse_mna.is_available()


def _ladder(n_nodes: int):
    net = Netlist()
    net.voltage_source("Vin", "n0", "0", 1.0)
    for i in range(n_nodes):
        net.resistor(f"R{i}", f"n{i}", f"n{i + 1}", 1000.0)
        net.capacitor(f"C{i}", f"n{i + 1}", "0", 1e-9)
    plan = StampPlan(net, variable=tuple(f"R{i}" for i in range(n_nodes)))
    rng = np.random.default_rng(0)
    values = {
        f"R{i}": 1000.0 * np.exp(0.1 * rng.standard_normal(8))
        for i in range(n_nodes)
    }
    return plan, values


def _time(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


@pytest.mark.skipif(not sparse_available, reason="scipy not importable")
def test_sparse_overtakes_dense_past_crossover(scale):
    """Past the auto crossover (64 unknowns) sparse must win, and agree."""
    n_nodes = 128
    plan, values = _ladder(n_nodes)
    freqs = np.logspace(2, 8, 11)
    out = f"n{n_nodes}"

    def solve(backend):
        return plan.solve_batched(
            values, freqs, outputs=[out], backend=backend
        ).voltage(out)

    dense_s, dense_v = _time(lambda: solve("dense"))
    sparse_s, sparse_v = _time(lambda: solve("sparse"))
    rel = float(
        np.max(np.abs(sparse_v - dense_v) / np.maximum(np.abs(dense_v), 1e-300))
    )
    emit(
        f"backends mna ({scale.label}): {n_nodes}-node ladder dense "
        f"{dense_s * 1e3:.1f} ms | sparse {sparse_s * 1e3:.1f} ms "
        f"({dense_s / sparse_s:.1f}x) | max rel diff {rel:.2e}"
    )
    assert rel <= 1e-9
    # Smoke runners are too noisy to gate a ratio; reduced/paper scale
    # must show the crossover the auto heuristic is built on.
    if scale.label != "smoke":
        assert sparse_s < dense_s


@pytest.mark.skipif(not sparse_available, reason="scipy not importable")
def test_sparse_solves_where_dense_cannot():
    """A 500-node ladder at 50 freqs exceeds the default dense budget."""
    n_nodes = 500
    plan, values = _ladder(n_nodes)
    freqs = np.logspace(2, 8, 50)
    out = f"n{n_nodes}"
    with pytest.raises(SimulationError):
        plan.solve_batched(values, freqs, outputs=[out], backend="dense")
    solution = plan.solve_batched(values, freqs, outputs=[out], backend="sparse")
    v = solution.voltage(out)
    assert v.shape == (8, freqs.size)
    assert np.all(np.isfinite(v))
