"""Solver-backend benchmarks: MNA dense vs sparse crossover.

Pytest twin of ``scripts/bench_backends.py`` sized for CI: it runs the
script's ladder bodies and checks the *shape* of the performance story —
sparse overtakes dense at ``CROSSOVER_NODES`` (past the ``auto``
crossover), and only sparse can solve a system whose stacked dense form
exceeds the default memory budget — with the ratio floor off at
``REPRO_BENCH_SCALE=smoke`` where shared-runner noise makes exact ratios
meaningless.  Both tests skip when scipy is not importable, so the
optional-backends CI job and the base job both run this file.
"""

import numpy as np
import pytest

from _bench_util import emit
from repro.exceptions import SimulationError
from repro.linalg.backends import sparse_mna
from scripts.bench_backends import (
    CROSSOVER_NODES,
    MNA_REL_TOL,
    bench_mna,
    ladder,
    solve_ladder,
)

sparse_available = sparse_mna.is_available()


@pytest.mark.skipif(not sparse_available, reason="scipy not importable")
def test_sparse_overtakes_dense_past_crossover(scale):
    """Past the auto crossover (64 unknowns) sparse must win, and agree."""
    (row,) = bench_mna([CROSSOVER_NODES], n_samples=8, n_freqs=11, repeats=1)
    emit(f"backends mna ({scale.label}): {row}")
    assert row["max_rel_diff"] <= MNA_REL_TOL
    # Smoke runners are too noisy to gate a ratio; reduced/paper scale
    # must show the crossover the auto heuristic is built on.
    if scale.label != "smoke":
        assert row["sparse_s"] < row["dense_s"]


@pytest.mark.skipif(not sparse_available, reason="scipy not importable")
def test_sparse_solves_where_dense_cannot():
    """A 500-node ladder at 50 freqs exceeds the default dense budget."""
    plan, values = ladder(500, n_samples=8)
    freqs = np.logspace(2, 8, 50)
    with pytest.raises(SimulationError):
        solve_ladder(plan, values, freqs, "dense")
    v = solve_ladder(plan, values, freqs, "sparse")
    assert v.shape == (8, freqs.size)
    assert np.all(np.isfinite(v))
