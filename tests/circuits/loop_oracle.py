"""The per-die reference bank of every Monte-Carlo circuit.

``simulate_batch`` has one engine.  Its reference is the circuit's own
per-die ``simulate``, called die by die: :func:`loop_bank` builds that
bank, and the equivalence tests and ``scripts/bench_mc.py`` compare
``simulate_batch`` against it with :func:`max_rel_diff`.
"""

from __future__ import annotations

import numpy as np


def loop_bank(sim, inputs) -> np.ndarray:
    """Metrics matrix of ``sim.simulate`` over ``inputs``, one die at a time.

    ``inputs`` are process samples or die seeds, whichever ``sim`` takes.
    """
    return np.array([sim.simulate(x).as_array() for x in inputs])


def max_rel_diff(value: np.ndarray, reference: np.ndarray) -> float:
    """Worst relative disagreement across every die and metric."""
    scale = np.maximum(np.abs(reference), 1e-300)
    return float(np.max(np.abs(value - reference) / scale))
