"""Best-of-N wall-clock timing for the benchmark scripts and their twins."""

from __future__ import annotations

import time
from typing import Callable, Tuple, TypeVar

__all__ = ["best_of"]

T = TypeVar("T")


def best_of(fn: Callable[[], T], repeats: int) -> Tuple[float, T]:
    """Call ``fn`` ``repeats`` times (at least once); return the fastest
    wall time in seconds and the last call's result.

    The minimum filters scheduler noise on shared machines.
    """
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result
