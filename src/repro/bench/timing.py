"""Best-of-N wall-clock timing for the benchmark scripts and their twins."""

from __future__ import annotations

import time
from typing import Callable, Tuple, TypeVar

__all__ = ["best_of"]

T = TypeVar("T")


def best_of(fn: Callable[[], T], repeats: int) -> Tuple[float, T]:
    """Call ``fn`` ``repeats`` times (at least once); return the fastest
    wall time in seconds and that call's result.

    The minimum filters scheduler noise on shared machines.  A result
    that carries its own timings (a load-generator row) thus comes from
    the fastest pass.
    """
    best, best_result = float("inf"), None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best, best_result = elapsed, result
    return best, best_result
