"""Best-of-N wall-clock timing for the benchmark scripts and their twins."""

from __future__ import annotations

import time
from typing import Callable, Tuple, TypeVar

__all__ = ["best_of", "best_of_batched"]

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


def best_of_batched(
    fn: Callable[[], T], repeats: int, window_s: float
) -> Tuple[float, T]:
    """Per-call seconds of ``fn`` from the fastest of ``repeats`` batches,
    and the result of a call in that batch.

    A sub-millisecond call timed alone is mostly timer and scheduler
    jitter, so each sample times ``k`` back-to-back calls, with ``k``
    doubled until one batch lasts at least ``window_s``.  The reported
    time is the fastest batch's total divided by ``k``.
    """
    k = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(k):
            fn()
        if time.perf_counter() - t0 >= window_s:
            break
        k *= 2

    def batch() -> T:
        for _ in range(k - 1):
            fn()
        return fn()

    seconds, result = best_of(batch, repeats)
    return seconds / k, result
