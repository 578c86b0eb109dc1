"""The ``n_jobs`` knob and an order-preserving thread pool (stdlib only).

Layer 0, so the serving stack fans out without importing the experiment
harness (and through it the circuits); the process pool built on
:func:`resolve_n_jobs` lives in :mod:`repro.experiments.parallel`.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Sequence

from repro.exceptions import DimensionError

__all__ = ["resolve_n_jobs", "thread_map"]


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalise an ``n_jobs`` knob to a concrete worker count.

    ``None`` and ``1`` mean serial; ``-1`` means one worker per CPU;
    positive values are taken literally.  ``0`` and values below ``-1``
    are rejected — they are invariably typos.
    """
    if n_jobs is None:
        return 1
    jobs = int(n_jobs)
    if jobs == -1:
        return max(os.cpu_count() or 1, 1)
    if jobs < 1:
        raise DimensionError(f"n_jobs must be a positive int or -1, got {n_jobs}")
    return jobs


def thread_map(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    n_jobs: Optional[int] = 1,
) -> List[Any]:
    """Evaluate ``fn(task)`` for every task on a thread pool, order-preserving.

    The thread-side sibling of :func:`repro.experiments.parallel.replicate`
    for lock- or I/O-bound tasks (the router checkpointing its shards).
    ``fn`` may close over shared state; nothing is pickled.  The serial
    path (``n_jobs`` of ``None``/``1``, or one task) is the reference:
    results come back in task order, so they are the same for every
    worker count whenever ``fn`` is pure in its task.
    """
    jobs = resolve_n_jobs(n_jobs)
    task_list = list(tasks)
    if jobs <= 1 or len(task_list) <= 1:
        return [fn(task) for task in task_list]
    with ThreadPoolExecutor(max_workers=min(jobs, len(task_list))) as pool:
        return list(pool.map(fn, task_list))
