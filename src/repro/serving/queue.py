"""Micro-batching request queue with bounded backpressure.

Concurrent ``estimate`` / ``loglik`` / ``yield`` queries arriving across
many sessions are individually tiny — a ``(d, d)`` Cholesky and a few
BLAS-1 ops — so their cost is dominated by Python dispatch.  The queue
coalesces them: a collector thread gathers up to ``max_batch`` pending
requests (waiting at most ``max_wait`` seconds for stragglers once the
first arrives) and hands the batch to a handler that scores it through
the stacked kernels in :mod:`repro.linalg.batched`.

Backpressure is explicit: the pending deque is bounded by
``max_pending`` and an overflowing :meth:`MicroBatchQueue.submit` raises
:class:`~repro.exceptions.ServiceOverloadedError` immediately — clients
shed load or retry with backoff; the server never grows without bound.

Worker seeding follows the discipline of
:mod:`repro.experiments.parallel`: the worker count is normalised by
:func:`~repro.experiments.parallel.resolve_n_jobs`, and each dispatched
batch receives a generator derived from a :class:`numpy.random.SeedSequence`
child taken in *dispatch order* — so any randomised scoring a handler
performs is bit-identical regardless of how many workers drain the queue.
(``time.perf_counter`` is used only for the coalescing deadline and
latency annotations, which reprolint's determinism rule explicitly
permits.)
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigError, ReproError, ServiceOverloadedError
from repro.experiments.parallel import resolve_n_jobs

__all__ = ["Request", "MicroBatchQueue", "QUERY_KINDS", "build_requests"]

#: Request kinds the serving layer understands.
QUERY_KINDS = ("estimate", "loglik", "yield")


@dataclass
class Request:
    """One pending query.

    Attributes
    ----------
    kind:
        One of :data:`QUERY_KINDS`.
    key:
        Target session key.
    payload:
        Kind-specific argument (``None`` for ``estimate``, an ``(n, d)``
        sample block for ``loglik``, a ``(lower, upper)`` bounds pair for
        ``yield``).
    future:
        Resolved by the batch handler with the query result.
    submitted_at:
        ``time.perf_counter()`` stamp for the latency counters.
    """

    kind: str
    key: str
    payload: Any
    future: "Future[Any]" = field(default_factory=Future)
    submitted_at: float = 0.0


def build_requests(
    queries: Sequence[Tuple[str, str, Any]],
    record_request: Callable[[str], None],
) -> List[Request]:
    """Turn ``(kind, key, payload)`` queries into one synchronous batch.

    Kinds are validated and counted (``record_request(kind)``) in
    submission order and every request shares one submission stamp; an
    unknown kind raises :class:`~repro.exceptions.ConfigError` after the
    queries before it were counted.
    """
    now = time.perf_counter()
    requests: List[Request] = []
    for kind, key, payload in queries:
        if kind not in QUERY_KINDS:
            raise ConfigError(f"unknown request kind {kind!r}; expected {QUERY_KINDS}")
        record_request(kind)
        requests.append(
            Request(kind=kind, key=str(key), payload=payload, submitted_at=now)
        )
    return requests


#: A batch handler: answers every request in the list by resolving its
#: future.  The generator is the batch's SeedSequence child (dispatch
#: order), for handlers with randomised scoring.
BatchHandler = Callable[[List[Request], np.random.Generator], None]


class MicroBatchQueue:
    """Bounded queue that coalesces requests into handler batches.

    Parameters
    ----------
    handler:
        Batch scoring callback; must resolve every request's future.
    max_batch:
        Largest batch handed to the handler.
    max_wait:
        Seconds the collector lingers for stragglers after the first
        pending request of a batch; ``0`` dispatches immediately.
    max_pending:
        Backpressure bound on queued (not yet dispatched) requests.
    n_workers:
        Handler concurrency, normalised by
        :func:`~repro.experiments.parallel.resolve_n_jobs` (``1`` runs
        batches on the collector thread itself).
    seed:
        Root seed for the per-batch generator chain.
    """

    def __init__(
        self,
        handler: BatchHandler,
        max_batch: int = 64,
        max_wait: float = 0.002,
        max_pending: int = 4096,
        n_workers: Optional[int] = 1,
        seed: int = 0,
    ) -> None:
        if max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait < 0.0:
            raise ConfigError(f"max_wait must be >= 0, got {max_wait}")
        if max_pending < 1:
            raise ConfigError(f"max_pending must be >= 1, got {max_pending}")
        self._handler = handler
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait)
        self.max_pending = int(max_pending)
        self.n_workers = resolve_n_jobs(n_workers)
        self._seedseq = np.random.SeedSequence(seed)
        self._pending: Deque[Request] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._inflight = 0
        # counters (read under the condition lock)
        self.batches_dispatched = 0
        self.requests_handled = 0
        self.occupancy_sum = 0
        self.depth_high_water = 0
        self.overflows = 0
        self._pool: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(max_workers=self.n_workers)
            if self.n_workers > 1
            else None
        )
        self._collector = threading.Thread(
            target=self._collect, name="repro-serving-collector", daemon=True
        )
        self._collector.start()

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def submit(self, kind: str, key: str, payload: Any = None) -> "Future[Any]":
        """Enqueue a query; returns its future.

        Raises :class:`~repro.exceptions.ServiceOverloadedError` when the
        pending bound is hit or the queue is closed — the bounded-memory
        contract is a hard guarantee, not advice.
        """
        if kind not in QUERY_KINDS:
            raise ConfigError(f"unknown request kind {kind!r}; expected {QUERY_KINDS}")
        request = Request(
            kind=kind, key=str(key), payload=payload, submitted_at=time.perf_counter()
        )
        with self._cond:
            if self._closed:
                raise ServiceOverloadedError("queue is closed; request rejected")
            if len(self._pending) >= self.max_pending:
                self.overflows += 1
                raise ServiceOverloadedError(
                    f"queue full ({self.max_pending} pending requests); "
                    "retry with backoff or raise max_pending"
                )
            self._pending.append(request)
            if len(self._pending) > self.depth_high_water:
                self.depth_high_water = len(self._pending)
            self._cond.notify_all()
        return request.future

    def depth(self) -> int:
        """Current number of queued (undispatched) requests."""
        with self._cond:
            return len(self._pending)

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Block until every submitted request has been answered."""
        with self._cond:
            return self._cond.wait_for(
                lambda: not self._pending and self._inflight == 0, timeout
            )

    def counters(self) -> Dict[str, int]:
        """Snapshot of the queue counters."""
        with self._cond:
            return {
                "batches_dispatched": self.batches_dispatched,
                "requests_handled": self.requests_handled,
                "occupancy_sum": self.occupancy_sum,
                "depth": len(self._pending),
                "depth_high_water": self.depth_high_water,
                "overflows": self.overflows,
            }

    # ------------------------------------------------------------------
    # collector / workers
    # ------------------------------------------------------------------
    def _collect(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending and self._closed:
                    return
                if (
                    self.max_wait > 0.0
                    and len(self._pending) < self.max_batch
                    and not self._closed
                ):
                    deadline = time.perf_counter() + self.max_wait
                    while len(self._pending) < self.max_batch and not self._closed:
                        remaining = deadline - time.perf_counter()
                        if remaining <= 0.0:
                            break
                        self._cond.wait(remaining)
                size = min(self.max_batch, len(self._pending))
                batch = [self._pending.popleft() for _ in range(size)]
                rng = np.random.default_rng(self._seedseq.spawn(1)[0])
                self._inflight += 1
                self._cond.notify_all()
            if self._pool is None:
                self._run_batch(batch, rng)
            else:
                self._pool.submit(self._run_batch, batch, rng)

    def _run_batch(self, batch: List[Request], rng: np.random.Generator) -> None:
        try:
            self._handler(batch, rng)
        except Exception as exc:  # reprolint: disable=RPL005 -- worker boundary: failures must land in the futures, not kill the collector thread
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(exc)
        finally:
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(
                        ReproError(
                            f"handler returned without answering {request.kind!r} "
                            f"request for session {request.key!r}"
                        )
                    )
            with self._cond:
                self._inflight -= 1
                self.batches_dispatched += 1
                self.requests_handled += len(batch)
                self.occupancy_sum += len(batch)
                self._cond.notify_all()

    # ------------------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Stop the queue.

        With ``drain`` (default) pending requests are scored before the
        collector exits; otherwise they fail fast with
        :class:`~repro.exceptions.ServiceOverloadedError`.
        """
        rejected: List[Request] = []
        with self._cond:
            if self._closed and not self._collector.is_alive():
                return
            self._closed = True
            if not drain:
                rejected = list(self._pending)
                self._pending.clear()
            self._cond.notify_all()
        for request in rejected:
            if not request.future.done():
                request.future.set_exception(
                    ServiceOverloadedError("queue closed before request was scored")
                )
        self._collector.join()
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "MicroBatchQueue":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
