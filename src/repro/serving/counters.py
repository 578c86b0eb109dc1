"""Thread-safe service counters (shared by shard workers and the router).

Extracted to the bottom of the serving sub-layering so every layer above —
:class:`~repro.serving.worker.ShardWorker` and the shard router — can
count requests/ingest/latency through one implementation without import
cycles.

Cumulative counters (requests by kind, errors, ingest totals) are exact
state: they serialize into checkpoints and are replayed from write-ahead
logs.  The latency ring and the WAL gauges (records appended, bytes
written, physical flushes) are observability only — they measure the
*process*, not the logical state — and are deliberately excluded from
:meth:`ServiceCounters.state_dict` (WAL bytes written this process would
double-count after a restore, and checkpoint payloads must not change
shape under an observability tweak).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, Mapping

import numpy as np

from repro.serving.queue import QUERY_KINDS

__all__ = ["ServiceCounters"]


class ServiceCounters:
    """Thread-safe service counters with a bounded latency ring."""

    def __init__(self, latency_window: int = 4096) -> None:
        self._lock = threading.Lock()
        self.requests: Dict[str, int] = {kind: 0 for kind in QUERY_KINDS}
        self.errors = 0
        self.ingest_calls = 0
        self.ingested_samples = 0
        self.wal_records = 0
        self.wal_bytes = 0
        self.wal_flushes = 0
        self._latencies: Deque[float] = deque(maxlen=int(latency_window))

    def record_request(self, kind: str) -> None:
        with self._lock:
            self.requests[kind] = self.requests.get(kind, 0) + 1

    def record_requests(self, kinds: Mapping[str, int]) -> None:
        """Bulk request accounting (write-ahead-log touch replay)."""
        with self._lock:
            for kind in sorted(kinds):
                self.requests[kind] = self.requests.get(kind, 0) + int(kinds[kind])

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1

    def record_ingest(self, n_samples: int) -> None:
        with self._lock:
            self.ingest_calls += 1
            self.ingested_samples += int(n_samples)

    def record_latency(self, seconds: float) -> None:
        with self._lock:
            self._latencies.append(float(seconds))

    def record_wal_append(self, n_bytes: int) -> None:
        """One record entered a write-ahead log's group-commit buffer."""
        with self._lock:
            self.wal_records += 1
            self.wal_bytes += int(n_bytes)

    def record_wal_flush(self, n_bytes: int) -> None:
        """One physical WAL flush drained ``n_bytes`` to the page cache."""
        del n_bytes  # byte totals accrue at append time; flushes are counted
        with self._lock:
            self.wal_flushes += 1

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe counter snapshot (latencies in milliseconds)."""
        with self._lock:
            requests = dict(self.requests)
            latencies = list(self._latencies)
            out: Dict[str, Any] = {
                "requests": requests,
                "requests_total": sum(requests.values()),
                "errors": self.errors,
                "ingest_calls": self.ingest_calls,
                "ingested_samples": self.ingested_samples,
                "wal_records": self.wal_records,
                "wal_bytes": self.wal_bytes,
                "wal_flushes": self.wal_flushes,
            }
        if latencies:
            arr = np.asarray(latencies) * 1e3
            out["latency_ms_p50"] = float(np.percentile(arr, 50.0))
            out["latency_ms_p99"] = float(np.percentile(arr, 99.0))
            out["latency_samples"] = len(latencies)
        else:
            out["latency_ms_p50"] = None
            out["latency_ms_p99"] = None
            out["latency_samples"] = 0
        return out

    def state_dict(self) -> Dict[str, Any]:
        """Cumulative counters worth persisting (the latency ring is not)."""
        with self._lock:
            return {
                "requests": dict(self.requests),
                "errors": self.errors,
                "ingest_calls": self.ingest_calls,
                "ingested_samples": self.ingested_samples,
            }

    def load_state_dict(self, payload: Dict[str, Any]) -> None:
        with self._lock:
            self.requests = {str(k): int(v) for k, v in payload["requests"].items()}
            self.errors = int(payload["errors"])
            self.ingest_calls = int(payload["ingest_calls"])
            self.ingested_samples = int(payload["ingested_samples"])
