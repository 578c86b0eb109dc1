"""Query requests: the unit every serving scorer answers.

A query is a ``(kind, key, payload)`` triple; :func:`build_requests`
validates and counts a list of them and wraps each in a :class:`Request`
that the :class:`~repro.serving.scoring.BatchScorer` answers in place.
The worker and the shard router both turn their ``query_many`` input
into requests here, so kind validation and request accounting exist
once.  (``time.perf_counter`` stamps the latency counters only, which
reprolint's determinism rule explicitly permits.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigError

__all__ = ["Request", "QUERY_KINDS", "build_requests"]

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
    submitted_at:
        ``time.perf_counter()`` stamp for the latency counters.
    value / error:
        The answer, or the exception that refused the request; the batch
        scorer sets one of them.  Every query path is synchronous, so the
        request carries its own result and :meth:`result` reads it.
    """

    kind: str
    key: str
    payload: Any
    submitted_at: float = 0.0
    value: Any = None
    error: Optional[BaseException] = None

    def result(self) -> Any:
        """The query result; raises the query's exception if it failed."""
        if self.error is not None:
            raise self.error
        return self.value


def build_requests(
    queries: Sequence[Tuple[str, str, Any]],
    record_request: Callable[[str], None],
) -> List[Request]:
    """Turn ``(kind, key, payload)`` queries into one synchronous batch.

    Every kind is validated before any is counted: an unknown kind raises
    :class:`~repro.exceptions.ConfigError` with nothing counted, so a
    refused batch leaves no count that the write-ahead log cannot replay.
    Valid batches are counted (``record_request(kind)``) once per query in
    submission order, and every request shares one submission stamp.
    """
    for kind, _key, _payload in queries:
        if kind not in QUERY_KINDS:
            raise ConfigError(f"unknown request kind {kind!r}; expected {QUERY_KINDS}")
    now = time.perf_counter()
    requests: List[Request] = []
    for kind, key, payload in queries:
        record_request(kind)
        requests.append(
            Request(kind=kind, key=str(key), payload=payload, submitted_at=now)
        )
    return requests
