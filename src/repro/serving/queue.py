"""Query requests: the unit every serving scorer answers.

A query is a ``(kind, key, payload)`` triple; :func:`build_requests`
validates and counts a list of them and wraps each in a
:class:`Request` whose future the
:class:`~repro.serving.scoring.BatchScorer` resolves.  The worker and the
shard router both turn their ``query_many`` input into requests here, so
kind validation and request accounting exist once.  (``time.perf_counter``
stamps the latency counters only, which reprolint's determinism rule
explicitly permits.)
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, List, Sequence, Tuple

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
    future:
        Resolved by the batch scorer with the query result.
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
