"""Long-running moment-estimation serving stack (router / worker / WAL).

Everything below this package estimates from a dataset it is handed; this
package keeps the estimation *state* alive between requests, which is how
BMF is actually consumed on a tester floor — measurements trickle in die
by die, and the MAP estimate must be queryable at any instant without
re-touching raw samples.  The stack is layered bottom-up:

* :mod:`repro.serving.suffstats` — serving names for the mergeable
  sufficient-statistics substrate (:mod:`repro.stats.suffstats`) and the
  stacked Eq. (31)–(32) MAP kernel (:mod:`repro.core.bmf`).
* :mod:`repro.serving.counters` — thread-safe request/ingest/latency
  counters shared by every layer above.
* :mod:`repro.serving.wal` — per-shard append-only, sha256-chained
  write-ahead log of binary frames with group-commit buffering,
  torn-tail recovery, and atomic compaction.
* :mod:`repro.serving.sessions` — keyed session store with LRU capacity
  and logical-clock TTL eviction.
* :mod:`repro.serving.queue` — the query :class:`Request` and its
  validation (:func:`~repro.serving.queue.build_requests`).
* :mod:`repro.serving.checkpoint` — atomic, integrity-checked snapshot /
  bit-identical restore.
* :mod:`repro.serving.scoring` — the grouped stacked-kernel batch
  scorer all services answer through.
* :mod:`repro.serving.worker` — :class:`ShardWorker`: one store slice +
  counters + scorer (+ WAL), with bit-identical log replay.  A worker on
  its own is the single-process service; it checkpoints to one file.
* :mod:`repro.serving.router` — :class:`ShardedMomentService`:
  consistent-hash placement (each key on its home shard), coalesced
  ingest, home-shard queries, manifest-directory checkpoints.
* :mod:`repro.serving.protocol` — JSON-lines request handling for the
  ``repro serve`` CLI verb (fronts either entry point).
"""

from repro.core.bmf import map_moments_stack
from repro.serving.checkpoint import (
    CHECKPOINT_SCHEMA,
    CHECKPOINT_SCHEMA_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from repro.serving.counters import ServiceCounters
from repro.serving.protocol import (
    WIRE_B64F64,
    decode_array,
    encode_array,
    handle_request,
    serve_loop,
)
from repro.serving.queue import QUERY_KINDS, Request
from repro.serving.router import MANIFEST_SCHEMA, HashRing, ShardedMomentService
from repro.serving.scoring import BatchScorer
from repro.serving.sessions import Session, SessionStore
from repro.serving.wal import WAL_SCHEMA_V2, WriteAheadLog
from repro.serving.worker import ShardWorker
from repro.stats.suffstats import SufficientStats, merge_all

__all__ = [
    "BatchScorer",
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_SCHEMA_VERSION",
    "HashRing",
    "MANIFEST_SCHEMA",
    "QUERY_KINDS",
    "Request",
    "ServiceCounters",
    "Session",
    "SessionStore",
    "ShardWorker",
    "ShardedMomentService",
    "SufficientStats",
    "WAL_SCHEMA_V2",
    "WIRE_B64F64",
    "WriteAheadLog",
    "decode_array",
    "encode_array",
    "handle_request",
    "load_checkpoint",
    "map_moments_stack",
    "merge_all",
    "save_checkpoint",
    "serve_loop",
]
