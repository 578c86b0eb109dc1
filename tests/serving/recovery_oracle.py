"""Two-pass write-ahead-log recovery, kept as the oracle of the one-pass path.

A shard used to be rebuilt from its log in two passes:
:meth:`~repro.serving.wal.WriteAheadLog.open` verified the whole chain
(dropping a torn tail) and discarded the records, then
:meth:`~repro.serving.worker.ShardWorker.replay` re-read and re-verified
the file through :meth:`~repro.serving.wal.WriteAheadLog.records` and
applied each record (:meth:`~repro.serving.worker.ShardWorker.restore` did
the same for the tail past a checkpoint's covered offset).  Recovery now
applies each record while ``open`` verifies it; the functions here keep
the old sequence so the two can be compared state for state.
``tests/serving/test_recovery.py`` pins the equivalence and
``scripts/bench_serving.py`` times the one-pass path against it.

``open`` truncates a torn tail, so give the oracle and the path under test
separate copies of a damaged log.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, List, Optional

from repro.serving import ShardWorker, WriteAheadLog


def two_pass_worker(
    wal_path: Any,
    checkpoint: Optional[Any] = None,
    shard_id: int = 0,
    max_sessions: int = 1024,
    ttl_ops: Optional[int] = None,
) -> ShardWorker:
    """Open the log (pass one), then replay it from disk (pass two)."""
    wal = WriteAheadLog.open(wal_path)
    if checkpoint is not None:
        return ShardWorker.restore(checkpoint, shard_id=shard_id, wal=wal)
    worker = ShardWorker(shard_id=shard_id, max_sessions=max_sessions, ttl_ops=ttl_ops, wal=wal)
    worker.replay(wal)
    return worker


def two_pass_recover(
    wal_dir: Any,
    max_sessions_per_shard: int = 1024,
    ttl_ops: Optional[int] = None,
) -> List[ShardWorker]:
    """:func:`two_pass_worker` per ``shard-NNN.wal``, the shards of
    :meth:`~repro.serving.router.ShardedMomentService.recover`."""
    return [
        two_pass_worker(
            path,
            shard_id=shard,
            max_sessions=max_sessions_per_shard,
            ttl_ops=ttl_ops,
        )
        for shard, path in enumerate(sorted(Path(wal_dir).glob("shard-*.wal")))
    ]
