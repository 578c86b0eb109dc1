"""Counters are shard sums, and exact across restore and recover.

Each worker counts what it applied (requests by kind, ingest calls and
samples) in the state its checkpoint holds and its log replays, and a
coalesced block counts as the calls it holds.  So the router's ``stats()``
totals are the sums of its shards' entries, and the same live, after
``restore`` of a checkpoint plus its log tail, and after ``recover`` from
the logs alone.  A query batch refused for an unknown kind counts nothing,
live or replayed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.prior import PriorKnowledge
from repro.exceptions import ConfigError
from repro.serving import ShardedMomentService, ShardWorker
from repro.serving.wal import WriteAheadLog
from repro.stats.suffstats import SufficientStats

D = 3
KEYS = [f"pop/{i}" for i in range(6)]
COUNTED = ("requests", "ingest_calls", "ingested_samples")


def _traffic(service, rng, n_rows):
    """Single rows (coalesced on a multi-shard router), blocks, a
    statistics merge and reads of every kind."""
    draws = rng.choice(len(KEYS), size=n_rows, p=[0.4, 0.2, 0.15, 0.1, 0.1, 0.05])
    for i, k in enumerate(draws):
        service.ingest(KEYS[k], rng.standard_normal(D))
        if i % 40 == 0:
            service.ingest(KEYS[(k + 1) % len(KEYS)], rng.standard_normal((5, D)))
        if i % 55 == 0:
            service.query_many(
                [
                    ("estimate", KEYS[k], None),
                    ("loglik", KEYS[0], rng.standard_normal((2, D))),
                    ("yield", KEYS[1], (np.full(D, -3.0), np.full(D, 3.0))),
                    ("estimate", KEYS[0], None),
                ]
            )
        if i % 70 == 0:
            # a bad kind after a good query refuses the whole batch
            with pytest.raises(ConfigError):
                service.query_many([("estimate", KEYS[k], None), ("bogus", KEYS[0], None)])
    service.ingest_stats(KEYS[2], SufficientStats.from_samples(rng.standard_normal((4, D))))


def _counted(stats):
    top = {name: stats[name] for name in COUNTED}
    sums = {
        "requests": {
            kind: sum(shard["requests"][kind] for shard in stats["shards"])
            for kind in stats["requests"]
        },
        "ingest_calls": sum(shard["ingest_calls"] for shard in stats["shards"]),
        "ingested_samples": sum(shard["ingested_samples"] for shard in stats["shards"]),
    }
    assert top == sums
    return top


@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_counters_equal_live_restored_and_recovered(n_shards, tmp_path):
    rng = np.random.default_rng(36)
    prior = PriorKnowledge(np.zeros(D), np.eye(D) + 0.2, 12)
    wal_dir, ckpt = tmp_path / "wal", tmp_path / "ckpt"
    with ShardedMomentService(n_shards=n_shards, wal_dir=wal_dir) as live:
        for key in KEYS:
            live.create_session(key, prior, kappa0=2.0, v0=D + 2.0)
        _traffic(live, rng, 150)
        live.checkpoint(ckpt)
        _traffic(live, rng, 150)  # the log tail past the checkpoint
        want = _counted(live.stats())
    # every call, sample and request of the stream, counted once
    assert want["ingest_calls"] == 2 * (150 + 4 + 1)
    assert want["ingested_samples"] == 2 * (150 + 4 * 5 + 4)
    assert want["requests"] == {"estimate": 12, "loglik": 6, "yield": 6}

    with ShardedMomentService.restore(ckpt, wal_dir=wal_dir) as restored:
        assert _counted(restored.stats()) == want
    with ShardedMomentService.recover(wal_dir) as recovered:
        assert _counted(recovered.stats()) == want


def test_bare_worker_counters_equal_live_and_recovered(tmp_path):
    rng = np.random.default_rng(37)
    prior = PriorKnowledge(np.zeros(D), np.eye(D) + 0.2, 12)
    path = tmp_path / "shard-000.wal"
    with ShardWorker(wal=WriteAheadLog.create(path, shard_id=0)) as live:
        for key in KEYS:
            live.create_session(key, prior, kappa0=2.0, v0=D + 2.0)
        _traffic(live, rng, 150)
        want = {name: live.stats()[name] for name in COUNTED}
    assert want["requests"] == {"estimate": 6, "loglik": 3, "yield": 3}
    recovered = ShardWorker._recover(path)
    try:
        assert {name: recovered.stats()[name] for name in COUNTED} == want
    finally:
        recovered.close()
