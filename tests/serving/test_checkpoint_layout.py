"""One served type: a checkpoint file is a one-shard service.

A checkpoint holds one file per shard, and a manifest directory binds them
only when there is more than one.  The ``earlier_checkpoints/`` files were
written from :func:`script` by the build before that rule (commit 4efcc03:
a bare ``ShardWorker`` behind a file, the router always behind a
manifest); they must still restore, and ``repro ingest`` on the file must
write the bytes that build wrote.  Regenerate them (only to pin a new format on purpose) with
``python tests/serving/test_checkpoint_layout.py OUTDIR`` on that build's
``PYTHONPATH``.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.circuits.montecarlo import PairedDataset
from repro.cli import main
from repro.core.prior import PriorKnowledge
from repro.exceptions import WalCorruptionError
from repro.io import save_dataset
from repro.serving import ShardedMomentService, ShardWorker

EARLIER = Path(__file__).parent / "earlier_checkpoints"
KEYS = ("a", "b", "c")

#: sha256 of ``single.ckpt`` after ``repro ingest`` of :func:`bank` (session
#: ``a``, 5 samples, seed 1), as the build before this layout wrote it.
EARLIER_INGEST_SHA256 = "82a84d7ca73c1fb59df2be1ed17e094cc4fd6c709893a9c5cb61901a604ec95a"


def script(service) -> None:
    """Creates, row and block ingests, and reads."""
    rng = np.random.default_rng(2015)
    prior = PriorKnowledge(np.array([1.0, -2.0]), np.array([[2.0, 0.4], [0.4, 1.0]]), 20)
    for key in KEYS:
        service.create_session(key, prior, kappa0=2.0, v0=5.0)
    for i, key in enumerate(KEYS):
        for _ in range(3 + i):
            service.ingest(key, rng.standard_normal(2))
        service.ingest(key, rng.standard_normal((4 + i, 2)))
    service.query_many([("estimate", key, None) for key in KEYS])
    service.ingest(KEYS[0], rng.standard_normal(2))
    service.query_many([("loglik", KEYS[1], rng.standard_normal((3, 2)))])


def bank(path: Path) -> Path:
    """A two-metric paired bank for ``repro ingest``."""
    rng = np.random.default_rng(7)
    early = rng.standard_normal((40, 2)) + [1.0, -2.0]
    dataset = PairedDataset(
        early=early,
        late=early + 0.1 * rng.standard_normal((40, 2)),
        early_nominal=np.array([1.0, -2.0]),
        late_nominal=np.array([1.0, -2.0]),
        metric_names=("m0", "m1"),
    )
    save_dataset(dataset, path)
    return path


def _oracle():
    with ShardWorker() as worker:
        script(worker)
        return {key: worker.query_many([("estimate", key, None)])[0] for key in KEYS}


@pytest.mark.parametrize("name", ["single.ckpt", "one-shard", "four-shard"])
def test_earlier_checkpoints_restore(name):
    """An earlier build's file, one-shard manifest and four-shard manifest
    each restore with every session's rows and estimate."""
    want = _oracle()
    with ShardedMomentService.restore(EARLIER / name) as service:
        assert service.n_shards == (4 if name == "four-shard" else 1)
        assert service.session_keys() == list(KEYS)
        for key in KEYS:
            got = service.estimate(key)
            assert got.n_samples == want[key].n_samples
            np.testing.assert_allclose(got.mean, want[key].mean, rtol=0.0, atol=1e-10)
            np.testing.assert_allclose(
                got.covariance, want[key].covariance, rtol=0.0, atol=1e-10
            )


def test_ingest_on_an_earlier_file_writes_the_earlier_bytes(tmp_path, capsys):
    path = Path(shutil.copy(EARLIER / "single.ckpt", tmp_path / "single.ckpt"))
    args = ["ingest", str(path), "--session", "a", "--dataset", str(bank(tmp_path / "b.npz"))]
    assert main(args + ["--samples", "5", "--seed", "1"]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EARLIER_INGEST_SHA256


def test_one_shard_checkpoints_to_the_workers_file(tmp_path):
    """One shard writes the bare worker's file at a path that is not a
    directory, and a manifest into a directory that already exists."""
    with ShardWorker() as worker, ShardedMomentService() as router:
        for service in (worker, router):
            script(service)
        worker.checkpoint(tmp_path / "worker.ckpt")
        router.checkpoint(tmp_path / "router.ckpt")
        (tmp_path / "dir").mkdir()
        router.checkpoint(tmp_path / "dir")
    assert (tmp_path / "router.ckpt").read_bytes() == (tmp_path / "worker.ckpt").read_bytes()
    assert (tmp_path / "dir" / "shard-000.ckpt").read_bytes() == (
        tmp_path / "worker.ckpt"
    ).read_bytes()
    for path in ("router.ckpt", "dir"):
        with ShardedMomentService.restore(tmp_path / path) as restored:
            assert restored.session_keys() == list(KEYS)


@pytest.mark.parametrize("n_shards", [1, 4])
def test_restore_with_a_wal_dir_logs_what_it_serves(n_shards, tmp_path):
    """A checkpoint taken without a log, restored with ``wal_dir``, gets a
    new log; restoring the same checkpoint with that log again replays all
    of it, so what was served after the first restore is kept."""
    ckpt, wal_dir = tmp_path / "ckpt", tmp_path / "wal"
    with ShardedMomentService(n_shards=n_shards) as live:
        script(live)
        live.checkpoint(ckpt)
    with ShardedMomentService.restore(ckpt, wal_dir=wal_dir) as first:
        assert all(worker.wal is not None for worker in first.workers)
        first.ingest("a", np.array([[0.5, 0.5], [1.5, -0.5]]))
        want = first.estimate("a")
        counters = first.counters.state_dict()
    with ShardedMomentService.restore(ckpt, wal_dir=wal_dir) as again:
        got = again.estimate("a")
        assert again.counters.state_dict()["ingest_calls"] == counters["ingest_calls"]
    assert got.n_samples == want.n_samples
    np.testing.assert_array_equal(got.mean, want.mean)
    np.testing.assert_array_equal(got.covariance, want.covariance)


def test_restore_refuses_a_checkpoint_whose_log_is_missing(tmp_path):
    with ShardedMomentService(wal_dir=tmp_path / "wal") as live:
        script(live)
        live.checkpoint(tmp_path / "state.ckpt")
    with pytest.raises(WalCorruptionError, match=r"shard-000\.wal"):
        ShardedMomentService.restore(tmp_path / "state.ckpt", wal_dir=tmp_path / "elsewhere")


def test_offline_ingest_keeps_the_offset_its_checkpoint_covers(tmp_path, capsys):
    """``repro ingest`` into a checkpoint that covers a log keeps that
    offset, so a restore with the log replays only what came after it."""
    wal_dir, path = tmp_path / "wal", tmp_path / "state.ckpt"
    with ShardedMomentService(wal_dir=wal_dir) as live:
        script(live)
        live.checkpoint(path)
        live.ingest("b", np.array([0.5, 0.5]))  # the log tail
    args = ["ingest", str(path), "--session", "a", "--dataset", str(bank(tmp_path / "b.npz"))]
    assert main(args + ["--samples", "5"]) == 0
    capsys.readouterr()
    want = _oracle()
    with ShardedMomentService.restore(path, wal_dir=wal_dir) as restored:
        assert restored.row_count("a") == want["a"].n_samples + 5
        assert restored.row_count("b") == want["b"].n_samples + 1


def _write_earlier_checkpoints(out: Path) -> None:
    """Write ``earlier_checkpoints/`` and print the ingest digest."""
    out.mkdir(parents=True, exist_ok=True)
    with ShardWorker() as worker:
        script(worker)
        worker.checkpoint(out / "single.ckpt")
    for name, n_shards in (("one-shard", 1), ("four-shard", 4)):
        with ShardedMomentService(n_shards=n_shards, flush_rows=4 if n_shards > 1 else None) as svc:
            script(svc)
            svc.checkpoint(out / name)
    work = out / "ingested.ckpt"
    shutil.copy(out / "single.ckpt", work)
    args = ["ingest", str(work), "--session", "a", "--dataset", str(bank(out / "b.npz"))]
    assert main(args + ["--samples", "5", "--seed", "1"]) == 0
    print(hashlib.sha256(work.read_bytes()).hexdigest())
    work.unlink()
    (out / "b.npz").unlink()


if __name__ == "__main__":
    _write_earlier_checkpoints(Path(sys.argv[1]))
