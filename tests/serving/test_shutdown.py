"""A refused flush at shutdown costs no other key's acknowledged writes.

Rows for a key with no session are acknowledged into the router's buffer
and refused only when it flushes.  ``flush()`` flushes every key before it
raises the first refusal, and ``close()`` closes (so writes out the log of)
every worker even when its flush raised.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.exceptions import SessionNotFoundError
from repro.serving import ShardedMomentService, serve_loop

KEYS = [f"die/{i}" for i in range(4)]


def _stream():
    """Four creates, three single rows each, then one row for a key that
    was never created (as a 1x2 block)."""
    lines = [
        {"op": "create", "key": key, "prior_mean": [0.0, 0.0],
         "prior_covariance": [[1.0, 0.0], [0.0, 1.0]]}
        for key in KEYS
    ]
    for i in range(3):
        for j, key in enumerate(KEYS):
            lines.append({"op": "ingest", "key": key, "samples": [float(i), float(j)]})
    lines.append({"op": "ingest", "key": "die/never", "samples": [[9.0, 9.0]]})
    return [json.dumps(line) for line in lines]


def test_close_keeps_every_other_keys_rows(tmp_path):
    wal_dir = tmp_path / "wal"
    out = io.StringIO()
    service = ShardedMomentService(n_shards=4, wal_dir=wal_dir)
    assert serve_loop(service, _stream(), out=out) == 17
    assert all(json.loads(line)["ok"] for line in out.getvalue().splitlines())
    with pytest.raises(SessionNotFoundError):
        service.close()
    with ShardedMomentService.recover(wal_dir) as recovered:
        assert recovered.session_keys() == KEYS
        assert [recovered.row_count(key) for key in KEYS] == [3] * 4
        assert recovered.stats()["ingest_calls"] == 12


def test_flush_flushes_every_key_before_it_raises():
    with ShardedMomentService(n_shards=4) as service:
        serve_loop(service, _stream(), out=io.StringIO())
        with pytest.raises(SessionNotFoundError):
            service.flush()
        assert service.stats()["coalescing"]["pending_rows"] == 0
        assert [service.estimate(key).n_samples for key in KEYS] == [3] * 4


def test_serve_reports_a_refused_flush_in_one_line(tmp_path, capsys, monkeypatch):
    wal_dir = tmp_path / "wal"
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(_stream()) + "\n"))
    assert main(["serve", "--shards", "4", "--wal-dir", str(wal_dir)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (refusal,) = [line for line in err.splitlines() if "SessionNotFoundError" in line]
    assert refusal.startswith("refused buffered rows at shutdown: SessionNotFoundError")
    assert "'die/never'" in refusal
    with ShardedMomentService.recover(wal_dir) as recovered:
        assert [recovered.row_count(key) for key in KEYS] == [3] * 4
