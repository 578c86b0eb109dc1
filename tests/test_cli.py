"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.io import load_dataset, load_result


@pytest.fixture(scope="module")
def bank_path(tmp_path_factory):
    """A tiny ADC bank generated once through the CLI itself."""
    path = tmp_path_factory.mktemp("cli") / "bank.npz"
    code = main(["generate", "adc", str(path), "--samples", "60", "--seed", "3"])
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(["generate", "opamp", "out.npz"])
        assert args.circuit == "opamp"
        assert args.seed == 2015

    def test_rejects_unknown_circuit(self):
        from repro.exceptions import ConfigError

        with pytest.raises(ConfigError, match="unknown circuit"):
            main(["generate", "dac", "out.npz"])


class TestGenerate:
    def test_bank_contents(self, bank_path):
        dataset = load_dataset(bank_path)
        assert dataset.n_samples == 60
        assert dataset.metric_names == ("snr", "sinad", "sfdr", "thd", "power")

    def test_seed_reproducibility(self, tmp_path):
        a_path = tmp_path / "a.npz"
        b_path = tmp_path / "b.npz"
        main(["generate", "adc", str(a_path), "--samples", "10", "--seed", "5"])
        main(["generate", "adc", str(b_path), "--samples", "10", "--seed", "5"])
        assert np.array_equal(load_dataset(a_path).late, load_dataset(b_path).late)


class TestFuse:
    def test_fuse_prints_and_saves(self, bank_path, tmp_path, capsys):
        est_path = tmp_path / "est.json"
        code = main(
            [
                "fuse",
                str(bank_path),
                "--late-samples",
                "10",
                "--save",
                str(est_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "kappa0=" in out and "v0=" in out
        assert "snr" in out
        # --save persists the physical-space result and says so.
        assert "physical-space" in out
        result = load_result(est_path)
        assert result.isotropic.method == "bmf"
        assert result.isotropic.n_samples == 10
        assert result.provenance.estimator == "bmf"
        assert result.provenance.kappa0 is not None
        assert result.transform is not None
        # The persisted moments are in physical units: the transform maps
        # the stored isotropic estimate onto them exactly.
        mean_phys, cov_phys = result.transform.inverse_transform_moments(
            result.isotropic.mean, result.isotropic.covariance, stage="late"
        )
        np.testing.assert_allclose(result.mean, mean_phys)
        np.testing.assert_allclose(result.covariance, cov_phys)

    def test_fuse_pinned_hyperparams(self, bank_path, capsys):
        code = main(
            [
                "fuse",
                str(bank_path),
                "--late-samples",
                "8",
                "--kappa0",
                "2.5",
                "--v0",
                "30",
            ]
        )
        assert code == 0
        assert "kappa0=2.5" in capsys.readouterr().out

    def test_fuse_estimator_flag(self, bank_path, capsys):
        code = main(
            ["fuse", str(bank_path), "--late-samples", "10", "--estimator", "mle"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "estimator=mle" in out
        # MLE takes no hyper-parameters, so none are reported.
        assert "kappa0=" not in out

    def test_fuse_unknown_estimator_lists_available(self, bank_path, capsys):
        from repro.exceptions import UnknownEstimatorError

        with pytest.raises(UnknownEstimatorError, match="available"):
            main(["fuse", str(bank_path), "--estimator", "nope"])

    def test_fuse_config_file(self, bank_path, tmp_path, capsys):
        from repro.core.registry import EstimatorSpec, FusionConfig
        from repro.io import save_config

        cfg_path = tmp_path / "cfg.json"
        save_config(
            FusionConfig(
                estimator=EstimatorSpec("bmf"),
                selector="fixed",
                kappa0=4.0,
                v0=25.0,
            ),
            cfg_path,
        )
        code = main(
            ["fuse", str(bank_path), "--late-samples", "8", "--config", str(cfg_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "kappa0=4" in out and "v0=25" in out


class TestListEstimators:
    def test_lists_registered_names(self, capsys):
        code = main(["list-estimators"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("mle", "bmf", "robust-bmf", "ledoit-wolf", "oas"):
            assert name in out
        assert "selectors:" in out and "cv" in out


class TestGof:
    def test_gof_output(self, bank_path, capsys):
        code = main(["gof", str(bank_path), "--stage", "late"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mardia_skewness" in out
        assert "henze_zirkler" in out


class TestFigureCommands:
    def test_figure5_small(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code = main(
            ["figure5", "--bank", "120", "--repeats", "2", "--csv", str(csv_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean error" in out
        assert "covariance error" in out
        assert csv_path.exists()

    def test_cost_small(self, capsys):
        code = main(["cost", "adc", "--bank", "120", "--repeats", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cost reduction" in out


class TestServingVerbs:
    @pytest.fixture
    def checkpoint(self, bank_path, tmp_path):
        path = tmp_path / "svc.ckpt"
        code = main(
            [
                "ingest",
                str(path),
                "--session",
                "adc/tt",
                "--dataset",
                str(bank_path),
                "--samples",
                "12",
                "--create",
                "--kappa0",
                "2.0",
                "--v0",
                "9.0",
            ]
        )
        assert code == 0
        return path

    def test_ingest_creates_and_accumulates(self, checkpoint, bank_path, capsys):
        code = main(
            [
                "ingest",
                str(checkpoint),
                "--session",
                "adc/tt",
                "--dataset",
                str(bank_path),
                "--samples",
                "5",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        assert "session n=17" in capsys.readouterr().out

    def test_ingest_without_create_requires_checkpoint(self, bank_path, tmp_path):
        code = main(
            [
                "ingest",
                str(tmp_path / "missing.ckpt"),
                "--session",
                "x",
                "--dataset",
                str(bank_path),
            ]
        )
        assert code == 2

    def test_query_estimate(self, checkpoint, capsys):
        code = main(["query", str(checkpoint), "estimate", "--session", "adc/tt"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MAP estimate from 12 ingested samples" in out

    def test_query_estimate_json(self, checkpoint, capsys):
        import json

        code = main(
            ["query", str(checkpoint), "estimate", "--session", "adc/tt", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 12
        assert len(payload["mean"]) == len(payload["covariance"])

    def test_query_loglik_and_sessions_and_stats(
        self, checkpoint, bank_path, capsys
    ):
        import json

        assert (
            main(
                [
                    "query",
                    str(checkpoint),
                    "loglik",
                    "--session",
                    "adc/tt",
                    "--dataset",
                    str(bank_path),
                    "--rows",
                    "6",
                ]
            )
            == 0
        )
        assert "log-likelihood" in capsys.readouterr().out
        assert main(["query", str(checkpoint), "sessions"]) == 0
        assert capsys.readouterr().out.strip() == "adc/tt"
        assert main(["query", str(checkpoint), "stats"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["ingested_samples"] == 12

    def test_query_requires_session(self, checkpoint, capsys):
        assert main(["query", str(checkpoint), "estimate"]) == 2

    def test_serve_loop_round_trip(self, checkpoint, capsys, monkeypatch):
        import io as io_module
        import json

        requests = [
            {"op": "ping"},
            {"op": "sessions"},
            {"op": "estimate", "key": "adc/tt"},
            {"op": "shutdown"},
        ]
        monkeypatch.setattr(
            "sys.stdin",
            io_module.StringIO("\n".join(json.dumps(r) for r in requests) + "\n"),
        )
        code = main(["serve", "--checkpoint", str(checkpoint)])
        assert code == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert [r["ok"] for r in lines] == [True] * 4
        assert lines[1]["sessions"] == ["adc/tt"]
        assert lines[2]["n"] == 12

    def test_serve_save_on_exit(self, bank_path, tmp_path, capsys, monkeypatch):
        import io as io_module
        import json

        path = tmp_path / "fresh.ckpt"
        monkeypatch.setattr(
            "sys.stdin", io_module.StringIO('{"op": "ping"}\n')
        )
        code = main(["serve", "--checkpoint", str(path), "--save-on-exit"])
        assert code == 0
        assert path.exists()
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.serving-checkpoint.v1"


class TestShardedServingVerbs:
    def _requests(self):
        import json

        rng = np.random.default_rng(3)
        cov = np.eye(3).tolist()
        reqs = [
            {
                "op": "create",
                "key": "lna/tt",
                "prior_mean": [0.0, 0.0, 0.0],
                "prior_covariance": cov,
                "prior_n_samples": 8,
            }
        ]
        for _ in range(6):
            reqs.append(
                {
                    "op": "ingest",
                    "key": "lna/tt",
                    "samples": rng.standard_normal((4, 3)).tolist(),
                }
            )
        reqs.append({"op": "estimate", "key": "lna/tt"})
        return reqs

    def _run_serve(self, monkeypatch, capsys, args, reqs):
        import io as io_module
        import json

        stream = "\n".join(json.dumps(r) for r in reqs) + "\n"
        monkeypatch.setattr("sys.stdin", io_module.StringIO(stream))
        code = main(["serve"] + args)
        out = capsys.readouterr().out
        responses = [
            json.loads(line)
            for line in out.strip().splitlines()
            if line.startswith("{")
        ]
        return code, responses

    def test_serve_sharded_with_wal(self, tmp_path, capsys, monkeypatch):
        wal_dir = tmp_path / "wal"
        reqs = self._requests() + [
            {"op": "checkpoint", "path": str(tmp_path / "ckpt")},
            {"op": "shutdown"},
        ]
        code, responses = self._run_serve(
            monkeypatch, capsys, ["--shards", "2", "--wal-dir", str(wal_dir)], reqs
        )
        assert code == 0
        assert all(r["ok"] for r in responses)
        assert sorted(p.name for p in wal_dir.glob("*.wal")) == [
            "shard-000.wal",
            "shard-001.wal",
        ]
        assert (tmp_path / "ckpt" / "manifest.json").exists()

    def test_serve_restores_from_manifest(self, tmp_path, capsys, monkeypatch):
        wal_dir = tmp_path / "wal"
        reqs = self._requests() + [
            {"op": "checkpoint", "path": str(tmp_path / "ckpt")},
            {"op": "shutdown"},
        ]
        code, first = self._run_serve(
            monkeypatch, capsys, ["--shards", "2", "--wal-dir", str(wal_dir)], reqs
        )
        assert code == 0
        code, second = self._run_serve(
            monkeypatch,
            capsys,
            ["--shards", "2", "--checkpoint", str(tmp_path / "ckpt")],
            [{"op": "estimate", "key": "lna/tt"}, {"op": "shutdown"}],
        )
        assert code == 0
        assert second[0]["ok"]
        # the restored estimate equals the pre-restart answer exactly
        # (responses: ..., estimate, checkpoint, shutdown)
        assert second[0]["mean"] == first[-3]["mean"]

    def test_serve_recovers_from_wal_dir(self, tmp_path, capsys, monkeypatch):
        wal_dir = tmp_path / "wal"
        code, first = self._run_serve(
            monkeypatch,
            capsys,
            ["--shards", "2", "--wal-dir", str(wal_dir)],
            self._requests() + [{"op": "shutdown"}],
        )
        assert code == 0
        code, second = self._run_serve(
            monkeypatch,
            capsys,
            ["--shards", "2", "--wal-dir", str(wal_dir)],
            [{"op": "estimate", "key": "lna/tt"}, {"op": "shutdown"}],
        )
        assert code == 0
        assert second[0]["mean"] == first[-2]["mean"]

    def test_serve_recover_warns_on_shard_count_mismatch(
        self, tmp_path, capsys, monkeypatch
    ):
        import io as io_module
        import json

        wal_dir = tmp_path / "wal"
        reqs = self._requests() + [{"op": "shutdown"}]
        stream = "\n".join(json.dumps(r) for r in reqs) + "\n"
        monkeypatch.setattr("sys.stdin", io_module.StringIO(stream))
        assert main(["serve", "--shards", "2", "--wal-dir", str(wal_dir)]) == 0
        capsys.readouterr()
        # recovery fixes the shard count from the WAL files; a different
        # --shards must be called out, not silently ignored
        monkeypatch.setattr("sys.stdin", io_module.StringIO('{"op": "shutdown"}\n'))
        assert main(["serve", "--shards", "4", "--wal-dir", str(wal_dir)]) == 0
        err = capsys.readouterr().err
        assert "--shards 4 ignored" in err
        assert "2 recovered WAL file(s)" in err

    def test_replay_verb(self, tmp_path, capsys, monkeypatch):
        wal_dir = tmp_path / "wal"
        code, _ = self._run_serve(
            monkeypatch,
            capsys,
            ["--shards", "1", "--wal-dir", str(wal_dir)],
            self._requests() + [{"op": "shutdown"}],
        )
        assert code == 0
        out_ckpt = tmp_path / "replayed.ckpt"
        code = main(
            ["replay", str(wal_dir / "shard-000.wal"), "--out", str(out_ckpt)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verified" in out and "recovered shard state" in out
        assert out_ckpt.exists()

    def test_compact_verb(self, tmp_path, capsys, monkeypatch):
        wal_dir = tmp_path / "wal"
        reqs = self._requests() + [
            {"op": "checkpoint", "path": str(tmp_path / "ckpt")},
            {"op": "shutdown"},
        ]
        code, _ = self._run_serve(
            monkeypatch, capsys, ["--shards", "2", "--wal-dir", str(wal_dir)], reqs
        )
        assert code == 0
        code = main(
            ["compact", str(tmp_path / "ckpt"), "--wal-dir", str(wal_dir)]
        )
        assert code == 0
        assert "compacted 2 shard(s)" in capsys.readouterr().out
        from repro.serving import WriteAheadLog

        for name in ("shard-000.wal", "shard-001.wal"):
            wal = WriteAheadLog.open(wal_dir / name)
            assert wal.verify() == 0
            wal.close()


class TestCheckpointLayout:
    """An existing checkpoint picks the entry point by its on-disk layout:
    a manifest directory restores the router, a single file the worker."""

    _run_serve = TestShardedServingVerbs._run_serve
    _requests = TestShardedServingVerbs._requests

    def _ingest_file(self, bank_path, path):
        args = ["ingest", str(path), "--session", "adc/tt", "--dataset"]
        args += [str(bank_path), "--samples", "12", "--create"]
        assert main(args) == 0

    def _manifest_dir(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "ckpt"
        reqs = self._requests() + [
            {"op": "checkpoint", "path": str(target)},
            {"op": "shutdown"},
        ]
        flags = ["--shards", "2", "--wal-dir", str(tmp_path / "wal")]
        code, responses = self._run_serve(monkeypatch, capsys, flags, reqs)
        assert code == 0 and (target / "manifest.json").exists()
        return target, responses

    def test_serve_restores_manifest_dir_without_shard_flags(
        self, tmp_path, capsys, monkeypatch
    ):
        target, first = self._manifest_dir(tmp_path, monkeypatch, capsys)
        code, second = self._run_serve(
            monkeypatch,
            capsys,
            ["--checkpoint", str(target)],
            [{"op": "estimate", "key": "lna/tt"}, {"op": "shutdown"}],
        )
        assert code == 0
        assert second[0]["mean"] == first[-3]["mean"]
        # a directory without a manifest is reported, not served empty
        (tmp_path / "empty").mkdir()
        assert main(["serve", "--checkpoint", str(tmp_path / "empty")]) == 2
        assert "no shard manifest" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--shards", "2"], "--shards 2"),
            (["--wal-dir", "WAL"], "--wal-dir"),
            (["--flush-rows", "4"], "--flush-rows"),
            (["--placement", "spread"], "--placement spread"),
        ],
        ids=["shards", "wal-dir", "flush-rows", "placement"],
    )
    def test_serve_file_checkpoint_conflicts_with_shard_flags(
        self, flags, named, bank_path, tmp_path, capsys, monkeypatch
    ):
        import io as io_module

        path = tmp_path / "state.ckpt"
        self._ingest_file(bank_path, path)
        before = path.read_bytes()
        flags = [str(tmp_path / "wal") if f == "WAL" else f for f in flags]
        monkeypatch.setattr("sys.stdin", io_module.StringIO('{"op": "ping"}\n'))
        capsys.readouterr()
        code = main(["serve", "--checkpoint", str(path), "--save-on-exit"] + flags)
        assert code == 2
        err = capsys.readouterr().err
        assert "single-file checkpoint" in err and named in err
        assert path.read_bytes() == before

    def test_ingest_rejects_checkpoint_dir(
        self, bank_path, tmp_path, capsys, monkeypatch
    ):
        target, _ = self._manifest_dir(tmp_path, monkeypatch, capsys)
        args = ["ingest", str(target), "--session", "lna/tt", "--dataset"]
        assert main(args + [str(bank_path), "--create"]) == 2
        assert "is a directory" in capsys.readouterr().err

    def test_query_rejects_checkpoint_dir(self, tmp_path, capsys, monkeypatch):
        target, _ = self._manifest_dir(tmp_path, monkeypatch, capsys)
        assert main(["query", str(target), "stats"]) == 2
        assert "is a directory" in capsys.readouterr().err

    def test_missing_path_follows_shard_flags(self, tmp_path, capsys, monkeypatch):
        file_path, dir_path = tmp_path / "fresh.ckpt", tmp_path / "fresh-dir"
        create = self._requests()[:1] + [{"op": "shutdown"}]
        save = ["--save-on-exit", "--checkpoint"]
        code, _ = self._run_serve(monkeypatch, capsys, save + [str(file_path)], create)
        assert code == 0 and file_path.is_file()
        code, _ = self._run_serve(
            monkeypatch, capsys, ["--shards", "2"] + save + [str(dir_path)], create
        )
        assert code == 0 and (dir_path / "manifest.json").exists()
        # each layout then restores through its own entry point, flags or not
        for path in (file_path, dir_path):
            code, responses = self._run_serve(
                monkeypatch,
                capsys,
                ["--checkpoint", str(path)],
                [{"op": "sessions"}, {"op": "shutdown"}],
            )
            assert code == 0 and responses[0]["sessions"] == ["lna/tt"]


class TestWireEmitAndWalFlags:
    def test_serve_parser_accepts_wal_knobs(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "serve",
                "--shards",
                "2",
                "--wal-dir",
                "/tmp/wal",
                "--wal-format",
                "v1",
                "--wal-flush-records",
                "8",
                "--wal-flush-bytes",
                "4096",
                "--wal-delta-rows",
                "16",
            ]
        )
        assert args.wal_format == "v1"
        assert args.wal_flush_records == 8
        assert args.wal_flush_bytes == 4096
        assert args.wal_delta_rows == 16

    def test_serve_wal_format_defaults_to_v2(self):
        args = build_parser().parse_args(["serve"])
        assert args.wal_format == "v2"
        assert args.wal_flush_records is None and args.wal_delta_rows is None

    def test_emit_wire_b64f64_lines_decode(self, bank_path, tmp_path, capsys):
        import json

        from repro.serving import decode_array

        out_path = tmp_path / "wire.jsonl"
        code = main(
            [
                "ingest",
                str(tmp_path / "unused.ckpt"),
                "--session",
                "adc/tt",
                "--dataset",
                str(bank_path),
                "--samples",
                "12",
                "--create",
                "--emit-wire",
                str(out_path),
            ]
        )
        assert code == 0
        assert not (tmp_path / "unused.ckpt").exists()  # emit mode touches no state
        lines = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert [r["op"] for r in lines] == ["create", "ingest"]
        assert lines[0]["exist_ok"] is True
        assert lines[1]["samples"]["encoding"] == "b64f64"
        samples = decode_array(lines[1]["samples"])
        assert samples.ndim == 2 and samples.shape[0] == 12
        mean = decode_array(lines[0]["prior_mean"])
        assert mean.shape == (samples.shape[1],) and np.all(np.isfinite(mean))

    def test_emit_wire_list_encoding(self, bank_path, tmp_path):
        import json

        out_path = tmp_path / "wire.jsonl"
        code = main(
            [
                "ingest",
                str(tmp_path / "unused.ckpt"),
                "--session",
                "adc/tt",
                "--dataset",
                str(bank_path),
                "--samples",
                "6",
                "--emit-wire",
                str(out_path),
                "--wire-encoding",
                "list",
            ]
        )
        assert code == 0
        (request,) = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert request["op"] == "ingest"
        assert isinstance(request["samples"], list)
        assert len(request["samples"]) == 6

    def test_emit_wire_feeds_serve(
        self, bank_path, tmp_path, capsys, monkeypatch
    ):
        import io as io_module
        import json

        wire_path = tmp_path / "wire.jsonl"
        code = main(
            [
                "ingest",
                str(tmp_path / "unused.ckpt"),
                "--session",
                "adc/tt",
                "--dataset",
                str(bank_path),
                "--samples",
                "10",
                "--create",
                "--emit-wire",
                str(wire_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        wal_dir = tmp_path / "wal"
        stream = wire_path.read_text() + json.dumps({"op": "shutdown"}) + "\n"
        monkeypatch.setattr("sys.stdin", io_module.StringIO(stream))
        code = main(
            [
                "serve",
                "--shards",
                "2",
                "--wal-dir",
                str(wal_dir),
                "--wal-delta-rows",
                "4",
            ]
        )
        assert code == 0
        responses = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
            if line.startswith("{")
        ]
        assert all(r["ok"] for r in responses)
        ingest_resp = [r for r in responses if r["op"] == "ingest"]
        assert ingest_resp and ingest_resp[0]["n"] == 10

    def test_serve_wal_format_v1_writes_v1_header(
        self, tmp_path, capsys, monkeypatch
    ):
        import io as io_module
        import json

        wal_dir = tmp_path / "wal"
        reqs = [
            {
                "op": "create",
                "key": "dut",
                "prior_mean": [0.0, 0.0],
                "prior_covariance": [[1.0, 0.0], [0.0, 1.0]],
            },
            {"op": "shutdown"},
        ]
        stream = "\n".join(json.dumps(r) for r in reqs) + "\n"
        monkeypatch.setattr("sys.stdin", io_module.StringIO(stream))
        code = main(
            ["serve", "--wal-dir", str(wal_dir), "--wal-format", "v1"]
        )
        assert code == 0
        raw = (wal_dir / "shard-000.wal").read_bytes()
        assert not raw.startswith(b"#repro.serving-wal.v2\n")
        header = json.loads(raw.splitlines()[0])
        assert header["header"]["schema"] == "repro.serving-wal.v1"

    def test_serve_default_wal_is_v2_binary(self, tmp_path, capsys, monkeypatch):
        import io as io_module
        import json

        wal_dir = tmp_path / "wal"
        stream = json.dumps({"op": "shutdown"}) + "\n"
        monkeypatch.setattr("sys.stdin", io_module.StringIO(stream))
        code = main(["serve", "--wal-dir", str(wal_dir)])
        assert code == 0
        raw = (wal_dir / "shard-000.wal").read_bytes()
        assert raw.startswith(b"#repro.serving-wal.v2\n")
