"""Append-only benchmark trajectory files: schema, refusal, atomicity."""

import json

import pytest

from repro.bench import (
    TRAJECTORY_SCHEMA,
    append_entry,
    environment_info,
    load_trajectory,
    utc_timestamp,
)
from repro.exceptions import ConfigError, SchemaVersionError


class TestLoad:
    def test_missing_file_is_empty_trajectory(self, tmp_path):
        doc = load_trajectory(tmp_path / "BENCH_x.json", "x")
        assert doc == {"schema": TRAJECTORY_SCHEMA, "benchmark": "x", "history": []}

    def test_schemaless_file_raises_config_error(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"config": {"n": 5}, "speedup": 12.5}))
        with pytest.raises(ConfigError, match="no schema"):
            load_trajectory(path, "x")

    def test_unknown_schema_raises_schema_version_error(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"schema": "repro-bench-trajectory/v99"}))
        with pytest.raises(SchemaVersionError):
            load_trajectory(path, "x")

    def test_corrupt_json_raises_config_error(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_trajectory(path, "x")

    def test_non_object_raises_config_error(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_trajectory(path, "x")


class TestAppend:
    def test_append_creates_then_grows(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        append_entry(path, "x", config={"n": 1}, results={"s": 0.5})
        doc = append_entry(path, "x", config={"n": 2}, results={"s": 0.4})
        assert len(doc["history"]) == 2
        assert doc["history"][0]["config"] == {"n": 1}
        assert doc["history"][-1]["results"] == {"s": 0.4}
        # what append returned is exactly what landed on disk
        assert json.loads(path.read_text()) == doc

    def test_append_refuses_schemaless_file(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        snapshot = json.dumps({"config": {}, "speedup": 3.0})
        path.write_text(snapshot)
        with pytest.raises(ConfigError):
            append_entry(path, "x", config={}, results={"speedup": 4.0})
        assert path.read_text() == snapshot

    def test_append_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        append_entry(path, "x", config={}, results={})
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_x.json"]

    def test_explicit_timestamp_and_environment_stored_verbatim(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        doc = append_entry(
            path,
            "x",
            config={},
            results={},
            environment={"python": "3.11"},
            timestamp="2026-01-01T00:00:00Z",
        )
        (entry,) = doc["history"]
        assert entry["timestamp"] == "2026-01-01T00:00:00Z"
        assert entry["environment"] == {"python": "3.11"}


class TestHelpers:
    def test_utc_timestamp_shape(self):
        stamp = utc_timestamp()
        assert len(stamp) == 20 and stamp.endswith("Z") and stamp[4] == "-"

    def test_environment_info_records_optional_deps(self):
        info = environment_info()
        assert "python" in info and "numpy" in info
        # key always present; value is a version string or None
        assert "scipy" in info and "numba" not in info
