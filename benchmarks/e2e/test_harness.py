"""Self-tests of the end-to-end benchmark harness, on smoke-sized inputs.

Run from the repository root with ``python -m pytest benchmarks/e2e/test_harness.py``.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from e2e_speed import KERNEL_REF_S, SpeedProbe  # noqa: E402
from e2e_trace import ENTRY_POINTS, MOVES, EntryPoint, Patcher, Recorder  # noqa: E402

_spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E = [m["name"] for m in DECLARED["end_to_end"]]
LAYERS = [m["name"] for m in DECLARED["per_layer"]]


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 10.0])
    rec = Recorder(clock=lambda: next(ticks))
    outer = rec.enter("outer")
    inner = rec.enter("inner")
    rec.exit(inner)
    second = rec.enter("second")
    rec.exit(second, {"rows": 3.0})
    rec.exit(outer)
    assert (rec.stats["outer"].incl_s, rec.stats["outer"].self_s) == (10.0, 7.0)
    assert (rec.stats["inner"].self_s, rec.stats["second"].self_s) == (2.0, 1.0)
    assert rec.root_s == 10.0
    assert rec.nested_s[("outer", "inner")] == 2.0
    assert rec.counter("rows", "second") == 3.0
    by_name = {name: (span_id, parent) for span_id, name, _, _, parent, _ in rec.spans}
    assert by_name["inner"][1] == by_name["outer"][0]
    assert by_name["outer"][1] is None


@pytest.fixture
def fake_library(monkeypatch):
    lib = types.ModuleType("e2e_fake_lib")
    user = types.ModuleType("e2e_fake_user")

    def work(x):
        return x + 1

    class Thing:
        def method(self):
            return "method"

        @classmethod
        def build(cls):
            return cls

        @staticmethod
        def helper():
            return "helper"

    class Base:
        def run(self):
            return "run"

    class Child(Base):
        pass

    lib.work, lib.Thing, lib.Base, lib.Child = work, Thing, Base, Child
    user.work = work  # ``from e2e_fake_lib import work``
    monkeypatch.setitem(sys.modules, lib.__name__, lib)
    monkeypatch.setitem(sys.modules, user.__name__, user)
    return lib, user


def test_wraps_name_bound_functions_classmethods_staticmethods(fake_library):
    lib, user = fake_library
    before = {name: lib.Thing.__dict__[name] for name in ("method", "build", "helper")}
    entries = [
        EntryPoint("function", "e2e_fake_lib:work"),
        EntryPoint("method", "e2e_fake_lib:Thing.method"),
        EntryPoint("classmethod", "e2e_fake_lib:Thing.build"),
        EntryPoint("staticmethod", "e2e_fake_lib:Thing.helper"),
        EntryPoint("inherited", "e2e_fake_lib:Child.run"),
    ]
    rec = Recorder()
    rec.active = True
    with Patcher(rec, entries) as patcher:
        assert user.work(1) == 2
        assert lib.Thing().method() == "method"
        assert lib.Thing.build() is lib.Thing
        assert lib.Thing.helper() == "helper"
        assert lib.Child().run() == "run"
        assert isinstance(lib.Thing.__dict__["build"], classmethod)
        assert isinstance(lib.Thing.__dict__["helper"], staticmethod)
    assert patcher.missing == []
    assert {name: agg.calls for name, agg in rec.stats.items()} == {
        "function": 1,
        "method": 1,
        "classmethod": 1,
        "staticmethod": 1,
        "inherited": 1,
    }
    assert user.work is lib.work and lib.work.__name__ == "work"
    assert not hasattr(lib.work, "__wrapped__")
    assert {name: lib.Thing.__dict__[name] for name in before} == before
    assert "run" not in lib.Child.__dict__


def test_real_entry_points_resolve_and_are_restored():
    import e2e_workloads  # noqa: F401  (imports every layer the entry points name)

    import repro.scenarios.compiler as compiler
    import repro.serving
    import repro.serving.protocol as protocol
    from repro.serving.scoring import BatchScorer

    handle, generate = protocol.handle_request, compiler.generate_dataset
    score = BatchScorer.__dict__["score"]
    with Patcher(Recorder(), ENTRY_POINTS) as patcher:
        assert protocol.handle_request is not handle
        assert repro.serving.handle_request is not handle
        assert compiler.generate_dataset is not generate
        assert BatchScorer.__dict__["score"] is not score
    assert patcher.missing == []
    assert protocol.handle_request is handle
    assert repro.serving.handle_request is handle
    assert compiler.generate_dataset is generate
    assert BatchScorer.__dict__["score"] is score


def test_missing_entry_point_is_listed_not_raised():
    entries = [
        EntryPoint("a", "repro.serving.protocol:no_such_function"),
        EntryPoint("b", "repro.no_such_module:anything"),
        EntryPoint("c", "repro.serving.router:ShardedMomentService.no_such_method"),
    ]
    with Patcher(Recorder(), entries) as patcher:
        pass
    assert patcher.missing == [entry.target for entry in entries]


def test_speed_probe_clock_runs_at_the_reference_speed_without_its_ticks():
    assert SpeedProbe.WINDOW == 7
    probe = SpeedProbe()
    probe._recent.extend([KERNEL_REF_S] * 7)
    probe._state = (0.0, 10.0, 1.0)
    assert probe._at(12.0) == 2.0
    probe._advance(12.0, 4 * KERNEL_REF_S, 12.5)  # one slow tick: the median holds
    assert probe._at(12.25) == 2.0  # read while the tick ran: the clock stands still
    assert probe._at(13.5) == 3.0
    for start in (13.5, 14.5, 15.5):  # slow ticks become the window's majority
        probe._advance(start, 4 * KERNEL_REF_S, start + 0.5)
    assert probe._at(16.0) == 4.0
    assert probe._at(18.0) == 4.5  # the core now runs 4x slower than the reference
    assert probe.paused_s == 2.0
    assert probe.run_factor() == 0.25


def test_speed_probe_ticks_while_entered_and_restores_the_signal():
    handler = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        first = probe.clock()
        end = time.perf_counter() + 0.4
        readings = []
        while time.perf_counter() < end:
            readings.append(probe.clock())
    assert len(probe.samples) >= 4 and probe.paused_s > 0
    assert readings == sorted(readings) and readings[0] >= first
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_request_lines_depend_only_on_the_seed(tmp_path):
    from e2e_workloads import ServeIngest, ServeQuery

    for cls in (ServeIngest, ServeQuery):
        first = cls(1, True, tmp_path).request_sha256()
        assert cls(1, True, tmp_path).request_sha256() == first
        assert cls(2, True, tmp_path).request_sha256() != first
        # another read cadence changes the reads, not the rows or the checked keys
        base, other = cls(1, True, tmp_path), cls(1, True, tmp_path, estimate_every=7)
        assert other.request_sha256() != first
        assert np.array_equal(other.blocks, base.blocks)
        assert other.check_keys == base.check_keys
    assert ServeIngest(1, True, tmp_path).at["estimate"] == []


@pytest.fixture(scope="module")
def smoke_records():
    saved = dict(os.environ)
    try:
        return {
            name: bench.run_workload(name, seed=3, seconds=0, trace=True, smoke=True)
            for name in bench.WORKLOAD_NAMES
        }
    finally:
        os.environ.clear()
        os.environ.update(saved)


def test_every_declared_metric_is_emitted_and_nothing_else(smoke_records):
    assert [w["name"] for w in DECLARED["workloads"]] == list(bench.WORKLOAD_NAMES)
    for name, record in smoke_records.items():
        assert record["correct"], (name, record["detail"]["failed_checks"])
        assert record["attempted"] >= 1 and record["failed"] == 0
        assert list(record["metrics"]) == E2E
        assert list(record["layers"]) == LAYERS
        assert all(math.isfinite(v) and v > 0 for v in record["metrics"].values()), name
        assert record["layers"]["trace.missing"] == 0


def test_declaration_is_well_formed():
    names = E2E + LAYERS
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert 1 <= len(E2E) <= 16 and 1 <= len(LAYERS) <= 128
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])


def test_each_layer_metric_names_what_it_should_move():
    workloads = {w["name"] for w in DECLARED["workloads"]}
    assert list(MOVES) == [name for name in LAYERS if not name.startswith("trace.")]
    for name, prediction in MOVES.items():
        moved, workload = prediction.split("@")
        assert moved in E2E and workload in workloads, name


def test_reference_gate_passes_lower_errors_and_fails_higher_ones():
    expected = {"mean_err": 0.5, "cov_err": 2.0}
    better = types.SimpleNamespace(mean_err=0.3, cov_err=2.0 * 1.005)
    worse = types.SimpleNamespace(mean_err=0.5 * 1.02, cov_err=1.0)
    assert all(bench._reference_checks(expected, better).values())
    assert bench._reference_checks(expected, worse) == {
        "reference.mean_err": False,
        "reference.cov_err": True,
    }


def _results(tmp_path, name, runs):
    path = tmp_path / name
    path.write_text(json.dumps({"runs": runs}))
    return path


def test_compare_marks_within_bound_worse_and_unresolved(tmp_path, capsys):
    def run(throughput, p50):
        metrics = {m: 1.0 for m in E2E}
        metrics.update(throughput_per_s=throughput, latency_p50_ms=p50)
        return {"workload": "serve_query", "trace": 0, "metrics": metrics}

    a = _results(tmp_path, "a.json", [run(100.0, 1.0 + i / 100) for i in range(5)])
    b = _results(tmp_path, "b.json", [run(50.0, (1.0, 3.0)[i % 2]) for i in range(5)])
    assert bench.compare(a, b, DECLARED) == 1
    verdicts = {line.split()[1]: line.rsplit("  ", 1)[1] for line in capsys.readouterr().out.splitlines()[1:]}
    assert verdicts["throughput_per_s"] == "worse"
    assert verdicts["latency_p50_ms"] == "unresolved"
    assert verdicts["setup_s"] == "within bound"


def test_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = [sys.executable, *DECLARED["command"][1:], "--workload", "serve_ingest"]
    command += ["--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
