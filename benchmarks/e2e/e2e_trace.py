"""Span recording from outside the program: wrap public entry points, time them.

The benchmark must not change code under ``src/``, so tracing works by
patching: each entry point in :data:`ENTRY_POINTS` is replaced, for the
duration of a traced trial, by a wrapper that opens a span on a
:class:`Recorder`.  A method is wrapped by patching its class attribute
(classmethods and staticmethods keep their descriptor type); a function is
wrapped by replacing every module global bound to the original object, so
``from repro.io import load_dataset``-style bindings are caught too.
:class:`Patcher` restores everything on exit, and an entry point that does
not exist is listed in :attr:`Patcher.missing` instead of failing the run.

A span's *self time* is its duration minus the time its child spans cover.
The recorder aggregates calls, inclusive and self time per span name as
spans close, so memory stays bounded however long the trial; raw spans are
kept up to a cap for the ``--trace-out`` dump.  It records only while a
timed section has switched it on, so set-up and checks never show up.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "ENTRY_POINTS",
    "EntryPoint",
    "MOVES",
    "Patcher",
    "Recorder",
    "layer_metrics",
]

#: ``(args, kwargs, result) -> {counter: amount}`` for work counted at a span.
Counter = Callable[[tuple, dict, Any], Dict[str, float]]


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped entry point: ``target`` is ``module:Class.attr`` or ``module:function``."""

    span: str
    target: str
    counter: Optional[Counter] = None


class _Aggregate:
    __slots__ = ("calls", "incl_s", "self_s", "counters")

    def __init__(self) -> None:
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.counters: Dict[str, float] = {}


class Recorder:
    """Nested span recorder; spans are only recorded while :attr:`active`."""

    #: Raw spans kept for the dump; aggregates keep counting past the cap.
    KEEP_SPANS = 200_000

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.active = False
        #: Index of the request being served (set by the serving harness).
        self.request: Optional[int] = None
        self._stack: List[list] = []
        self.spans: List[Tuple[int, str, float, float, Optional[int], Optional[int]]] = []
        self.stats: Dict[str, _Aggregate] = {}
        self.nested_s: Dict[Tuple[str, str], float] = {}
        self.root_s = 0.0
        self.n_spans = 0

    def enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        frame = [name, self.clock(), 0.0, self.n_spans, parent]
        self.n_spans += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, counters: Optional[Dict[str, float]] = None) -> None:
        end = self.clock()
        self._stack.pop()
        name, start, child_s, span_id, parent = frame
        duration = end - start
        agg = self.stats.get(name)
        if agg is None:
            agg = self.stats[name] = _Aggregate()
        agg.calls += 1
        agg.incl_s += duration
        agg.self_s += duration - child_s
        if counters:
            for key, amount in counters.items():
                agg.counters[key] = agg.counters.get(key, 0.0) + amount
        if parent is None:
            self.root_s += duration
        else:
            parent[2] += duration
            pair = (parent[0], name)
            self.nested_s[pair] = self.nested_s.get(pair, 0.0) + duration
        if len(self.spans) < self.KEEP_SPANS:
            parent_id = None if parent is None else parent[3]
            self.spans.append((span_id, name, start, end, parent_id, self.request))

    # -- queries --------------------------------------------------------
    def self_s(self, *names: str) -> float:
        return sum(self.stats[n].self_s for n in names if n in self.stats)

    def incl_s(self, *names: str) -> float:
        return sum(self.stats[n].incl_s for n in names if n in self.stats)

    def calls(self, *names: str) -> int:
        return sum(self.stats[n].calls for n in names if n in self.stats)

    def counter(self, key: str, *names: str) -> float:
        return sum(self.stats[n].counters.get(key, 0.0) for n in names if n in self.stats)

    def dump(self) -> Dict[str, Any]:
        """JSON-safe spans plus per-name aggregates."""
        return {
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p, "request": r}
                for i, n, s, e, p, r in self.spans
            ],
            "spans_total": self.n_spans,
            "aggregates": {
                name: {
                    "calls": agg.calls,
                    "incl_s": agg.incl_s,
                    "self_s": agg.self_s,
                    "counters": dict(agg.counters),
                }
                for name, agg in sorted(self.stats.items())
            },
        }


def _wrap(recorder: Recorder, entry: EntryPoint, fn: Callable) -> Callable:
    name, counter = entry.span, entry.counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        frame = recorder.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.exit(frame)
            raise
        recorder.exit(frame, counter(args, kwargs, result) if counter else None)
        return result

    return wrapper


class Patcher:
    """Installs span wrappers for ``entry_points`` on enter; restores on exit."""

    def __init__(self, recorder: Recorder, entry_points: List[EntryPoint]) -> None:
        self.recorder = recorder
        self.entry_points = entry_points
        self.missing: List[str] = []
        self._undo: List[Callable[[], None]] = []

    def __enter__(self) -> "Patcher":
        self.missing = []
        functions: Dict[int, Tuple[Callable, Callable]] = {}
        for entry in self.entry_points:
            module_name, _, qualname = entry.target.partition(":")
            try:
                owner: Any = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(entry.target)
                continue
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                self.missing.append(entry.target)
                continue
            if inspect.isclass(owner):
                self._patch_method(owner, attr, entry)
                continue
            original = getattr(owner, attr)
            if not inspect.isfunction(original) or inspect.isgeneratorfunction(original):
                self.missing.append(entry.target)
                continue
            functions[id(original)] = (original, _wrap(self.recorder, entry, original))
        if functions:
            self._patch_globals(functions)
        return self

    def _patch_method(self, cls: type, attr: str, entry: EntryPoint) -> None:
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            patched: Any = type(raw)(_wrap(self.recorder, entry, raw.__func__))
        elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
            patched = _wrap(self.recorder, entry, raw)
        else:
            self.missing.append(entry.target)
            return
        own = attr in cls.__dict__
        setattr(cls, attr, patched)
        if own:
            self._undo.append(lambda: setattr(cls, attr, raw))
        else:
            self._undo.append(lambda: delattr(cls, attr))

    def _patch_globals(self, functions: Dict[int, Tuple[Callable, Callable]]) -> None:
        """Rebind every module global that holds one of the originals."""
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            hits = [
                (key, value)
                for key, value in namespace.items()
                if id(value) in functions and functions[id(value)][0] is value
            ]
            for key, value in hits:
                namespace[key] = functions[id(value)][1]
                self._undo.append(
                    functools.partial(namespace.__setitem__, key, value)
                )

    def __exit__(self, *exc_info: object) -> None:
        while self._undo:
            self._undo.pop()()


# ---------------------------------------------------------------------------
# what is wrapped
# ---------------------------------------------------------------------------
def _count_dies(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"dies": float(len(result))}


def _count_matrices(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    shape = getattr(args[0], "shape", ())
    return {"matrices": float(shape[0] if len(shape) == 3 else 1)}


def _count_cv(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    on_edge = result.kappa0 in (result.kappa0_values[0], result.kappa0_values[-1]) or (
        result.v0 in (result.v0_values[0], result.v0_values[-1])
    )
    return {"candidates": float(result.scores.size), "boundary": float(on_edge)}


def _count_rows(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    samples = args[2] if len(args) > 2 else kwargs["samples"]
    shape = getattr(samples, "shape", None)
    return {"rows": float(1 if shape is None or len(shape) == 1 else shape[0])}


_CIRCUITS = {
    "repro.circuits.opamp": "TwoStageOpAmp",
    "repro.circuits.adc": "FlashADC",
    "repro.circuits.ota": "FoldedCascodeOTA",
    "repro.circuits.r2r_dac": "R2RLadderDAC",
    "repro.circuits.sar_adc": "SarADC",
    "repro.circuits.svf": "GmCStateVariableFilter",
}

ENTRY_POINTS: List[EntryPoint] = [
    EntryPoint("circuits.generate", "repro.circuits.registry:generate_dataset"),
    *(
        EntryPoint("circuits.simulate", f"{module}:{cls}.simulate_batch", _count_dies)
        for module, cls in _CIRCUITS.items()
    ),
    EntryPoint("circuits.mna", "repro.circuits.mna:StampPlan.solve_batched"),
    EntryPoint("io.load_dataset", "repro.io:load_dataset"),
    EntryPoint("io.save_dataset", "repro.io:save_dataset"),
    EntryPoint("scenarios.compile", "repro.scenarios.compiler:compile_instance"),
    EntryPoint("schemas.canonical_json", "repro.schemas:canonical_json"),
    *(
        EntryPoint(f"core.preprocessing.{attr}", f"repro.core.preprocessing:ShiftScaleTransform.{attr}")
        for attr in ("fit", "transform", "inverse_transform", "transform_moments", "inverse_transform_moments")
    ),
    EntryPoint("core.prior", "repro.core.prior:PriorKnowledge.from_samples"),
    EntryPoint("core.crossval", "repro.core.crossval:TwoDimensionalCV.select", _count_cv),
    EntryPoint("core.bmf", "repro.core.bmf:BMFEstimator.estimate"),
    EntryPoint("core.bmf", "repro.core.bmf:BMFEstimator.estimate_from_stats"),
    EntryPoint("core.mle", "repro.core.mle:MLEstimator.estimate"),
    EntryPoint("core.errors", "repro.core.errors:mean_error"),
    EntryPoint("core.errors", "repro.core.errors:covariance_error"),
    EntryPoint("core.pipeline.fit", "repro.core.pipeline:FusionPipeline.fit"),
    EntryPoint("core.pipeline.estimate", "repro.core.pipeline:FusionPipeline.estimate"),
    EntryPoint("experiments.sweep", "repro.experiments.sweep:ErrorSweep.run"),
    EntryPoint("linalg.batched", "repro.linalg.batched:cholesky_batched_safe", _count_matrices),
    EntryPoint("linalg.batched", "repro.linalg.batched:solve_triangular_batched", _count_matrices),
    EntryPoint("stats.suffstats", "repro.stats.suffstats:SufficientStats.from_samples"),
    EntryPoint("stats.suffstats", "repro.stats.suffstats:SufficientStats.push"),
    EntryPoint("stats.suffstats", "repro.stats.suffstats:SufficientStats.merge"),
    EntryPoint("stats.suffstats", "repro.stats.suffstats:merge_all"),
    EntryPoint("serving.loop", "repro.serving.protocol:serve_loop"),
    EntryPoint("serving.protocol", "repro.serving.protocol:handle_request"),
    EntryPoint("serving.codec", "repro.serving.protocol:decode_array"),
    EntryPoint("serving.codec", "repro.serving.protocol:encode_array"),
    EntryPoint("serving.router.ingest", "repro.serving.router:ShardedMomentService.ingest"),
    EntryPoint("serving.router.flush", "repro.serving.router:ShardedMomentService.flush"),
    EntryPoint("serving.router.query_many", "repro.serving.router:ShardedMomentService.query_many"),
    EntryPoint("serving.router.recover", "repro.serving.router:ShardedMomentService.recover"),
    EntryPoint("serving.worker.ingest", "repro.serving.worker:ShardWorker.ingest", _count_rows),
    EntryPoint("serving.worker", "repro.serving.worker:ShardWorker.collect"),
    EntryPoint("serving.worker", "repro.serving.worker:ShardWorker.query_many"),
    EntryPoint("serving.worker.replay", "repro.serving.worker:ShardWorker.replay"),
    EntryPoint("serving.sessions", "repro.serving.sessions:SessionStore.create"),
    EntryPoint("serving.sessions", "repro.serving.sessions:SessionStore.ingest"),
    EntryPoint("serving.wal.append", "repro.serving.wal:WriteAheadLog.append"),
    EntryPoint("serving.wal.open", "repro.serving.wal:WriteAheadLog.open"),
    EntryPoint("serving.scoring", "repro.serving.scoring:BatchScorer.score"),
    EntryPoint("serving.scoring", "repro.serving.suffstats:map_moments_stack"),
]


def _names(prefix: str) -> List[str]:
    return sorted({e.span for e in ENTRY_POINTS if e.span == prefix or e.span.startswith(prefix + ".")})


#: The prediction for each per-layer metric: the ``end_to_end_metric@workload``
#: a change to that layer should show on.  The ``trace.*`` metrics describe
#: the tracing itself and move nothing.
MOVES: Dict[str, str] = {
    "circuits.share": "throughput_per_s@offline_fleet",
    "circuits.simulate.calls": "throughput_per_s@offline_fleet",
    "circuits.simulate.share": "throughput_per_s@offline_fleet",
    "circuits.mna.calls": "throughput_per_s@offline_fleet",
    "circuits.mna.share": "throughput_per_s@offline_fleet",
    "circuits.dies_per_s": "throughput_per_s@offline_fleet",
    "io.dataset_cache.read_share": "recover_s@offline_fleet",
    "io.dataset_cache.write_share": "throughput_per_s@offline_fleet",
    "io.dataset_cache.hit_ratio": "recover_s@offline_fleet",
    "scenarios.compile.calls": "recover_s@offline_fleet",
    "scenarios.compile.share": "recover_s@offline_fleet",
    "schemas.canonical_json.calls": "throughput_per_s@serve_ingest",
    "schemas.canonical_json.share": "throughput_per_s@serve_ingest",
    "core.share": "throughput_per_s@offline_sweep",
    "core.preprocessing.share": "recover_s@offline_sweep",
    "core.prior.share": "recover_s@offline_sweep",
    "core.crossval.calls": "throughput_per_s@offline_sweep",
    "core.crossval.share": "throughput_per_s@offline_sweep",
    "core.crossval.candidates_per_s": "throughput_per_s@offline_sweep",
    "core.crossval.boundary_ratio": "cov_err@offline_sweep",
    "core.bmf.share": "throughput_per_s@offline_sweep",
    "core.mle.share": "throughput_per_s@offline_sweep",
    "core.errors.share": "throughput_per_s@offline_sweep",
    "core.pipeline.share": "recover_s@offline_fleet",
    "experiments.sweep.share": "throughput_per_s@offline_sweep",
    "linalg.batched.calls": "throughput_per_s@offline_sweep",
    "linalg.batched.share": "throughput_per_s@offline_sweep",
    "linalg.batched.matrices_per_s": "throughput_per_s@offline_sweep",
    "stats.suffstats.calls": "throughput_per_s@serve_ingest",
    "stats.suffstats.share": "recover_s@serve_ingest",
    "serving.protocol.share": "throughput_per_s@serve_ingest",
    "serving.codec.share": "throughput_per_s@serve_ingest",
    "serving.router.share": "throughput_per_s@serve_query",
    "serving.router.flush_in_query_share": "latency_p50_ms@serve_query",
    "serving.router.rows_per_worker_ingest": "throughput_per_s@serve_query",
    "serving.worker.share": "throughput_per_s@serve_ingest",
    "serving.sessions.share": "throughput_per_s@serve_ingest",
    "serving.wal.append_calls": "throughput_per_s@serve_ingest",
    "serving.wal.append_share": "throughput_per_s@serve_ingest",
    "serving.wal.bytes_per_row": "throughput_per_s@serve_ingest",
    "serving.wal.records_per_flush": "throughput_per_s@serve_ingest",
    "serving.wal.replay_share": "recover_s@serve_ingest",
    "serving.scoring.share": "latency_p50_ms@serve_query",
}


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0.0 else 0.0


def layer_metrics(
    rec: Recorder,
    traced_wall_s: float,
    overhead: float,
    missing: int,
    n_trials: int,
    wal: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metric values from the aggregates of ``n_trials`` traced trials.

    ``*.share`` is self time as a percentage of the traced timed wall;
    ``*.calls`` and ``trace.spans`` are per trial.  ``serving.wal.replay_share``
    and ``serving.router.flush_in_query_share`` are inclusive shares (replay
    includes the store applies it drives).  ``wal`` carries the program's own
    WAL counters from ``ShardedMomentService.stats()``.
    """

    def share(*names: str) -> float:
        return 100.0 * _rate(rec.self_s(*names), traced_wall_s)

    def per_trial(count: float) -> float:
        return count / n_trials

    circuits = _names("circuits")
    core = _names("core") + _names("experiments")
    loads, saves = rec.calls("io.load_dataset"), rec.calls("io.save_dataset")
    cv_calls = rec.calls("core.crossval")
    return {
        "circuits.share": share(*circuits),
        "circuits.simulate.calls": per_trial(rec.calls("circuits.simulate")),
        "circuits.simulate.share": share("circuits.simulate"),
        "circuits.mna.calls": per_trial(rec.calls("circuits.mna")),
        "circuits.mna.share": share("circuits.mna"),
        "circuits.dies_per_s": _rate(
            rec.counter("dies", "circuits.simulate"), rec.incl_s("circuits.simulate")
        ),
        "io.dataset_cache.read_share": share("io.load_dataset"),
        "io.dataset_cache.write_share": share("io.save_dataset"),
        "io.dataset_cache.hit_ratio": _rate(loads, loads + saves),
        "scenarios.compile.calls": per_trial(rec.calls("scenarios.compile")),
        "scenarios.compile.share": share("scenarios.compile"),
        "schemas.canonical_json.calls": per_trial(rec.calls("schemas.canonical_json")),
        "schemas.canonical_json.share": share("schemas.canonical_json"),
        "core.share": share(*core),
        "core.preprocessing.share": share(*_names("core.preprocessing")),
        "core.prior.share": share("core.prior"),
        "core.crossval.calls": per_trial(cv_calls),
        "core.crossval.share": share("core.crossval"),
        "core.crossval.candidates_per_s": _rate(
            rec.counter("candidates", "core.crossval"), rec.incl_s("core.crossval")
        ),
        "core.crossval.boundary_ratio": _rate(rec.counter("boundary", "core.crossval"), cv_calls),
        "core.bmf.share": share("core.bmf"),
        "core.mle.share": share("core.mle"),
        "core.errors.share": share("core.errors"),
        "core.pipeline.share": share(*_names("core.pipeline")),
        "experiments.sweep.share": share("experiments.sweep"),
        "linalg.batched.calls": per_trial(rec.calls("linalg.batched")),
        "linalg.batched.share": share("linalg.batched"),
        "linalg.batched.matrices_per_s": _rate(
            rec.counter("matrices", "linalg.batched"), rec.incl_s("linalg.batched")
        ),
        "stats.suffstats.calls": per_trial(rec.calls("stats.suffstats")),
        "stats.suffstats.share": share("stats.suffstats"),
        "serving.protocol.share": share("serving.loop", "serving.protocol"),
        "serving.codec.share": share("serving.codec"),
        "serving.router.share": share(*_names("serving.router")),
        "serving.router.flush_in_query_share": 100.0
        * _rate(
            rec.nested_s.get(("serving.router.query_many", "serving.router.flush"), 0.0),
            traced_wall_s,
        ),
        "serving.router.rows_per_worker_ingest": _rate(
            rec.counter("rows", "serving.worker.ingest"), rec.calls("serving.worker.ingest")
        ),
        "serving.worker.share": share(*_names("serving.worker")),
        "serving.sessions.share": share("serving.sessions"),
        "serving.wal.append_calls": per_trial(rec.calls("serving.wal.append")),
        "serving.wal.append_share": share("serving.wal.append"),
        "serving.wal.bytes_per_row": _rate(wal.get("bytes", 0.0), wal.get("rows", 0.0)),
        "serving.wal.records_per_flush": _rate(wal.get("records", 0.0), wal.get("flushes", 0.0)),
        "serving.wal.replay_share": 100.0
        * _rate(rec.incl_s("serving.wal.open", "serving.worker.replay"), traced_wall_s),
        "serving.scoring.share": share("serving.scoring"),
        "trace.coverage": _rate(rec.root_s, traced_wall_s),
        "trace.overhead": overhead,
        "trace.spans": per_trial(rec.n_spans),
        "trace.missing": float(missing),
    }
