#!/usr/bin/env python
"""End-to-end benchmark: offline fusion and served traffic, timed layer by layer.

One workload per process, the form ``BENCHMARK.json`` declares::

    python3 benchmarks/e2e/run.py --workload offline_sweep --seed 0 --seconds 20 --trace 0

prints ``workload metric value unit`` lines and, last, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``).  Without ``--workload`` every workload runs in its own fresh
subprocess, ``--runs`` times each (seeds ``seed``, ``seed + 1``, ...), and
the runs are written to ``--out``; ``--trace 1`` adds one traced run per
workload.  ``--compare A.json B.json`` sets two such files side by side.
``--estimate-every N`` changes the read cadence of the serving workloads,
for sweeps outside the benchmark proper.

The process exits non-zero when a correctness check fails, and with code 2
(printing no result) when the ``repro`` sources are not next to it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

#: One client, no threads: the machine this was sized on has two cores.
#: Set before NumPy loads, since BLAS reads them once, at load time.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

from e2e_speed import SpeedProbe  # noqa: E402
from e2e_trace import ENTRY_POINTS, Patcher, Recorder, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
DECLARATION = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("offline_sweep", "offline_fleet", "serve_ingest", "serve_query")
SERVING = ("serve_ingest", "serve_query")

#: Timed trials per run at the least, however long ``--seconds`` is.
MIN_TRIALS = 3
#: Latency samples per run at the least, so p75 has ten beyond it
#: (serve_query answers ten estimates a trial).
MIN_LATENCY_SAMPLES = 40
#: Traced and untraced trials each, at the least, in a ``--trace 1`` run.
MIN_TRACED_TRIALS = 1
#: How much worse than reference.json the reference-trial errors may be.
REFERENCE_TOLERANCE = 0.01
#: Wall-clock cap on one workload subprocess.
RUN_TIMEOUT_S = 180


def _percentile_ms(latencies: List[float], q: float) -> float:
    ordered = sorted(latencies)
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return 1e3 * (ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def _reference_checks(expected: Dict[str, float], reference: Any) -> Dict[str, bool]:
    """One-sided: an error may fall below its reference value, never rise above it."""
    return {
        f"reference.{metric}": getattr(reference, metric) <= value * (1.0 + REFERENCE_TOLERANCE)
        for metric, value in expected.items()
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    smoke: bool = False,
    trace_out: Optional[Path] = None,
    options: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Run one workload in this process; returns the result record.

    The ``seconds`` time box starts here, so it holds the imports, the input
    generation and the reference trial too.  Every timing is read from the
    speed probe's clock, in reference seconds (see ``e2e_speed``).
    ``options`` go to the workload's constructor (``estimate_every`` for the
    serving workloads).
    """
    start = time.perf_counter()
    work_dir = HERE / ".work" / f"{name}-{os.getpid()}"
    os.environ["REPRO_DATASET_CACHE_DIR"] = str(work_dir / "dataset-cache")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        with SpeedProbe() as probe:
            begin = probe.clock()
            import e2e_workloads as wl

            import_s = probe.clock() - begin
            record = _measure(
                wl, probe, name, seed, start + seconds, trace, smoke, trace_out, import_s,
                work_dir, options or {},
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record["detail"]["wall_s"] = time.perf_counter() - start
    return record


def _measure(wl, probe, name, seed, deadline, trace, smoke, trace_out, import_s, work_dir, options):
    workload = wl.WORKLOADS[name](seed, smoke, work_dir / "run", **options)
    reference_run = wl.WORKLOADS[name](wl.REFERENCE_SEED, smoke, work_dir / "reference", **options)
    setups: List[float] = []

    def setup(target: Any) -> None:
        begin = probe.clock()
        target.setup()
        setups.append(probe.clock() - begin)
        # Every trial starts from the same collector state; not timed.
        gc.collect()

    # The reference trial is also the warm-up: its timings are thrown away.
    setup(reference_run)
    reference = reference_run.trial(wl.Stopwatch(clock=probe.clock))
    del reference_run

    recorder = Recorder(clock=probe.clock) if trace else None
    plain: List[tuple] = []
    traced: List[tuple] = []
    missing: List[str] = []

    def enough() -> bool:
        if trace:  # per-layer metrics only: no latency percentiles
            return min(len(plain), len(traced)) >= MIN_TRACED_TRIALS
        samples = sum(len(r.latencies_s) for _, r in plain)
        return len(plain) >= MIN_TRIALS and samples >= MIN_LATENCY_SAMPLES

    while not enough() or time.perf_counter() < deadline:
        setup(workload)
        if trace and len(traced) < len(plain):
            watch = wl.Stopwatch(recorder, probe.clock)
            with Patcher(recorder, ENTRY_POINTS) as patcher:
                traced.append((watch, workload.trial(watch)))
            missing = patcher.missing
        else:
            watch = wl.Stopwatch(clock=probe.clock)
            plain.append((watch, workload.trial(watch)))

    trials = [result for _, result in plain + traced]
    checks: Dict[str, bool] = {}
    for index, result in enumerate([reference] + trials):
        for check, passed in result.checks.items():
            checks[f"trial{index}.{check}"] = passed
    if not smoke:
        expected = json.loads(REFERENCE.read_text(encoding="utf-8"))[name]
        checks.update(_reference_checks(expected, reference))
    failed_checks = sum(not passed for passed in checks.values())
    failed = sum(r.failed for r in [reference] + trials) + failed_checks
    attempted = sum(r.attempted for r in [reference] + trials) + len(checks)

    latencies = [lat for _, r in plain for lat in r.latencies_s]
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "throughput_per_s": statistics.median(r.items / w.sections["main"] for w, r in plain),
        "latency_p50_ms": _percentile_ms(latencies, 50.0),
        "latency_p75_ms": _percentile_ms(latencies, 75.0),
        "recover_s": statistics.median(
            w.sections["recover"] / r.recover_repeats for w, r in plain
        ),
        "mean_err": reference.mean_err,
        "cov_err": reference.cov_err,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "import_s": import_s,
            "setup_s": setups,
            "trials": len(plain),
            "latency_samples": len(latencies),
            "latency_p90_ms": _percentile_ms(latencies, 90.0),
            "latency_p99_ms": _percentile_ms(latencies, 99.0),
            "main_s": [w.sections["main"] for w, _ in plain],
            "recover_s": [w.sections["recover"] / r.recover_repeats for w, r in plain],
            # reference seconds per wall second, and the probe's own cost
            "run_factor": probe.run_factor(),
            "probe_ticks": len(probe.samples),
            "probe_s": probe.paused_s,
            "failed_checks": sorted(c for c, passed in checks.items() if not passed),
        },
    }
    if trace:
        wall = [sum(w.sections.values()) for w, _ in plain]
        traced_wall = [sum(w.sections.values()) for w, _ in traced]
        wal: Dict[str, float] = {}
        for _, result in traced:
            for key, value in result.wal.items():
                wal[key] = wal.get(key, 0.0) + value
        record["layers"] = layer_metrics(
            recorder,
            traced_wall_s=sum(traced_wall),
            overhead=statistics.median(traced_wall) / statistics.median(wall) - 1.0,
            missing=len(missing),
            n_trials=len(traced),
            wal=wal,
        )
        sections: Dict[str, Dict[str, Any]] = {}
        for watch, _ in traced:
            for section, wall_s in watch.sections.items():
                entry = sections.setdefault(section, {"wall_s": 0.0, "self_s": {}})
                entry["wall_s"] += wall_s
                for span, spent in watch.self_s.get(section, {}).items():
                    entry["self_s"][span] = entry["self_s"].get(span, 0.0) + spent
        record["detail"]["traced_sections"] = sections
        record["detail"]["trace_missing"] = missing
        if trace_out is not None:
            dump = recorder.dump()
            dump.update(workload=name, seed=seed, traced_trials=len(traced))
            trace_out.write_text(json.dumps(dump) + "\n", encoding="utf-8")
    return record


def _write_json(path: Path, payload: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def _emit(record: Dict[str, Any], declared: Dict[str, Any]) -> Dict[str, Any]:
    """Print one run's metric lines; return its result-line object."""
    group = "per_layer" if record["trace"] else "end_to_end"
    values = record["layers"] if record["trace"] else record["metrics"]
    units = {m["name"]: m["unit"] for m in declared[group]}
    for metric, value in values.items():
        print(f"{record['workload']} {metric} {value:.6g} {units[metric]}")
    for check in record["detail"]["failed_checks"]:
        print(f"{record['workload']} FAILED {check}", file=sys.stderr)
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }


def run_all(args: argparse.Namespace, declared: Dict[str, Any]) -> int:
    """Each workload in its own subprocess; collect every run into ``--out``."""
    records = []
    record_path = HERE / ".work" / f"record-{os.getpid()}.json"
    names = SERVING if args.estimate_every else WORKLOAD_NAMES
    plan = [(w, args.seed + r, 0) for w in names for r in range(args.runs)]
    if args.trace:
        plan += [(w, args.seed, 1) for w in names]
    for workload, seed, trace in plan:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace),
            "--out", str(record_path),
        ]
        if args.smoke:
            command.append("--smoke")
        if args.estimate_every:
            command += ["--estimate-every", str(args.estimate_every)]
        if trace and args.trace_out is not None:
            command += ["--trace-out", str(args.trace_out.with_suffix(f".{workload}.json"))]
        proc = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if not record_path.exists():
            print(f"{workload}: run failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        record = json.loads(record_path.read_text(encoding="utf-8"))
        record_path.unlink()
        records.append(record)
        _emit(record, declared)
    out = args.out or HERE / "out" / "results.json"
    _write_json(out, {"seconds": args.seconds, "runs": records})
    print(f"wrote {out}")
    return 0 if all(r["correct"] for r in records) else 1


def _quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(path_a: Path, path_b: Path, declared: Dict[str, Any]) -> int:
    """Median and quartiles per side for every (workload, end-to-end metric)."""
    sides = []
    for path in (path_a, path_b):
        runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
        sides.append([r for r in runs if not r["trace"]])
    worse = 0
    print(f"{'workload':<14} {'metric':<17} {'A median [q1, q3]':>31} {'B median [q1, q3]':>31} {'worse by':>8}  verdict")
    for workload in WORKLOAD_NAMES:
        for spec in declared["end_to_end"]:
            metric, bound = spec["name"], spec["bound"]
            a = [r["metrics"][metric] for r in sides[0] if r["workload"] == workload]
            b = [r["metrics"][metric] for r in sides[1] if r["workload"] == workload]
            if not a or not b:
                continue
            qa, qb = _quartiles(a), _quartiles(b)
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worse_by = sign * (qb[1] - qa[1]) / qa[1]
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            b_always_better = all(sign * (y - x) < 0 for x in a for y in b)
            if spread > bound and not b_always_better:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
                worse += 1
            else:
                verdict = "within bound"
            cells = [f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]" for q in (qa, qb)]
            print(
                f"{workload:<14} {metric:<17} {cells[0]:>31} {cells[1]:>31} "
                f"{100 * worse_by:+7.2f}%  {verdict}"
            )
    return 1 if worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    declared = json.loads(DECLARATION.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path, help="write the traced spans here")
    parser.add_argument("--runs", type=int, default=1, help="runs per workload (all-workload mode)")
    parser.add_argument(
        "--out", type=Path, help="results JSON (default with no --workload: out/results.json)"
    )
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    parser.add_argument(
        "--estimate-every",
        type=int,
        metavar="N",
        help="serving workloads only: an estimate after every N ingests instead of the "
        "workload's own mix (for cadence sweeps; not a benchmark workload)",
    )
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare, declared)
    if args.estimate_every is not None and (
        args.estimate_every < 1 or args.workload not in (None, *SERVING)
    ):
        parser.error("--estimate-every takes N >= 1 and only the serving workloads")
    if not (SRC / "repro").is_dir():
        print(f"no repro sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args, declared)

    options = {"estimate_every": args.estimate_every} if args.estimate_every else {}
    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, args.trace_out,
        options,
    )
    if args.out is not None:
        _write_json(args.out, record)
    print(json.dumps(_emit(record, declared)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
