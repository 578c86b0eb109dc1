#!/usr/bin/env python
"""Benchmark the Monte-Carlo engines: per-die loop vs vectorized batch.

Generates the paper's op-amp and flash-ADC sample banks, plus the
folded-cascode OTA's default 2000-die bank, through both ``simulate_batch``
engines (schematic and post-layout stages of the same dies), verifies the
vectorized metrics agree with the scalar reference to tight relative
error, and writes the timing summary to ``BENCH_mc.json`` at the
repository root so regressions are visible in review diffs.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/bench_mc.py [--opamp-samples 5000]
        [--adc-samples 1000] [--ota-samples 2000] [--repeats 3]
        [--out BENCH_mc.json]

Times are best-of-``--repeats`` wall clock; the headline ``loop_s`` /
``batched_s`` / ``speedup`` fields refer to the 5000-sample op-amp bank
(the paper's Sec. 5.1 workload), with per-circuit breakdowns alongside.

``BENCH_mc.json`` is an append-only trajectory (see
:mod:`repro.bench.trajectory`): every run adds a timestamped entry to the
``history`` array instead of overwriting the previous numbers, so the
performance trend across commits stays visible.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import numpy as np

from repro.bench import append_entry
from repro.circuits.adc import FlashADC
from repro.circuits.opamp import TwoStageOpAmp
from repro.circuits.ota import FoldedCascodeOTA


def best_of(fn, repeats: int) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def max_rel_diff(batched: np.ndarray, loop: np.ndarray) -> float:
    """Worst relative disagreement across every die and metric."""
    scale = np.maximum(np.abs(loop), 1e-300)
    return float(np.max(np.abs(batched - loop) / scale))


def bench_process_circuit(sim_cls, n_samples: int, seed: int, repeats: int) -> dict:
    """Both engines on one process-sample circuit (op-amp, OTA)."""
    early = sim_cls.schematic()
    late = sim_cls.post_layout()
    rng = np.random.default_rng(seed)
    samples = early.process_model().sample(early.devices, n_samples, rng)

    def run(engine):
        return np.vstack(
            [
                early.simulate_batch(samples, engine=engine),
                late.simulate_batch(samples, engine=engine),
            ]
        )

    loop_s, loop_bank = best_of(lambda: run("loop"), max(1, repeats - 1))
    batched_s, batched_bank = best_of(lambda: run("vectorized"), repeats)
    return {
        "n_samples": n_samples,
        "loop_s": round(loop_s, 6),
        "batched_s": round(batched_s, 6),
        "speedup": round(loop_s / batched_s, 2),
        "max_rel_metric_diff": max_rel_diff(batched_bank, loop_bank),
    }


def bench_adc(n_samples: int, seed: int, repeats: int) -> dict:
    early = FlashADC.schematic()
    late = FlashADC.post_layout()
    die_seeds = np.arange(n_samples, dtype=np.int64) + np.int64(seed) * 1_000_003

    def run(engine):
        return np.vstack(
            [
                early.simulate_batch(die_seeds, engine=engine),
                late.simulate_batch(die_seeds, engine=engine),
            ]
        )

    loop_s, loop_bank = best_of(lambda: run("loop"), max(1, repeats - 1))
    batched_s, batched_bank = best_of(lambda: run("vectorized"), repeats)
    return {
        "n_samples": n_samples,
        "loop_s": round(loop_s, 6),
        "batched_s": round(batched_s, 6),
        "speedup": round(loop_s / batched_s, 2),
        "max_rel_metric_diff": max_rel_diff(batched_bank, loop_bank),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--opamp-samples", type=int, default=5000)
    parser.add_argument("--adc-samples", type=int, default=1000)
    parser.add_argument("--ota-samples", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_mc.json",
    )
    args = parser.parse_args()

    opamp = bench_process_circuit(
        TwoStageOpAmp, args.opamp_samples, args.seed, args.repeats
    )
    adc = bench_adc(args.adc_samples, args.seed, args.repeats)
    ota = bench_process_circuit(
        FoldedCascodeOTA, args.ota_samples, args.seed, args.repeats
    )

    worst = max(section["max_rel_metric_diff"] for section in (opamp, adc, ota))
    if worst > 1e-10:
        raise SystemExit(
            f"engines diverge (max rel metric diff = {worst:g}) -- refusing to report"
        )

    append_entry(
        args.out,
        "mc",
        config={
            "opamp_samples": args.opamp_samples,
            "adc_samples": args.adc_samples,
            "ota_samples": args.ota_samples,
            "repeats": args.repeats,
            "seed": args.seed,
        },
        results={
            "loop_s": opamp["loop_s"],
            "batched_s": opamp["batched_s"],
            "speedup": opamp["speedup"],
            "max_rel_metric_diff": opamp["max_rel_metric_diff"],
            "opamp": opamp,
            "adc": adc,
            "ota": ota,
        },
    )
    for name, section in (("opamp", opamp), ("adc", adc), ("ota", ota)):
        print(
            f"{name}: loop {section['loop_s']:.3f} s | batched "
            f"{section['batched_s']:.3f} s | speedup {section['speedup']}x | "
            f"max rel metric diff {section['max_rel_metric_diff']:.2e}"
        )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
