#!/usr/bin/env python
"""Benchmark the Monte-Carlo engines: per-die loop vs vectorized batch.

Generates the paper's op-amp and flash-ADC sample banks, plus the
folded-cascode OTA's default 2000-die bank, through both ``simulate_batch``
engines (schematic and post-layout stages of the same dies), verifies the
vectorized metrics agree with the scalar reference to tight relative
error, and writes the timing summary to ``BENCH_mc.json`` at the
repository root so regressions are visible in review diffs.

The ``r2r_dac`` and ``sar_adc`` sections time ``simulate_batch`` on
``--die-seed-dies``-die banks at 8, 10 and 12 bits (both stages) and
report each kernel's worst deviation from the brute-force oracles in
``tests/circuits/die_seed_oracles.py`` (the per-code ladder solve and the
bit-by-bit SAR search).

Usage (from the repository root)::

    PYTHONPATH=src python scripts/bench_mc.py [--opamp-samples 5000]
        [--adc-samples 1000] [--ota-samples 2000] [--die-seed-dies 128]
        [--repeats 3] [--baseline FILE] [--out BENCH_mc.json]

    # time another source tree's die-seed circuits (no oracle, no write)
    PYTHONPATH=/path/to/other/src python scripts/bench_mc.py --timings-only > FILE

``--baseline FILE`` stores such timings (e.g. of the parent commit) in
the entry as ``results["baseline"]``, next to this tree's.

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
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.bench import append_entry
from repro.circuits.adc import FlashADC
from repro.circuits.opamp import TwoStageOpAmp
from repro.circuits.ota import FoldedCascodeOTA
from repro.circuits.r2r_dac import R2RDACDesign, R2RLadderDAC
from repro.circuits.sar_adc import SarADC, SarADCDesign

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Resolutions of the die-seed sections.
DIE_SEED_BITS = (8, 10, 12)


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


def bench_die_seed(
    sim_cls, design_cls, n_dies: int, seed: int, repeats: int, oracle: bool = True
) -> dict:
    """``simulate_batch`` of both stages per resolution, vs the oracle.

    The first call fills the shared draw bank, so the timed calls measure
    the kernels, as the second stage of a paired dataset does.
    """
    die_seeds = np.arange(n_dies, dtype=np.int64) + np.int64(seed) * 1_000_003
    section = {"n_dies": n_dies}
    for n_bits in DIE_SEED_BITS:
        design = design_cls(n_bits=n_bits)
        stages = (sim_cls.schematic(design), sim_cls.post_layout(design))

        def run():
            return np.vstack([stage.simulate_batch(die_seeds) for stage in stages])

        run()
        row = {"batched_s": round(best_of(run, repeats)[0], 6)}
        if oracle:
            if str(REPO_ROOT) not in sys.path:
                sys.path.insert(0, str(REPO_ROOT))
            from tests.circuits.die_seed_oracles import oracle_deviation

            row["max_oracle_dev"] = max(
                oracle_deviation(stage, die_seeds) for stage in stages
            )
        section[f"{n_bits}bit"] = row
    return section


def die_seed_sections(args, oracle: bool = True) -> dict:
    return {
        "r2r_dac": bench_die_seed(
            R2RLadderDAC, R2RDACDesign, args.die_seed_dies, args.seed, args.repeats, oracle
        ),
        "sar_adc": bench_die_seed(
            SarADC, SarADCDesign, args.die_seed_dies, args.seed, args.repeats, oracle
        ),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--opamp-samples", type=int, default=5000)
    parser.add_argument("--adc-samples", type=int, default=1000)
    parser.add_argument("--ota-samples", type=int, default=2000)
    parser.add_argument("--die-seed-dies", type=int, default=128)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument(
        "--timings-only",
        action="store_true",
        help="print the r2r_dac/sar_adc timings as JSON; no oracle, no write",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        help="--timings-only output of another tree, stored as results['baseline']",
    )
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_mc.json")
    args = parser.parse_args()

    if args.timings_only:
        print(json.dumps(die_seed_sections(args, oracle=False)))
        return

    opamp = bench_process_circuit(
        TwoStageOpAmp, args.opamp_samples, args.seed, args.repeats
    )
    adc = bench_adc(args.adc_samples, args.seed, args.repeats)
    ota = bench_process_circuit(
        FoldedCascodeOTA, args.ota_samples, args.seed, args.repeats
    )

    die_seed = die_seed_sections(args)

    worst = max(
        [section["max_rel_metric_diff"] for section in (opamp, adc, ota)]
        + [
            row["max_oracle_dev"]
            for section in die_seed.values()
            for key, row in section.items()
            if key != "n_dies"
        ]
    )
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
            "die_seed_dies": args.die_seed_dies,
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
            **die_seed,
            **(
                {"baseline": json.loads(args.baseline.read_text())}
                if args.baseline
                else {}
            ),
        },
    )
    for name, section in (("opamp", opamp), ("adc", adc), ("ota", ota)):
        print(
            f"{name}: loop {section['loop_s']:.3f} s | batched "
            f"{section['batched_s']:.3f} s | speedup {section['speedup']}x | "
            f"max rel metric diff {section['max_rel_metric_diff']:.2e}"
        )
    for name, section in die_seed.items():
        for n_bits in DIE_SEED_BITS:
            row = section[f"{n_bits}bit"]
            print(
                f"{name} {n_bits}-bit ({section['n_dies']} dies, both stages): "
                f"{row['batched_s'] * 1e3:.1f} ms | "
                f"max oracle dev {row['max_oracle_dev']:.2e}"
            )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
