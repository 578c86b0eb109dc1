#!/usr/bin/env python
"""Benchmark the Monte-Carlo banks: per-die loop vs ``simulate_batch``.

Generates the paper's op-amp and flash-ADC sample banks, plus the
folded-cascode OTA's default 2000-die bank, through ``simulate_batch``
and through the per-die reference (``loop_bank`` in
``tests/circuits/loop_oracle.py``: each circuit's per-die twin — a dense
AC solve with scalar metric math, or the flash ADC's scalar conversion —
die by die), schematic and post-layout stages of the same dies.  The batched
metrics must agree with the reference to ``RTOL`` before any time is
reported, and the timing summary is appended to ``BENCH_mc.json`` at the
repository root so regressions are visible in review diffs.

The ``r2r_dac`` and ``sar_adc`` sections time ``simulate_batch`` on
``--die-seed-dies``-die banks at 8, 10 and 12 bits (both stages) and
report each kernel's worst deviation from the brute-force oracles in
``tests/circuits/die_seed_oracles.py`` (the per-code ladder solve and the
bit-by-bit SAR search): R-2R within ``RTOL``, SAR codes bit-identical.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/bench_mc.py [--opamp-samples 5000]
        [--adc-samples 1000] [--ota-samples 2000] [--die-seed-dies 128]
        [--repeats 3] [--baseline FILE] [--out BENCH_mc.json]

    # time another checkout with its own script (no oracle, no write)
    cd /path/to/other && PYTHONPATH=src python scripts/bench_mc.py --timings-only > FILE

``--baseline FILE`` stores such timings (e.g. of the parent commit) in
the entry as ``results["baseline"]``, next to this tree's.

Times are best-of-``--repeats`` wall clock; the headline ``loop_s`` /
``batched_s`` / ``speedup`` fields refer to the 5000-sample op-amp bank
(the paper's Sec. 5.1 workload), with per-circuit breakdowns alongside.
The op-amp and OTA sections also record ``draw_s``, the time to draw
their :class:`~repro.circuits.process.ProcessBank` (``batched_s`` times
the simulation of an already-drawn bank).
``benchmarks/bench_mc.py`` runs the same functions under pytest.

``BENCH_mc.json`` is an append-only trajectory (see
:mod:`repro.bench.trajectory`): every run adds a timestamped entry to the
``history`` array instead of overwriting the previous numbers, so the
performance trend across commits stays visible.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.bench import append_entry, best_of
from repro.circuits.adc import FlashADC
from repro.circuits.batch import DieSeedSimulator
from repro.circuits.opamp import TwoStageOpAmp
from repro.circuits.ota import FoldedCascodeOTA
from repro.circuits.r2r_dac import R2RDACDesign, R2RLadderDAC
from repro.circuits.sar_adc import SarADC, SarADCDesign

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))  # the oracles live under tests/
from tests.circuits.die_seed_oracles import oracle_deviation  # noqa: E402
from tests.circuits.loop_oracle import loop_bank, max_rel_diff  # noqa: E402

#: Worst relative deviation of ``simulate_batch`` from the per-die loop.
RTOL = 1e-10

#: Worst deviation of each die-seed kernel from its oracle.  The SAR
#: staircase returns the bit-by-bit search's codes exactly.
ORACLE_TOL = {"r2r_dac": RTOL, "sar_adc": 0.0}

#: OTA bank speedup over the per-die loop.  ``benchmarks/bench_mc.py``
#: asserts it outside smoke scale (smoke runners are too noisy to gate a
#: ratio).
OTA_MIN_SPEEDUP = 10.0

#: Every gate and floor, as recorded in each entry's ``config``.
GATES = {
    "max_rel_metric_diff": RTOL,
    "max_oracle_dev": ORACLE_TOL,
    "ota_min_speedup": OTA_MIN_SPEEDUP,
}

#: The loop-vs-batch banks.
BANKS = {"opamp": TwoStageOpAmp, "adc": FlashADC, "ota": FoldedCascodeOTA}

#: The die-seed sections and their resolutions.
DIE_SEED_CIRCUITS = {
    "r2r_dac": (R2RLadderDAC, R2RDACDesign),
    "sar_adc": (SarADC, SarADCDesign),
}
DIE_SEED_BITS = (8, 10, 12)


def die_seeds(n_dies: int, seed: int) -> np.ndarray:
    return np.arange(n_dies, dtype=np.int64) + np.int64(seed) * 1_000_003


def bank_inputs(sim, n_samples: int, seed: int):
    """The dies of a bank: seeds for a die-seed circuit, else a process bank."""
    if isinstance(sim, DieSeedSimulator):
        return die_seeds(n_samples, seed)
    rng = np.random.default_rng(seed)
    return sim.process_model().sample_bank(sim.devices, n_samples, rng)


def bench_bank(sim_cls, n_samples: int, seed: int, repeats: int) -> dict:
    """Per-die loop vs ``simulate_batch`` on both stages of one bank."""
    stages = (sim_cls.schematic(), sim_cls.post_layout())
    draw_s, inputs = best_of(lambda: bank_inputs(stages[0], n_samples, seed), repeats)
    loop_s, loop = best_of(
        lambda: np.vstack([loop_bank(stage, inputs) for stage in stages]),
        repeats - 1,
    )
    batched_s, batched = best_of(
        lambda: np.vstack([stage.simulate_batch(inputs) for stage in stages]),
        repeats,
    )
    row = {
        "n_samples": n_samples,
        "loop_s": round(loop_s, 6),
        "batched_s": round(batched_s, 6),
        "speedup": round(loop_s / batched_s, 2),
        "max_rel_metric_diff": max_rel_diff(batched, loop),
    }
    if not isinstance(stages[0], DieSeedSimulator):
        row["draw_s"] = round(draw_s, 6)
    return row


def bench_die_seed(
    name: str, n_dies: int, seed: int, repeats: int, oracle: bool = True, bits=DIE_SEED_BITS
) -> dict:
    """``simulate_batch`` of both stages per resolution, vs the oracle.

    The first call fills the shared draw bank, so the timed calls measure
    the kernels, as the second stage of a paired dataset does.
    """
    sim_cls, design_cls = DIE_SEED_CIRCUITS[name]
    inputs = die_seeds(n_dies, seed)
    section = {"n_dies": n_dies}
    for n_bits in bits:
        design = design_cls(n_bits=n_bits)
        stages = (sim_cls.schematic(design), sim_cls.post_layout(design))

        def run():
            return np.vstack([stage.simulate_batch(inputs) for stage in stages])

        run()
        row = {"batched_s": round(best_of(run, repeats)[0], 6)}
        if oracle:
            row["max_oracle_dev"] = max(oracle_deviation(stage, inputs) for stage in stages)
        section[f"{n_bits}bit"] = row
    return section


def die_seed_sections(n_dies: int, seed: int, repeats: int, oracle: bool = True) -> dict:
    return {
        name: bench_die_seed(name, n_dies, seed, repeats, oracle)
        for name in DIE_SEED_CIRCUITS
    }


def gate_failures(results: dict) -> list:
    """Every deviation in ``results`` above its tolerance, as messages."""
    failures = [
        f"{name}: max rel metric diff {results[name]['max_rel_metric_diff']:g}"
        for name in BANKS
        if results[name]["max_rel_metric_diff"] > RTOL
    ]
    for name, tol in ORACLE_TOL.items():
        for key, row in results[name].items():
            if key != "n_dies" and row["max_oracle_dev"] > tol:
                failures.append(
                    f"{name} {key}: max oracle dev {row['max_oracle_dev']:g} > {tol:g}"
                )
    return failures


def main(argv=None) -> int:
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
    args = parser.parse_args(argv)

    if args.timings_only:
        print(
            json.dumps(
                die_seed_sections(args.die_seed_dies, args.seed, args.repeats, oracle=False)
            )
        )
        return 0

    sizes = {
        "opamp": args.opamp_samples,
        "adc": args.adc_samples,
        "ota": args.ota_samples,
    }
    banks = {
        name: bench_bank(BANKS[name], n, args.seed, args.repeats)
        for name, n in sizes.items()
    }
    die_seed = die_seed_sections(args.die_seed_dies, args.seed, args.repeats)
    failures = gate_failures({**banks, **die_seed})
    if failures:
        print("engines diverge -- refusing to report:", *failures, sep="\n  ", file=sys.stderr)
        return 1

    opamp = banks["opamp"]
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
            "gates": GATES,
        },
        results={
            "loop_s": opamp["loop_s"],
            "batched_s": opamp["batched_s"],
            "speedup": opamp["speedup"],
            "max_rel_metric_diff": opamp["max_rel_metric_diff"],
            **banks,
            **die_seed,
            **(
                {"baseline": json.loads(args.baseline.read_text())}
                if args.baseline
                else {}
            ),
        },
    )
    for name, section in banks.items():
        draw = f" | draw {section['draw_s'] * 1e3:.1f} ms" if "draw_s" in section else ""
        print(
            f"{name}: loop {section['loop_s']:.3f} s | batched "
            f"{section['batched_s']:.3f} s | speedup {section['speedup']}x{draw} | "
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
