"""Vectorized vs loop Monte-Carlo engines: the dataset-generation speedup.

Times both ``simulate_batch`` engines on the op-amp and flash-ADC banks
(the Sec. 5 workloads) and the folded-cascode OTA bank, and asserts the
vectorized metrics match the scalar reference to <=1e-10 relative error
before any timing is reported.  The R-2R DAC and SAR ADC banks (8, 10
and 12 bits, both stages) are checked against the brute-force oracles of
``tests/circuits/die_seed_oracles.py`` instead: SAR codes bit for bit,
R-2R metrics to <=1e-10.  The checked-in numbers live in
``BENCH_mc.json`` via ``scripts/bench_mc.py``; this module keeps the
comparison running under the benchmark marker (and at
``REPRO_BENCH_SCALE=smoke`` sizes in CI).
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from _bench_util import emit
from repro.circuits.adc import FlashADC
from repro.circuits.opamp import TwoStageOpAmp
from repro.circuits.ota import FoldedCascodeOTA
from repro.circuits.r2r_dac import R2RDACDesign, R2RLadderDAC
from repro.circuits.sar_adc import SarADC, SarADCDesign

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.circuits.die_seed_oracles import oracle_deviation  # noqa: E402

SEED = 2015


@pytest.fixture(scope="module")
def opamp_problem(scale):
    sim = TwoStageOpAmp.schematic()
    rng = np.random.default_rng(SEED)
    samples = sim.process_model().sample(sim.devices, scale.opamp_bank, rng)
    return sim, samples


@pytest.fixture(scope="module")
def ota_problem(scale):
    sim = FoldedCascodeOTA.post_layout()
    rng = np.random.default_rng(SEED)
    samples = sim.process_model().sample(sim.devices, scale.opamp_bank, rng)
    return sim, samples


@pytest.fixture(scope="module")
def adc_problem(scale):
    sim = FlashADC.post_layout()
    seeds = np.arange(scale.adc_bank, dtype=np.int64) + np.int64(SEED) * 1_000_003
    return sim, seeds


def test_opamp_vectorized_speed(benchmark, opamp_problem):
    sim, samples = opamp_problem
    bank = benchmark(sim.simulate_batch, samples)
    assert bank.shape == (len(samples), 5)


def test_adc_vectorized_speed(benchmark, adc_problem):
    sim, seeds = adc_problem
    bank = benchmark(sim.simulate_batch, seeds)
    assert bank.shape == (seeds.size, 5)


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def test_opamp_engines_equivalent(opamp_problem):
    """Vectorized metrics must match the scalar path before timing counts."""
    sim, samples = opamp_problem
    batched_s, batched = _timed(lambda: sim.simulate_batch(samples))
    loop_s, loop = _timed(lambda: sim.simulate_batch(samples, engine="loop"))

    rel = np.max(np.abs(batched - loop) / np.maximum(np.abs(loop), 1e-300))
    assert rel <= 1e-10
    emit(
        "op-amp bank (n=%d): loop %.2f s, vectorized %.3f s -> %.1fx, "
        "max rel metric diff %.1e (see scripts/bench_mc.py for best-of-N)"
        % (len(samples), loop_s, batched_s, loop_s / max(batched_s, 1e-12), rel)
    )


def test_adc_engines_equivalent(adc_problem):
    sim, seeds = adc_problem
    batched_s, batched = _timed(lambda: sim.simulate_batch(seeds))
    loop_s, loop = _timed(lambda: sim.simulate_batch(seeds, engine="loop"))

    rel = np.max(np.abs(batched - loop) / np.maximum(np.abs(loop), 1e-300))
    assert rel <= 1e-10
    emit(
        "flash-ADC bank (n=%d): loop %.2f s, vectorized %.3f s -> %.1fx, "
        "max rel metric diff %.1e"
        % (seeds.size, loop_s, batched_s, loop_s / max(batched_s, 1e-12), rel)
    )


def test_ota_engines_equivalent(ota_problem, scale):
    """OTA: 1e-10 agreement always; >=10x over the per-die loop at non-smoke scale."""
    sim, samples = ota_problem
    sim.simulate_batch(samples[:1])  # build the stamp plan outside the timing
    batched_s, batched = min(
        (_timed(lambda: sim.simulate_batch(samples)) for _ in range(3)),
        key=lambda timed: timed[0],
    )
    loop_s, loop = _timed(lambda: sim.simulate_batch(samples, engine="loop"))

    rel = np.max(np.abs(batched - loop) / np.maximum(np.abs(loop), 1e-300))
    speedup = loop_s / max(batched_s, 1e-12)
    emit(
        "OTA bank (n=%d): loop %.2f s, vectorized %.3f s -> %.1fx, "
        "max rel metric diff %.1e"
        % (len(samples), loop_s, batched_s, speedup, rel)
    )
    assert rel <= 1e-10
    # Smoke runners are too noisy to gate a ratio.
    if scale.label != "smoke":
        assert speedup >= 10.0


@pytest.mark.parametrize("n_bits", [8, 10, 12])
@pytest.mark.parametrize(
    "sim_cls,design_cls",
    [(R2RLadderDAC, R2RDACDesign), (SarADC, SarADCDesign)],
    ids=["r2r_dac", "sar_adc"],
)
def test_die_seed_kernels_match_oracles(sim_cls, design_cls, n_bits, scale):
    """R-2R within 1e-10 of the per-code solve; SAR codes bit-identical."""
    n_dies = 16 if scale.label == "smoke" else 128
    seeds = np.arange(n_dies, dtype=np.int64) + np.int64(SEED) * 1_000_003
    for sim in (
        sim_cls.schematic(design_cls(n_bits=n_bits)),
        sim_cls.post_layout(design_cls(n_bits=n_bits)),
    ):
        batched_s, _ = _timed(lambda: sim.simulate_batch(seeds))
        dev = oracle_deviation(sim, seeds)
        emit(
            "%s %d-bit (n=%d): vectorized %.1f ms, max oracle dev %.1e"
            % (sim_cls.__name__, n_bits, n_dies, batched_s * 1e3, dev)
        )
        assert dev <= (0.0 if sim_cls is SarADC else 1e-10)
