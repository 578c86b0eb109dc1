"""Per-die loop vs ``simulate_batch``: the dataset-generation speedup.

Runs the bodies of ``scripts/bench_mc.py`` at the active scale and
asserts its gates: the op-amp, flash-ADC and folded-cascode OTA banks
match the per-die reference to ``RTOL`` (and the OTA bank clears
``OTA_MIN_SPEEDUP`` outside smoke scale); the R-2R DAC and SAR ADC banks
(8, 10 and 12 bits, both stages) match the brute-force oracles of
``tests/circuits/die_seed_oracles.py`` to ``ORACLE_TOL``: SAR codes bit
for bit, R-2R metrics to <=1e-10.  The checked-in numbers live in
``BENCH_mc.json`` via ``scripts/bench_mc.py``; this module keeps the
comparison running under the benchmark marker (and at
``REPRO_BENCH_SCALE=smoke`` sizes in CI).
"""

import pytest

from _bench_util import emit
from repro.circuits.adc import FlashADC
from repro.circuits.opamp import TwoStageOpAmp
from repro.circuits.ota import FoldedCascodeOTA
from scripts.bench_mc import (
    DIE_SEED_BITS,
    ORACLE_TOL,
    OTA_MIN_SPEEDUP,
    RTOL,
    bank_inputs,
    bench_bank,
    bench_die_seed,
)

SEED = 2015


@pytest.fixture(scope="module")
def opamp_problem(scale):
    sim = TwoStageOpAmp.schematic()
    return sim, bank_inputs(sim, scale.opamp_bank, SEED)


@pytest.fixture(scope="module")
def adc_problem(scale):
    sim = FlashADC.post_layout()
    return sim, bank_inputs(sim, scale.adc_bank, SEED)


def test_opamp_vectorized_speed(benchmark, opamp_problem):
    sim, samples = opamp_problem
    bank = benchmark(sim.simulate_batch, samples)
    assert bank.shape == (len(samples), 5)


def test_adc_vectorized_speed(benchmark, adc_problem):
    sim, seeds = adc_problem
    bank = benchmark(sim.simulate_batch, seeds)
    assert bank.shape == (seeds.size, 5)


def _bank(sim_cls, n_samples):
    row = bench_bank(sim_cls, n_samples, SEED, repeats=2)
    emit(f"{sim_cls.__name__} bank, both stages: {row}")
    return row


def test_opamp_engines_equivalent(scale):
    """Batched metrics must match the per-die loop before timing counts."""
    assert _bank(TwoStageOpAmp, scale.opamp_bank)["max_rel_metric_diff"] <= RTOL


def test_adc_engines_equivalent(scale):
    assert _bank(FlashADC, scale.adc_bank)["max_rel_metric_diff"] <= RTOL


def test_ota_engines_equivalent(scale):
    """OTA: RTOL agreement always; OTA_MIN_SPEEDUP outside smoke scale."""
    row = _bank(FoldedCascodeOTA, scale.opamp_bank)
    assert row["max_rel_metric_diff"] <= RTOL
    if scale.label != "smoke":
        assert row["speedup"] >= OTA_MIN_SPEEDUP


@pytest.mark.parametrize("n_bits", DIE_SEED_BITS)
@pytest.mark.parametrize("name", sorted(ORACLE_TOL))
def test_die_seed_kernels_match_oracles(name, n_bits, scale):
    """R-2R within 1e-10 of the per-code solve; SAR codes bit-identical."""
    n_dies = 16 if scale.label == "smoke" else 128
    section = bench_die_seed(name, n_dies, SEED, repeats=1, bits=(n_bits,))
    row = section[f"{n_bits}bit"]
    emit(f"{name} {n_bits}-bit ({n_dies} dies, both stages): {row}")
    assert row["max_oracle_dev"] <= ORACLE_TOL[name]
