"""The shared die-seed engine: seed validation, chunking and fan-out."""

import tracemalloc

import numpy as np
import pytest

from repro.circuits.adc import FlashADC, FlashADCDesign
from repro.circuits.batch import code_levels
from repro.circuits.dies import die_draw_bank, die_seed_array
from repro.circuits.r2r_dac import R2RDACDesign, R2RLadderDAC
from repro.circuits.sar_adc import SarADC, SarADCDesign
from repro.exceptions import ReproError, SimulationError

from .loop_oracle import loop_bank

CIRCUITS = {
    "flash": lambda: FlashADC.post_layout(FlashADCDesign(n_samples=256, n_cycles=17)),
    "r2r": lambda: R2RLadderDAC.post_layout(R2RDACDesign(n_bits=8)),
    "sar": lambda: SarADC.post_layout(SarADCDesign(n_bits=8, n_samples=256, n_cycles=17)),
}


@pytest.fixture(params=sorted(CIRCUITS))
def sim(request):
    return CIRCUITS[request.param]()


class TestSeedValidation:
    @pytest.mark.parametrize(
        "seeds",
        [[3, -1], [1.7, 2.2], [[1, 2], [3, 4]], [], ["a"], [np.nan], [2.0**63]],
        ids=["negative", "non-integral", "2-D", "empty", "string", "nan", "too-big"],
    )
    def test_bad_seeds_raise_simulation_error(self, sim, seeds):
        with pytest.raises(SimulationError, match="die seeds"):
            sim.simulate_batch(seeds)
        if seeds:  # an empty bank has no die for the per-die path to refuse
            with pytest.raises(SimulationError, match="die seeds"):
                loop_bank(sim, seeds)

    def test_bad_seed_is_a_repro_error(self, sim):
        """Callers that catch ReproError (the fleet, the compiler) see it."""
        with pytest.raises(ReproError):
            sim.simulate_batch([-5])

    def test_single_die_entry_points_validate(self, sim):
        with pytest.raises(SimulationError, match="die seeds"):
            sim.simulate(-1)
        with pytest.raises(SimulationError, match="die seeds"):
            sim.simulate(0.5)

    def test_integral_floats_and_scalars_are_accepted(self, sim):
        ints = sim.simulate_batch([4, 5])
        assert np.array_equal(sim.simulate_batch([4.0, 5.0]), ints)
        assert np.array_equal(sim.simulate_batch(np.uint32(4)), ints[:1])

    def test_draw_bank_validates_too(self):
        with pytest.raises(SimulationError, match="die seeds"):
            die_draw_bank(np.array([1.5]), 4)

    def test_seed_array_is_int64(self):
        out = die_seed_array(np.array([1, 2], dtype=np.uint8))
        assert out.dtype == np.int64 and out.tolist() == [1, 2]


class TestEngine:
    def test_tiny_memory_budget_is_bit_identical(self, sim):
        seeds = np.arange(9)
        tight = sim.simulate_batch(seeds, memory_budget_mb=1e-6)
        assert np.array_equal(sim.simulate_batch(seeds), tight)

    def test_sharded_engine_is_bit_identical(self, sim):
        seeds = np.arange(9)
        assert np.array_equal(
            sim.simulate_batch(seeds), sim.simulate_batch(seeds, n_jobs=2)
        )

    def test_bad_engine_and_budget_raise(self, sim):
        with pytest.raises(TypeError, match="engine"):
            sim.simulate_batch([1], engine="loop")
        for budget in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(SimulationError, match="memory_budget_mb"):
                sim.simulate_batch([1], memory_budget_mb=budget)


class TestMemoryEstimate:
    @pytest.mark.parametrize(
        "sim",
        [
            R2RLadderDAC.post_layout(R2RDACDesign(n_bits=8)),
            R2RLadderDAC.post_layout(R2RDACDesign(n_bits=12)),
            SarADC.post_layout(SarADCDesign(n_bits=8)),
            SarADC.post_layout(SarADCDesign(n_bits=14)),
        ],
        ids=["r2r-8", "r2r-12", "sar-8", "sar-14"],
    )
    def test_estimate_bounds_the_measured_peak(self, sim):
        """The chunk-sizing estimate is an upper bound, and a tight one."""
        n_dies = 32
        z = np.array(die_draw_bank(np.arange(n_dies), sim._stride))
        sim._metrics_from_rows(z)
        tracemalloc.start()
        try:
            sim._metrics_from_rows(z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.5 * sim._bytes_per_die() <= peak / n_dies <= sim._bytes_per_die()


class TestCodeLevels:
    def test_sums_set_bits_msb_first(self):
        rng = np.random.default_rng(3)
        weights = rng.uniform(0.0, 1.0, (3, 5))
        levels = code_levels(weights)
        for code in range(32):
            acc = np.zeros(3)
            for bit in range(4, -1, -1):
                if code >> bit & 1:
                    acc = acc + weights[:, bit]
            assert np.array_equal(levels[:, code], acc)
