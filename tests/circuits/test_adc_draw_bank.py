"""The shared per-die Gaussian draw bank behind the die-seed engines."""

import numpy as np

from repro.circuits.adc import FlashADC
from repro.circuits.dies import _BANK_CACHE, _BANK_CACHE_MAX_ROWS, die_draw_bank

from .loop_oracle import loop_bank


def seeds(n, base=77):
    return np.arange(n, dtype=np.int64) + np.int64(base) * 1_000_003


def flash_stride(n_cmp, n_rec):
    """The flash ADC's row: offsets, ladder, bias, record noise."""
    return 3 * n_cmp + 1 + n_rec


class TestDrawBank:
    def test_bank_matches_sequential_rng_draws(self):
        """One bulk standard_normal consumes the stream exactly like the
        four separate draws a per-die flash ADC makes."""
        n_cmp, n_rec = 7, 32
        bank = die_draw_bank(seeds(3), flash_stride(n_cmp, n_rec))
        for i, seed in enumerate(seeds(3)):
            rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
            offsets = rng.standard_normal(n_cmp)
            ladder = rng.standard_normal(n_cmp + 1)
            bias = rng.standard_normal(n_cmp)
            noise = rng.standard_normal(n_rec)
            expected = np.concatenate([offsets, ladder, bias, noise])
            assert np.array_equal(bank[i], expected)

    def test_bank_is_cached_and_read_only(self):
        first = die_draw_bank(seeds(5), flash_stride(7, 16))
        second = die_draw_bank(seeds(5), flash_stride(7, 16))
        assert first is second
        assert not first.flags.writeable

    def test_distinct_configs_get_distinct_banks(self):
        a = die_draw_bank(seeds(4), flash_stride(7, 16))
        b = die_draw_bank(seeds(4), flash_stride(7, 24))
        c = die_draw_bank(seeds(4, base=78), flash_stride(7, 16))
        assert a.shape != b.shape
        assert not np.array_equal(a[:, :7], c[:, :7])

    def test_lru_eviction_bounds_total_rows(self):
        block = _BANK_CACHE_MAX_ROWS // 2 + 1
        for base in (101, 102, 103):
            die_draw_bank(seeds(block, base=base), flash_stride(3, 8))
        total = sum(b.shape[0] for b in _BANK_CACHE.values())
        assert total <= max(_BANK_CACHE_MAX_ROWS, block)

    def test_vectorized_engine_bit_identical_to_loop(self):
        """End-to-end: the cached-bank fast path reproduces the per-die
        per-die loop exactly (same metrics, both stages)."""
        die_seeds = seeds(40)
        for sim in (FlashADC.schematic(), FlashADC.post_layout()):
            loop = loop_bank(sim, die_seeds)
            fast = sim.simulate_batch(die_seeds)
            np.testing.assert_allclose(fast, loop, rtol=0, atol=1e-12)

    def test_flash_engine_reads_the_shared_bank(self):
        """The flash ADC's rows are the shared bank's rows at its stride."""
        sim = FlashADC.schematic()
        die_seeds = seeds(6, base=5)
        bank = die_draw_bank(die_seeds, sim._stride)
        assert sim._stride == flash_stride(
            sim.design.n_comparators, sim.design.n_samples
        )
        assert np.array_equal(
            sim.simulate_batch(die_seeds), sim._metrics_from_rows(bank)
        )
