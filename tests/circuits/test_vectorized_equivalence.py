"""Scalar-vs-vectorized engine equivalence for three batched engines.

The vectorized Monte-Carlo engines of the two-stage op-amp, the
folded-cascode OTA and the flash ADC must reproduce the per-die scalar
reference to <=1e-10 relative error across design configurations (nominal,
noisy process corner, derated parasitics, and for the OTA every fleet
corner, mismatch and divergence variant), and must be bit-for-bit
deterministic under sharding and memory-budget changes.  The gm-C filter's
engine is pinned the same way in ``test_svf.py``.
"""

import numpy as np
import pytest

from repro.circuits.adc import FlashADC, FlashADCDesign
from repro.circuits.corners import STANDARD_CORNERS
from repro.circuits.opamp import TwoStageOpAmp
from repro.circuits.ota import FoldedCascodeOTA
from repro.circuits.process import GlobalVariation, ProcessSample, ProcessVariationModel
from repro.circuits.registry import generate_dataset
from repro.circuits.variants import CircuitVariant
from repro.exceptions import SimulationError
from repro.scenarios.library import DIVERGENCE_LEVELS, MISMATCH_LEVELS

N_DIES = 24


def _max_rel(batched, loop):
    return np.max(np.abs(batched - loop) / np.maximum(np.abs(loop), 1e-300))


def _opamp_samples(sim, n, model=None, seed=99):
    model = model if model is not None else sim.process_model()
    rng = np.random.default_rng(seed)
    return model.sample(sim.devices, n, rng)


class TestOpAmpEquivalence:
    @pytest.mark.parametrize(
        "label,sim,model",
        [
            ("nominal", TwoStageOpAmp.schematic(), None),
            (
                "noisy",
                TwoStageOpAmp.schematic(),
                ProcessVariationModel(
                    sigma_vth_global=0.02,
                    sigma_kp_rel_global=0.08,
                    local_scale=1.5,
                ),
            ),
            ("derated_parasitics", TwoStageOpAmp.post_layout(), None),
        ],
    )
    def test_matches_scalar(self, label, sim, model):
        samples = _opamp_samples(sim, N_DIES, model)
        loop = sim.simulate_batch(samples, engine="loop")
        batched = sim.simulate_batch(samples)
        assert _max_rel(batched, loop) <= 1e-10

    def test_sharded_engine_bit_identical(self):
        sim = TwoStageOpAmp.post_layout()
        samples = _opamp_samples(sim, N_DIES)
        single = sim.simulate_batch(samples)
        sharded = sim.simulate_batch(samples, n_jobs=3)
        assert np.array_equal(single, sharded)

    def test_memory_budget_bit_identical(self):
        sim = TwoStageOpAmp.schematic()
        samples = _opamp_samples(sim, N_DIES)
        default = sim.simulate_batch(samples)
        tight = sim.simulate_batch(samples, memory_budget_mb=4.0)
        assert np.array_equal(default, tight)

    def test_empty_batch_raises(self):
        with pytest.raises(SimulationError):
            TwoStageOpAmp.schematic().simulate_batch([])

    def test_unknown_engine_raises(self):
        sim = TwoStageOpAmp.schematic()
        samples = _opamp_samples(sim, 1)
        with pytest.raises(SimulationError):
            sim.simulate_batch(samples, engine="spice")


#: Every corner, mismatch and divergence level of the scenario library.
_OTA_VARIANTS = (
    [pytest.param(CircuitVariant(corner=c.name), id=f"corner-{c.name}") for c in STANDARD_CORNERS]
    + [
        pytest.param(CircuitVariant(mismatch_scale=v), id=f"mismatch-{k}")
        for k, v in MISMATCH_LEVELS.items()
    ]
    + [
        pytest.param(CircuitVariant(divergence_scale=v), id=f"divergence-{k}")
        for k, v in DIVERGENCE_LEVELS.items()
    ]
)


class TestOTAEquivalence:
    @pytest.mark.parametrize(
        "label,sim,model",
        [
            ("schematic", FoldedCascodeOTA.schematic(), None),
            ("post_layout", FoldedCascodeOTA.post_layout(), None),
            (
                "noisy",
                FoldedCascodeOTA.post_layout(),
                ProcessVariationModel(
                    sigma_vth_global=0.02,
                    sigma_kp_rel_global=0.08,
                    local_scale=1.5,
                ),
            ),
        ],
    )
    def test_matches_scalar(self, label, sim, model):
        samples = _opamp_samples(sim, N_DIES, model)
        loop = np.array([sim.simulate(s).as_array() for s in samples])
        batched = sim.simulate_batch(samples)
        assert _max_rel(batched, loop) <= 1e-10

    @pytest.mark.parametrize("variant", _OTA_VARIANTS)
    def test_fleet_variants_match_scalar(self, variant, monkeypatch):
        batched = generate_dataset(
            "ota", n_samples=N_DIES, seed=31, variant=variant, use_cache=False
        )
        monkeypatch.setattr(
            FoldedCascodeOTA,
            "simulate_batch",
            lambda self, samples, **_: np.array(
                [self.simulate(s).as_array() for s in samples]
            ),
        )
        loop = generate_dataset(
            "ota", n_samples=N_DIES, seed=31, variant=variant, use_cache=False
        )
        assert _max_rel(batched.early, loop.early) <= 1e-10
        assert _max_rel(batched.late, loop.late) <= 1e-10

    def test_sharded_engine_bit_identical(self):
        sim = FoldedCascodeOTA.post_layout()
        samples = _opamp_samples(sim, N_DIES)
        single = sim.simulate_batch(samples)
        sharded = sim.simulate_batch(samples, n_jobs=3)
        assert np.array_equal(single, sharded)

    def test_memory_budget_bit_identical(self):
        sim = FoldedCascodeOTA.schematic()
        samples = _opamp_samples(sim, N_DIES)
        default = sim.simulate_batch(samples)
        tight = sim.simulate_batch(samples, memory_budget_mb=0.25)
        assert np.array_equal(default, tight)

    def test_empty_batch_raises(self):
        with pytest.raises(SimulationError):
            FoldedCascodeOTA.schematic().simulate_batch([])

    def test_tail_cutoff_raises_like_per_die(self):
        sim = FoldedCascodeOTA.schematic()
        samples = _opamp_samples(sim, 3)
        # +0.5 V on the tail device puts it below the bias diode's gate line.
        cut = ProcessSample(GlobalVariation(0.0, 0.0, 0.0, 0.0), {"M9": (0.5, 0.0)})
        with pytest.raises(SimulationError, match="M9: tail device cut off"):
            sim.simulate(cut)
        with pytest.raises(SimulationError, match="M9: tail device cut off"):
            sim.simulate_batch(samples + [cut])


class TestADCEquivalence:
    @pytest.mark.parametrize(
        "label,sim",
        [
            ("nominal", FlashADC.schematic()),
            (
                "noisy",
                FlashADC.schematic(
                    FlashADCDesign(noise_rms=1.5e-3, sigma_offset=8e-3)
                ),
            ),
            ("derated_layout", FlashADC.post_layout()),
        ],
    )
    def test_matches_scalar(self, label, sim):
        seeds = np.arange(N_DIES, dtype=np.int64) + 4242
        loop = sim.simulate_batch(seeds, engine="loop")
        batched = sim.simulate_batch(seeds)
        assert _max_rel(batched, loop) <= 1e-10

    def test_sharded_engine_bit_identical(self):
        sim = FlashADC.post_layout()
        seeds = np.arange(N_DIES, dtype=np.int64)
        single = sim.simulate_batch(seeds)
        sharded = sim.simulate_batch(seeds, n_jobs=3)
        assert np.array_equal(single, sharded)

    def test_memory_budget_bit_identical(self):
        sim = FlashADC.schematic()
        seeds = np.arange(N_DIES, dtype=np.int64)
        default = sim.simulate_batch(seeds)
        tight = sim.simulate_batch(seeds, memory_budget_mb=1.0)
        assert np.array_equal(default, tight)

    def test_empty_batch_raises(self):
        with pytest.raises(SimulationError):
            FlashADC.schematic().simulate_batch([])

    def test_unknown_engine_raises(self):
        with pytest.raises(SimulationError):
            FlashADC.schematic().simulate_batch([1, 2], engine="spice")

    def test_nominal_unchanged_by_refactor(self):
        """The shared input-record helper must not move nominal metrics."""
        for sim in (FlashADC.schematic(), FlashADC.post_layout()):
            nominal = sim.simulate_nominal()
            assert np.isfinite(nominal.as_array()).all()
