"""Per-die vs batched equivalence for three batched circuits.

The vectorized Monte-Carlo engines of the two-stage op-amp, the
folded-cascode OTA and the flash ADC must reproduce the per-die scalar
reference of ``loop_oracle.py`` to <=1e-10 relative error across design configurations (nominal,
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
from repro.circuits.registry import circuit_names, generate_dataset
from repro.circuits.variants import CircuitVariant
from repro.exceptions import SimulationError
from repro.scenarios.library import DIVERGENCE_LEVELS, MISMATCH_LEVELS

from .loop_oracle import die_metrics, loop_bank, max_rel_diff, use_oracle_nominals

N_DIES = 24


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
        loop = loop_bank(sim, samples)
        batched = sim.simulate_batch(samples)
        assert max_rel_diff(batched, loop) <= 1e-10

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

    @pytest.mark.parametrize("budget", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_memory_budget_raises(self, budget):
        sim = TwoStageOpAmp.schematic()
        samples = _opamp_samples(sim, 2)
        with pytest.raises(SimulationError, match="memory_budget_mb"):
            sim.simulate_batch(samples, memory_budget_mb=budget)

    def test_unknown_engine_raises(self):
        """``engine=`` is gone: the batched engine is the only one."""
        sim = TwoStageOpAmp.schematic()
        samples = _opamp_samples(sim, 1)
        with pytest.raises(TypeError, match="engine"):
            sim.simulate_batch(samples, engine="loop")


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
        loop = loop_bank(sim, samples)
        batched = sim.simulate_batch(samples)
        assert max_rel_diff(batched, loop) <= 1e-10

    @pytest.mark.parametrize("variant", _OTA_VARIANTS)
    def test_fleet_variants_match_scalar(self, variant, monkeypatch):
        batched = generate_dataset(
            "ota", n_samples=N_DIES, seed=31, variant=variant, use_cache=False
        )
        monkeypatch.setattr(
            FoldedCascodeOTA,
            "simulate_batch",
            lambda self, samples, **_: loop_bank(self, samples),
        )
        loop = generate_dataset(
            "ota", n_samples=N_DIES, seed=31, variant=variant, use_cache=False
        )
        assert max_rel_diff(batched.early, loop.early) <= 1e-10
        assert max_rel_diff(batched.late, loop.late) <= 1e-10

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
            die_metrics(sim, cut)
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
        loop = loop_bank(sim, seeds)
        batched = sim.simulate_batch(seeds)
        assert max_rel_diff(batched, loop) <= 1e-10

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
        """``engine=`` is gone: the batched engine is the only one."""
        with pytest.raises(TypeError, match="engine"):
            FlashADC.schematic().simulate_batch([1, 2], engine="loop")

    def test_nominal_unchanged_by_refactor(self):
        """The shared input-record helper must not move nominal metrics."""
        for sim in (FlashADC.schematic(), FlashADC.post_layout()):
            nominal = sim.simulate_nominal()
            assert np.isfinite(nominal.as_array()).all()


@pytest.mark.parametrize("circuit", circuit_names())
@pytest.mark.parametrize(
    "variant",
    [CircuitVariant(), CircuitVariant(corner="SF")],
    ids=["identity", "corner-SF"],
)
def test_nominal_dies_match_oracle(circuit, variant, monkeypatch):
    """Every nominal die of the dataset builders (both stages, identity
    and corner-shifted) is within 1e-12 of the per-die twin's, and taking
    it from ``simulate_batch`` leaves the Monte-Carlo rows byte-identical."""
    production = generate_dataset(circuit, n_samples=4, seed=7, variant=variant, use_cache=False)
    use_oracle_nominals(monkeypatch)
    oracle = generate_dataset(circuit, n_samples=4, seed=7, variant=variant, use_cache=False)
    for stage in ("early", "late"):
        assert np.array_equal(getattr(production, stage), getattr(oracle, stage))
        nominal = getattr(production, f"{stage}_nominal")
        assert max_rel_diff(nominal, getattr(oracle, f"{stage}_nominal")) <= 1e-12
