"""The array-backed process bank against the per-die draw loop.

``ProcessVariationModel.sample_bank`` must draw exactly what the scalar
loop in ``draw_oracle.py`` draws, ``simulate_batch`` must give the same
bytes for a bank and for its dies as a list, and re-centring a bank at a
corner must equal shifting each die.
"""

import numpy as np
import pytest

from repro.circuits.corners import STANDARD_CORNERS
from repro.circuits.opamp import TwoStageOpAmp
from repro.circuits.ota import FoldedCascodeOTA
from repro.circuits.process import (
    GLOBAL_FIELDS,
    GlobalVariation,
    ProcessBank,
    ProcessSample,
    ProcessVariationModel,
)
from repro.circuits.svf import GmCStateVariableFilter
from repro.exceptions import SimulationError

from .draw_oracle import loop_draws

#: Every stamp-plan (process-sample) circuit.
CIRCUITS = {"opamp": TwoStageOpAmp, "ota": FoldedCascodeOTA, "svf": GmCStateVariableFilter}

#: A noisy model that exercises every draw: scaled local sigmas and a
#: temperature spread.
NOISY = ProcessVariationModel(
    sigma_vth_global=0.02, sigma_kp_rel_global=0.06, sigma_temp=3.0, local_scale=2.5
)


def _bytes(bank: ProcessBank) -> bytes:
    return bank.global_draws.tobytes() + bank.local_draws.tobytes()


class TestDrawMatchesLoop:
    # 513 dies cross the 512-die pipeline chunk.
    @pytest.mark.parametrize("n", [1, 513])
    @pytest.mark.parametrize("circuit", sorted(CIRCUITS))
    def test_bank_equals_scalar_loop(self, circuit, n):
        devices = CIRCUITS[circuit].schematic().devices
        rng_bank, rng_loop = np.random.default_rng(7), np.random.default_rng(7)
        bank = NOISY.sample_bank(devices, n, rng_bank)
        loop = loop_draws(NOISY, devices, n, rng_loop)

        names = [dev.name for dev in devices]
        assert bank.device_names == tuple(names)
        assert _bytes(bank) == _bytes(ProcessBank.from_samples(loop, names))
        assert list(bank) == loop
        # Both consumed the generator to the same point.
        assert rng_bank.bit_generator.state == rng_loop.bit_generator.state

    def test_sample_is_the_bank_as_samples(self):
        devices = TwoStageOpAmp.schematic().devices
        samples = NOISY.sample(devices, 5, np.random.default_rng(3))
        assert samples == list(NOISY.sample_bank(devices, 5, np.random.default_rng(3)))
        assert all(isinstance(s, ProcessSample) for s in samples)

    def test_zero_temperature_sigma_draws_no_temperature(self):
        devices = TwoStageOpAmp.schematic().devices
        bank = ProcessVariationModel().sample_bank(devices, 4, np.random.default_rng(1))
        assert np.array_equal(bank.global_draws[:, GLOBAL_FIELDS.index("temp_delta")], np.zeros(4))


class TestSimulateBatchReadsTheBank:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("stage", ["schematic", "post_layout"])
    @pytest.mark.parametrize("circuit", sorted(CIRCUITS))
    def test_bank_equals_sample_list(self, circuit, stage, n_jobs):
        sim = getattr(CIRCUITS[circuit], stage)()
        bank = sim.process_model().sample_bank(sim.devices, 40, np.random.default_rng(11))
        from_bank = sim.simulate_batch(bank, n_jobs=n_jobs)
        from_list = sim.simulate_batch(list(bank), n_jobs=n_jobs)
        assert from_bank.tobytes() == from_list.tobytes()

    def test_bank_of_fewer_devices_draws_zero_for_the_rest(self):
        sim = TwoStageOpAmp.schematic()
        bank = NOISY.sample_bank(sim.devices[:3], 8, np.random.default_rng(4))
        assert sim.simulate_batch(bank).tobytes() == sim.simulate_batch(list(bank)).tobytes()

    def test_unlisted_device_draws_zero_local(self):
        sim = TwoStageOpAmp.schematic()
        zero = GlobalVariation(0.0, 0.0, 0.0, 0.0, 0.0)
        bare = ProcessSample(global_variation=zero, local={})
        nominal = ProcessVariationModel().nominal_sample(sim.devices)
        assert np.array_equal(sim.simulate_batch([bare]), sim.simulate_batch([nominal]))

    def test_empty_bank_raises(self):
        sim = TwoStageOpAmp.schematic()
        bank = ProcessVariationModel().sample_bank(sim.devices, 3, np.random.default_rng(0))
        with pytest.raises(SimulationError, match="at least one"):
            sim.simulate_batch(bank[:0])


class TestCornerRecentring:
    @pytest.mark.parametrize("corner", STANDARD_CORNERS, ids=lambda c: c.name)
    def test_bank_equals_per_sample_apply(self, corner):
        devices = FoldedCascodeOTA.schematic().devices
        bank = NOISY.sample_bank(devices, 64, np.random.default_rng(5))
        shifted = corner.apply(bank, 0.015, 0.05)
        per_sample = [corner.apply(s, 0.015, 0.05) for s in bank]
        names = bank.device_names
        assert isinstance(shifted, ProcessBank)
        assert _bytes(shifted) == _bytes(ProcessBank.from_samples(per_sample, names))
        # The local draws are shared, the base bank is untouched.
        assert np.shares_memory(shifted.local_draws, bank.local_draws)
        assert _bytes(bank) == _bytes(NOISY.sample_bank(devices, 64, np.random.default_rng(5)))


class TestBank:
    @pytest.fixture
    def bank(self):
        devices = TwoStageOpAmp.schematic().devices
        return NOISY.sample_bank(devices, 6, np.random.default_rng(2))

    def test_indexing(self, bank):
        assert len(bank) == 6
        assert bank[4] == list(bank)[4]
        assert bank[np.int64(-1)] == list(bank)[-1]
        assert list(bank[1:3]) == list(bank)[1:3]
        assert list(bank[np.array([5, 0])]) == [bank[5], bank[0]]

    def test_arrays_are_read_only(self, bank):
        with pytest.raises(ValueError):
            bank.global_draws[0, 0] = 1.0
        with pytest.raises(ValueError):
            bank.local_draws[0, 0, 0] = 1.0

    def test_caller_array_stays_writable(self):
        g = np.zeros((2, 5))
        ProcessBank(g, np.zeros((2, 1, 2)), ["M1"])
        g[0, 0] = 1.0

    def test_local_of(self, bank):
        assert np.array_equal(bank.local_of("M3"), bank.local_draws[:, 2, :])
        assert bank.local_of("nope") is None

    def test_rejects_bad_shapes(self):
        with pytest.raises(SimulationError, match="global draws"):
            ProcessBank(np.zeros((2, 4)), np.zeros((2, 1, 2)), ["M1"])
        with pytest.raises(SimulationError, match="local draws"):
            ProcessBank(np.zeros((2, 5)), np.zeros((3, 1, 2)), ["M1"])


class TestDuplicateDeviceNames:
    """A name must pick one device's draws, so a bank refuses duplicates."""

    def test_sample_bank_refuses_duplicates(self):
        devices = TwoStageOpAmp.schematic().devices
        with pytest.raises(SimulationError, match="duplicate device names"):
            ProcessVariationModel().sample_bank(devices + devices[:1], 3)

    def test_constructor_refuses_duplicates(self):
        with pytest.raises(SimulationError, match="duplicate device names"):
            ProcessBank(np.zeros((1, 5)), np.zeros((1, 2, 2)), ["M1", "M1"])

    @pytest.mark.parametrize("circuit", sorted(CIRCUITS))
    def test_shipped_circuits_have_unique_names(self, circuit):
        for stage in ("schematic", "post_layout"):
            names = [dev.name for dev in getattr(CIRCUITS[circuit], stage)().devices]
            assert len(set(names)) == len(names)
