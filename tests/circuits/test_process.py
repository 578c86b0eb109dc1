"""Tests for the process variation model."""

import numpy as np
import pytest

from repro.circuits.devices import Mosfet, MosfetGeometry, MosfetProcess
from repro.circuits.process import ProcessVariationModel
from repro.exceptions import SimulationError


@pytest.fixture
def devices():
    nmos = MosfetProcess(vth=0.45, kp=4e-4, lambda_=0.15)
    return [
        Mosfet("M1", MosfetGeometry(8e-6, 0.12e-6), nmos),
        Mosfet("M2", MosfetGeometry(8e-6, 0.12e-6), nmos),
        Mosfet("M3", MosfetGeometry(0.5e-6, 0.12e-6), nmos),
    ]


class TestSampling:
    def test_sample_count(self, devices, rng):
        model = ProcessVariationModel()
        assert len(model.sample(devices, 7, rng)) == 7

    def test_reproducible(self, devices):
        model = ProcessVariationModel()
        a = model.sample(devices, 3, np.random.default_rng(9))
        b = model.sample(devices, 3, np.random.default_rng(9))
        assert a[0].global_variation == b[0].global_variation
        assert a[2].local == b[2].local

    def test_global_statistics(self, devices, rng):
        model = ProcessVariationModel(sigma_vth_global=0.02, polarity_correlation=0.7)
        samples = model.sample(devices, 4000, rng)
        dvth_n = np.array([s.global_variation.dvth_n for s in samples])
        dvth_p = np.array([s.global_variation.dvth_p for s in samples])
        assert dvth_n.std() == pytest.approx(0.02, rel=0.1)
        assert np.corrcoef(dvth_n, dvth_p)[0, 1] == pytest.approx(0.7, abs=0.05)

    def test_local_scales_with_pelgrom(self, devices, rng):
        model = ProcessVariationModel()
        samples = model.sample(devices, 3000, rng)
        big = np.array([s.local["M1"][0] for s in samples])
        small = np.array([s.local["M3"][0] for s in samples])
        expected_ratio = devices[2].mismatch_sigma()[0] / devices[0].mismatch_sigma()[0]
        assert small.std() / big.std() == pytest.approx(expected_ratio, rel=0.1)

    def test_local_independent_across_matched_pair(self, devices, rng):
        model = ProcessVariationModel()
        samples = model.sample(devices, 3000, rng)
        m1 = np.array([s.local["M1"][0] for s in samples])
        m2 = np.array([s.local["M2"][0] for s in samples])
        assert abs(np.corrcoef(m1, m2)[0, 1]) < 0.06

    def test_rejects_zero_samples(self, devices, rng):
        with pytest.raises(SimulationError):
            ProcessVariationModel().sample(devices, 0, rng)


class TestApply:
    def test_apply_combines_global_and_local(self, devices, rng):
        model = ProcessVariationModel()
        sample = model.sample(devices, 1, rng)[0]
        varied = sample.apply(devices[0], "n")
        expected = sample.global_variation.dvth_n + sample.local["M1"][0]
        assert varied.dvth == pytest.approx(expected)

    def test_apply_polarity_selects_global(self, devices, rng):
        model = ProcessVariationModel(polarity_correlation=0.0)
        sample = model.sample(devices, 1, rng)[0]
        as_n = sample.apply(devices[0], "n")
        as_p = sample.apply(devices[0], "p")
        assert as_n.dvth != as_p.dvth

    def test_apply_rejects_bad_polarity(self, devices, rng):
        sample = ProcessVariationModel().sample(devices, 1, rng)[0]
        with pytest.raises(SimulationError):
            sample.apply(devices[0], "x")

    def test_nominal_sample_is_zero(self, devices):
        model = ProcessVariationModel()
        nominal = model.nominal_sample(devices)
        varied = nominal.apply(devices[0], "n")
        assert varied.dvth == 0.0
        assert varied.dkp_rel == 0.0


class TestValidation:
    def test_rejects_negative_sigma(self):
        with pytest.raises(SimulationError):
            ProcessVariationModel(sigma_vth_global=-0.01)

    def test_rejects_bad_correlation(self):
        with pytest.raises(SimulationError):
            ProcessVariationModel(polarity_correlation=1.0)

    def test_rejects_negative_temperature_sigma(self):
        with pytest.raises(SimulationError, match="sigma_temp"):
            ProcessVariationModel(sigma_temp=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "name", ["sigma_vth_global", "sigma_kp_rel_global", "sigma_temp"]
    )
    def test_rejects_non_finite_sigma(self, name, value):
        with pytest.raises(SimulationError, match=name):
            ProcessVariationModel(**{name: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_local_scale(self, value):
        with pytest.raises(SimulationError, match="local_scale"):
            ProcessVariationModel(local_scale=value)
