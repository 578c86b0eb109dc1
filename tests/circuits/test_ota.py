"""Tests for the folded-cascode OTA simulator."""

import numpy as np
import pytest

from repro.circuits.ota import (
    OTA_METRIC_NAMES,
    FoldedCascodeDesign,
    FoldedCascodeOTA,
    generate_ota_dataset,
)


@pytest.fixture(scope="module")
def early():
    return FoldedCascodeOTA.schematic()


@pytest.fixture(scope="module")
def late():
    return FoldedCascodeOTA.post_layout()


@pytest.fixture(scope="module")
def nominal_early(early):
    return early.simulate_nominal()


@pytest.fixture(scope="module")
def nominal_late(late):
    return late.simulate_nominal()


class TestNominalDesign:
    def test_cascode_gain_higher_than_two_stage_per_stage(self, nominal_early):
        # A cascoded single stage: 70-90 dB typical.
        assert 3000.0 < nominal_early.gain < 100000.0

    def test_gbw_in_range(self, nominal_early):
        assert 1e7 < nominal_early.gbw < 1e9

    def test_slew_rate_matches_tail_over_cload(self, nominal_early):
        design = FoldedCascodeDesign()
        # Tail is 6x the 20uA reference by sizing -> 120 uA on 2 pF.
        expected = 6.0 * design.i_bias / design.c_load
        assert nominal_early.slew_rate == pytest.approx(expected, rel=0.05)

    def test_offset_zero_at_nominal(self, nominal_early):
        assert nominal_early.offset == 0.0

    def test_metric_order(self, nominal_early):
        arr = nominal_early.as_array()
        assert arr.shape == (5,)
        assert OTA_METRIC_NAMES == ("gain", "gbw", "power", "offset", "slew_rate")


class TestPostLayout:
    def test_routing_cap_reduces_gbw(self, nominal_early, nominal_late):
        assert nominal_late.gbw < nominal_early.gbw

    def test_routing_cap_reduces_slew(self, nominal_early, nominal_late):
        assert nominal_late.slew_rate < nominal_early.slew_rate

    def test_layout_adds_power_and_offset(self, nominal_early, nominal_late):
        assert nominal_late.power > nominal_early.power
        assert nominal_late.offset > 0.0


class TestVariation:
    def test_batch_finite(self, early, rng):
        samples = early.process_model().sample(early.devices, 20, rng)
        metrics = early.simulate_batch(samples)
        assert metrics.shape == (20, 5)
        assert np.all(np.isfinite(metrics))

    def test_gbw_tracks_gm_not_gain(self, early, rng):
        """GBW = gm1/(2 pi C): it must correlate with power (current),
        while gain anti-correlates with current (gds grows faster)."""
        samples = early.process_model().sample(early.devices, 150, rng)
        metrics = early.simulate_batch(samples)
        gbw_power = np.corrcoef(metrics[:, 1], metrics[:, 2])[0, 1]
        assert gbw_power > 0.3

    def test_slew_power_strongly_coupled(self, early, rng):
        """Both slew and power are ~linear in the tail current."""
        samples = early.process_model().sample(early.devices, 100, rng)
        metrics = early.simulate_batch(samples)
        assert np.corrcoef(metrics[:, 4], metrics[:, 2])[0, 1] > 0.9

    def test_stage_correlation(self, early, late, rng):
        samples = early.process_model().sample(early.devices, 80, rng)
        m_early = early.simulate_batch(samples)
        m_late = late.simulate_batch(samples)
        for j in range(5):
            assert np.corrcoef(m_early[:, j], m_late[:, j])[0, 1] > 0.9


class TestStepResponse:
    def test_settling_consistent_with_ac_pole(self, early):
        """Cross-engine check: the transient settling time of the (nearly
        single-pole) OTA must equal ln(100) dominant-pole time constants,
        with the time constant taken from the AC-derived gain and GBW."""
        from repro.circuits.process import ProcessVariationModel

        model = ProcessVariationModel(0.0, 0.0, 0.0, 0.0, 0.0)
        nominal = model.nominal_sample(early.devices)
        t_settle, overshoot = early.measure_step_response(nominal, tolerance=0.01)
        gain, gbw = early.simulate_batch([nominal])[0, :2]
        tau = gain / (2.0 * np.pi * gbw)
        assert t_settle / tau == pytest.approx(np.log(100.0), rel=0.1)
        assert overshoot < 0.02  # dominant-pole: no ringing

    def test_post_layout_settles_slower(self, early, late, rng):
        samples = early.process_model().sample(early.devices, 1, rng)
        t_early, _ = early.measure_step_response(samples[0])
        t_late, _ = late.measure_step_response(samples[0])
        assert t_late > t_early


class TestDatasetAndFusion:
    def test_generate_dataset(self, tmp_path):
        ds = generate_ota_dataset(60, seed=5, cache_dir=tmp_path)
        assert ds.n_samples == 60
        assert ds.metric_names == OTA_METRIC_NAMES

    def test_bmf_works_on_ota(self, tmp_path):
        """The full pipeline generalises beyond the paper's two circuits."""
        from repro.core.pipeline import FusionPipeline

        ds = generate_ota_dataset(250, seed=6, cache_dir=tmp_path)
        rng = np.random.default_rng(7)
        pipeline = FusionPipeline.fit(ds.early, ds.early_nominal, ds.late_nominal)
        late_iso = pipeline.transform.transform(ds.late, "late")
        exact_cov = np.cov(late_iso.T, bias=True)
        wins = 0
        for _ in range(6):
            subset = ds.late_subset(8, rng)
            bmf = pipeline.estimate(subset, rng=rng)
            mle = pipeline.estimate_with("mle", subset)
            bmf_err = np.linalg.norm(bmf.isotropic.covariance - exact_cov)
            mle_err = np.linalg.norm(mle.isotropic.covariance - exact_cov)
            wins += bmf_err < mle_err
        assert wins >= 5
