"""Integration tests: full flows across packages on real circuit data."""

import numpy as np
import pytest

from repro.core.bmf import map_moments_from_stats
from repro.core.errors import covariance_error, mean_error
from repro.core.pipeline import FusionPipeline
from repro.stats.gof import mardia_kurtosis
from repro.stats.suffstats import SufficientStats
from repro.yieldest.parametric import YieldEstimator
from repro.yieldest.specs import Specification, SpecificationSet


class TestOpampPipeline:
    """Simulator -> preprocessing -> CV -> MAP -> physical units."""

    @pytest.fixture(scope="class")
    def pipeline(self, opamp_dataset_small):
        ds = opamp_dataset_small
        return FusionPipeline.fit(ds.early, ds.early_nominal, ds.late_nominal)

    def test_fused_moments_close_to_truth(self, pipeline, opamp_dataset_small, rng):
        ds = opamp_dataset_small
        subset = ds.late_subset(16, rng)
        result = pipeline.estimate(subset, rng=rng)
        truth_mean = ds.late.mean(axis=0)
        # Error per metric below one population standard deviation
        # (mean-relative error is meaningless for offset, whose mean ~ 0).
        scaled = np.abs(result.mean - truth_mean) / ds.late.std(axis=0)
        assert np.all(scaled < 1.0)

    def test_bmf_beats_mle_covariance_16_samples(
        self, pipeline, opamp_dataset_small, rng
    ):
        ds = opamp_dataset_small
        truth_cov = np.cov(ds.late.T, bias=True)
        bmf_wins = 0
        for _ in range(8):
            subset = ds.late_subset(16, rng)
            bmf = pipeline.estimate(subset, rng=rng)
            mle = pipeline.estimate_with("mle", subset)
            bmf_err = np.linalg.norm(bmf.covariance - truth_cov)
            mle_err = np.linalg.norm(mle.covariance - truth_cov)
            bmf_wins += bmf_err < mle_err
        assert bmf_wins >= 6

    def test_covariance_units_scale_back(self, pipeline, opamp_dataset_small, rng):
        """Fused covariance diagonal must be in squared physical units."""
        ds = opamp_dataset_small
        result = pipeline.estimate(ds.late_subset(32, rng), rng=rng)
        true_vars = ds.late.var(axis=0)
        ratio = np.diag(result.covariance) / true_vars
        assert np.all(ratio > 0.3) and np.all(ratio < 3.0)


class TestAdcYieldFlow:
    """ADC simulator -> BMF -> parametric yield vs empirical yield."""

    def test_yield_from_fused_moments_matches_empirical(
        self, adc_dataset_small, rng
    ):
        ds = adc_dataset_small
        pipeline = FusionPipeline.fit(ds.early, ds.early_nominal, ds.late_nominal)
        result = pipeline.estimate(ds.late_subset(32, rng), rng=rng)

        # Specs chosen to sit inside the population spread.
        med = np.median(ds.late, axis=0)
        specs = SpecificationSet(
            (
                Specification.minimum("snr", float(med[0] - 0.2)),
                Specification.minimum("sinad", float(med[1] - 0.3)),
                Specification.minimum("sfdr", float(med[2] - 2.0)),
                Specification.maximum("thd", float(med[3] + 2.0)),
                Specification.maximum("power", float(med[4] * 1.02)),
            )
        )
        fused_yield = YieldEstimator(specs).from_moments(
            result.mean, result.covariance
        ).total_yield
        empirical = specs.empirical_yield(ds.late)
        assert fused_yield == pytest.approx(empirical, abs=0.15)


class TestSequentialOnCircuitData:
    def test_streaming_on_opamp(self, opamp_dataset_small, rng):
        ds = opamp_dataset_small
        pipeline = FusionPipeline.fit(ds.early, ds.early_nominal, ds.late_nominal)
        late_iso = pipeline.transform.transform(ds.late, "late")
        stats = SufficientStats.empty(pipeline.prior.dim)
        for row in late_iso[:40]:
            stats.push(row)
        mean, _cov = map_moments_from_stats(pipeline.prior, stats, 5.0, 50.0)
        exact_mean = late_iso.mean(axis=0)
        assert mean_error(mean, exact_mean) < 0.6


class TestModelAssumptionDiagnostics:
    def test_opamp_metrics_near_gaussian(self, opamp_dataset_small):
        """The paper's joint-Gaussian assumption: check it is 'reasonable'
        (kurtosis statistic moderate) on the simulated workload even if a
        strict test rejects at n=300."""
        result = mardia_kurtosis(opamp_dataset_small.early)
        assert abs(result.statistic) < 25.0
