"""Tests for the estimator registry and declarative fusion configuration.

The contract under test: every registered name is constructible from a
default :class:`EstimatorSpec`, specs and configs round-trip losslessly
through JSON, unknown names fail with the available alternatives listed,
and a *new* estimator registered at runtime is usable from the pipeline,
the sweeps, and the CLI without modifying any of those layers.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.registry as registry_module
from repro.core.estimators import MomentEstimate, MomentEstimator
from repro.core.pipeline import FusionPipeline
from repro.core.prior import PriorKnowledge
from repro.core.registry import (
    EstimatorSpec,
    FusionConfig,
    GridSpec,
    available_estimators,
    available_selectors,
    estimator_entry,
    make_estimator,
    make_selector,
    register_estimator,
)
from repro.exceptions import (
    ConfigError,
    HyperParameterError,
    ReproError,
    UnknownEstimatorError,
)
from repro.linalg.validation import assert_spd


@pytest.fixture
def late_samples(gaussian5, rng) -> np.ndarray:
    """A small multivariate late-stage batch matching synthetic_prior."""
    return gaussian5.sample(24, rng)


def _fixture_for(entry, gaussian5, rng):
    """(prior, samples) matched to an entry's declared data kind."""
    if entry.data_kind == "univariate":
        prior = PriorKnowledge(np.array([0.3]), np.array([[1.2]]))
        samples = rng.normal(0.3, 1.1, size=40)
    elif entry.data_kind == "binary":
        prior = PriorKnowledge(np.array([0.9]), np.array([[0.09]]))
        samples = (rng.random(40) < 0.85).astype(float)
    else:
        prior = PriorKnowledge(gaussian5.mean + 0.05, gaussian5.covariance * 1.08)
        samples = gaussian5.sample(24, rng)
    return prior, samples


class TestSpec:
    def test_canonicalizes_names(self):
        assert EstimatorSpec("Robust_BMF").name == "robust-bmf"
        assert estimator_entry("ROBUST_bmf").name == "robust-bmf"

    def test_json_round_trip(self):
        spec = EstimatorSpec("bmf", {"kappa0": 3.0, "v0": 20.0})
        assert EstimatorSpec.from_dict(spec.to_dict()) == spec

    def test_with_params_overrides(self):
        spec = EstimatorSpec("bmf", {"kappa0": 1.0, "v0": 10.0})
        assert spec.with_params(kappa0=5.0).params["kappa0"] == 5.0
        assert spec.params["kappa0"] == 1.0  # original untouched

    def test_spec_is_a_factory(self, synthetic_prior):
        # Callable with a prior — the legacy sweep factory signature.
        estimator = EstimatorSpec("bmf")(synthetic_prior)
        assert estimator.name == "bmf"

    def test_rejects_empty_name(self):
        with pytest.raises(ConfigError):
            EstimatorSpec("")


class TestRegistryLookup:
    def test_unknown_name_lists_available(self):
        with pytest.raises(UnknownEstimatorError) as excinfo:
            estimator_entry("kalman")
        message = str(excinfo.value)
        assert "kalman" in message
        for name in ("mle", "bmf", "ledoit-wolf"):
            assert name in message

    def test_unknown_error_is_catchable_as_repro_error(self):
        with pytest.raises(ReproError):
            make_estimator("definitely-not-registered")

    def test_prior_required_when_declared(self):
        with pytest.raises(ConfigError, match="requires a fitted PriorKnowledge"):
            make_estimator("bmf", prior=None)

    def test_expected_builtins_present(self):
        names = available_estimators()
        for expected in (
            "mle",
            "bmf",
            "robust-bmf",
            "sequential-bmf",
            "univariate-bmf",
            "bmf-bd",
            "ledoit-wolf",
            "oas",
            "diagonal-shrinkage",
        ):
            assert expected in names


class TestEveryRegisteredName:
    """Each built-in: default-spec build + JSON round-trip + valid estimate."""

    @pytest.mark.parametrize("name", [
        "mle", "bmf", "robust-bmf", "sequential-bmf", "univariate-bmf",
        "bmf-bd", "ledoit-wolf", "oas", "diagonal-shrinkage",
    ])
    def test_builds_and_estimates_spd(self, name, gaussian5, rng):
        entry = estimator_entry(name)
        spec = EstimatorSpec(name)
        assert EstimatorSpec.from_dict(spec.to_dict()) == spec
        prior, samples = _fixture_for(entry, gaussian5, rng)
        estimator = make_estimator(spec, prior=prior)
        estimate = estimator.estimate(samples, rng=np.random.default_rng(0))
        assert isinstance(estimate, MomentEstimate)
        estimate.validate()
        assert_spd(estimate.covariance)
        # info must stay JSON-safe typed scalars
        for value in estimate.info.values():
            assert isinstance(value, (bool, int, float, str))


class TestFusionConfig:
    def test_json_round_trip_lossless(self):
        config = FusionConfig(
            estimator=EstimatorSpec("robust-bmf", {"quantile": 0.995}),
            selector="evidence",
            n_folds=5,
            grid=GridSpec(kind="linear", n_kappa=6, n_v=7, upper=300.0),
            shift_scale=False,
            seed=99,
        )
        restored = FusionConfig.from_json(config.to_json())
        assert restored == config
        assert restored.config_hash() == config.config_hash()

    @pytest.mark.parametrize(
        "config, digest",
        [
            (FusionConfig(), "537c10957ded"),
            (
                FusionConfig(
                    estimator=EstimatorSpec("bmf", {"n_folds": 4}),
                    selector="evidence",
                    n_folds=5,
                    grid=GridSpec(n_kappa=6, n_v=8, upper=100.0),
                    shift_scale=False,
                    seed=7,
                ),
                "d3176290e7bf",
            ),
            (FusionConfig(selector="fixed", kappa0=2.5, v0=9.0), "0adb6ebb4084"),
        ],
    )
    def test_saved_config_keeps_its_hash(self, config, digest, tmp_path):
        from repro.io import load_config, save_config

        assert config.config_hash() == digest  # pinned: provenance records cite it
        save_config(config, tmp_path / "cfg.json")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]  # no temp left
        reloaded = load_config(tmp_path / "cfg.json")
        assert reloaded == config
        assert reloaded.config_hash() == digest

    def test_hash_changes_with_content(self):
        base = FusionConfig()
        assert base.config_hash() != base.replace(n_folds=6).config_hash()

    def test_accepts_bare_string_estimator(self):
        assert FusionConfig(estimator="MLE").estimator == EstimatorSpec("mle")

    def test_fixed_selector_requires_hyperparams(self):
        with pytest.raises(HyperParameterError):
            FusionConfig(selector="fixed")

    def test_kappa0_v0_must_pair(self):
        with pytest.raises(HyperParameterError):
            FusionConfig(kappa0=2.0)

    def test_rejects_unknown_payload_fields(self):
        payload = FusionConfig().to_dict()
        payload["typo_field"] = 1
        with pytest.raises(ConfigError, match="typo_field"):
            FusionConfig.from_dict(payload)


class TestSelectors:
    def test_available_selectors(self):
        assert {"cv", "evidence"} <= set(available_selectors())

    def test_unknown_selector_lists_available(self, synthetic_prior):
        from repro.core.hypergrid import HyperParameterGrid

        grid = HyperParameterGrid.paper_default(synthetic_prior.dim)
        with pytest.raises(UnknownEstimatorError, match="cv"):
            make_selector("simulated-annealing", synthetic_prior, grid, 4)


class _TestPriorMeanEstimator(MomentEstimator):
    """Toy plug-in: returns the prior moments, ignoring the samples."""

    name = "prior-mean"

    def __init__(self, prior):
        self.prior = prior

    def estimate(self, samples, rng=None):
        data = self._check(samples)
        return MomentEstimate(
            mean=self.prior.mean.copy(),
            covariance=self.prior.covariance.copy(),
            n_samples=data.shape[0],
            method=self.name,
            info={"plugin": True},
        )


class TestPluginEstimator:
    """A runtime-registered estimator works everywhere without code changes."""

    @pytest.fixture
    def registered(self, monkeypatch):
        # Register into a private copy so the process-wide table is restored.
        monkeypatch.setattr(
            registry_module, "_ESTIMATORS", dict(registry_module._ESTIMATORS)
        )
        register_estimator(
            "prior-mean",
            lambda prior, **kw: _TestPriorMeanEstimator(prior),
            summary="test-only plug-in",
        )
        return "prior-mean"

    def test_usable_from_pipeline(self, registered, opamp_dataset_small, rng):
        ds = opamp_dataset_small
        pipeline = FusionPipeline.fit(
            ds.early,
            ds.early_nominal,
            ds.late_nominal,
            config=FusionConfig(estimator=registered),
        )
        result = pipeline.estimate(ds.late[:12], rng=rng)
        assert result.provenance.estimator == "prior-mean"
        assert result.isotropic.method == "prior-mean"
        np.testing.assert_allclose(
            result.isotropic.mean, pipeline.prior.mean
        )

    def test_usable_from_sweep(self, registered, adc_dataset_small):
        from repro.experiments.sweep import ErrorSweep, SweepConfig

        sweep = ErrorSweep(
            adc_dataset_small,
            estimators=[registered, "mle"],
            config=SweepConfig(sample_sizes=(8,), n_repeats=2, seed=1),
        ).run()
        assert set(sweep.methods) == {"prior-mean", "mle"}

    def test_usable_from_cli(self, registered, adc_dataset_small, tmp_path, capsys):
        from repro.cli import main
        from repro.io import save_dataset

        bank = tmp_path / "bank.npz"
        save_dataset(adc_dataset_small, bank)
        code = main(
            ["fuse", str(bank), "--late-samples", "8", "--estimator", registered]
        )
        assert code == 0
        assert "estimator=prior-mean" in capsys.readouterr().out


class TestConfigDrivenReproducibility:
    """Acceptance: config -> run -> save -> reload reproduces identical moments."""

    def test_round_trip_reproduces_moments(self, adc_dataset_small, tmp_path):
        from repro.io import load_config, load_result, save_config, save_result

        ds = adc_dataset_small
        config = FusionConfig(estimator="bmf", selector="cv", n_folds=3, seed=42)
        cfg_path = tmp_path / "cfg.json"
        save_config(config, cfg_path)
        reloaded_config = load_config(cfg_path)
        assert reloaded_config == config  # lossless

        def run(cfg):
            pipeline = FusionPipeline.fit(
                ds.early, ds.early_nominal, ds.late_nominal, config=cfg
            )
            # rng comes from cfg.seed: reproducible from the config alone.
            return pipeline.estimate(ds.late[:10])

        first = run(config)
        second = run(reloaded_config)
        np.testing.assert_array_equal(first.mean, second.mean)
        np.testing.assert_array_equal(first.covariance, second.covariance)
        assert first.provenance.seed == 42
        assert first.provenance.config_hash == config.config_hash()

        result_path = tmp_path / "result.json"
        save_result(first, result_path)
        restored = load_result(result_path)
        np.testing.assert_array_equal(restored.mean, first.mean)
        np.testing.assert_array_equal(restored.covariance, first.covariance)
        np.testing.assert_array_equal(
            restored.isotropic.mean, first.isotropic.mean
        )
        assert restored.provenance == first.provenance
        np.testing.assert_array_equal(
            restored.transform.scale, first.transform.scale
        )
