"""Tests for the end-to-end fusion pipeline (Algorithm 1 + Sec. 4.1)."""

from types import SimpleNamespace

import numpy as np
import pytest

import repro.core.registry as registry_module
from repro.core.crossval import TwoDimensionalCV
from repro.core.hypergrid import HyperParameterGrid
from repro.core.pipeline import FusionPipeline, FusionProvenance
from repro.core.preprocessing import ShiftScaleTransform
from repro.core.prior import PriorKnowledge
from repro.core.registry import (
    EstimatorSpec,
    FusionConfig,
    GridSpec,
    available_selectors,
    make_estimator,
    make_selector,
    register_selector,
)
from repro.exceptions import ConfigError, DimensionError
from repro.linalg.validation import is_spd
from repro.stats.multivariate_gaussian import MultivariateGaussian


@pytest.fixture
def stage_pair(gaussian5, rng):
    """Synthetic early/late stage pair with a nominal shift."""
    early = gaussian5.sample(400, rng)
    shift = np.full(5, 2.0)
    late_truth = MultivariateGaussian(gaussian5.mean + shift, gaussian5.covariance)
    late = late_truth.sample(200, rng)
    early_nom = gaussian5.mean
    late_nom = gaussian5.mean + shift
    return early, late, early_nom, late_nom, late_truth


#: Selection policy -> (pipeline config, estimator run through
#: ``estimate_with`` or None, search selector the hand-built flow runs or
#: None, provenance selector).  Pinned cases use (kappa0, v0) = (2, 15).
_POLICIES = {
    "cv": (FusionConfig(selector="cv"), None, "cv", "cv"),
    "evidence": (FusionConfig(selector="evidence"), None, "evidence", "evidence"),
    "fixed": (FusionConfig(selector="fixed", kappa0=2.0, v0=15.0), None, None, "fixed"),
    "spec-pinned": (
        FusionConfig(estimator=EstimatorSpec("bmf", {"kappa0": 2.0, "v0": 15.0})),
        None,
        None,
        "fixed",
    ),
    "estimate_with-mle": (FusionConfig(), "mle", None, None),
}


class TestFit:
    def test_fit_builds_isotropic_prior(self, stage_pair):
        early, _late, e_nom, l_nom, _truth = stage_pair
        pipeline = FusionPipeline.fit(early, e_nom, l_nom)
        # The prior lives in the isotropic space: variances near 1.
        assert np.allclose(np.diag(pipeline.prior.covariance), 1.0, atol=0.2)

    def test_dim_mismatch_raises(self, stage_pair, spd5):
        early, _late, e_nom, l_nom, _truth = stage_pair
        transform = ShiftScaleTransform.fit(early, e_nom, l_nom)
        prior = PriorKnowledge(np.zeros(3), np.eye(3))
        with pytest.raises(DimensionError):
            FusionPipeline(transform, prior)


class TestEstimate:
    def test_physical_units_returned(self, stage_pair, rng):
        early, late, e_nom, l_nom, truth = stage_pair
        pipeline = FusionPipeline.fit(early, e_nom, l_nom)
        result = pipeline.estimate(late[:16], rng=rng)
        # The fused mean must be near the late-stage truth, in raw units.
        assert np.linalg.norm(result.mean - truth.mean) < 2.0
        assert is_spd(result.covariance)

    def test_info_has_hyperparams(self, stage_pair, rng):
        early, late, e_nom, l_nom, _truth = stage_pair
        pipeline = FusionPipeline.fit(early, e_nom, l_nom)
        result = pipeline.estimate(late[:16], rng=rng)
        assert "kappa0" in result.info and "v0" in result.info

    def test_pinned_hyperparams_respected(self, stage_pair, rng):
        early, late, e_nom, l_nom, _truth = stage_pair
        pipeline = FusionPipeline.fit(
            early, e_nom, l_nom, config=FusionConfig(selector="fixed", kappa0=3.0, v0=20.0)
        )
        result = pipeline.estimate(late[:16], rng=rng)
        assert result.info == {"kappa0": 3.0, "v0": 20.0}

    def test_pinned_matches_manual_flow(self, stage_pair):
        """Pipeline == transform -> select -> build -> estimate -> inverse,
        bit for bit, under every selection policy."""
        early, late, e_nom, l_nom, _truth = stage_pair
        subset = late[:12]
        transform = ShiftScaleTransform.fit(early, e_nom, l_nom)
        prior = PriorKnowledge.from_samples(transform.transform(early, "early"))
        late_iso = transform.transform(subset, "late")
        for policy, (config, swap_to, search, prov_selector) in _POLICIES.items():
            pipeline = FusionPipeline.fit(early, e_nom, l_nom, config=config)
            if swap_to is None:
                result = pipeline.estimate(subset, rng=np.random.default_rng(4))
            else:
                result = pipeline.estimate_with(
                    swap_to, subset, rng=np.random.default_rng(4)
                )
                config = config.replace(estimator=EstimatorSpec(swap_to))

            rng = np.random.default_rng(4)
            kappa0 = v0 = score = None
            if search is not None:
                grid = HyperParameterGrid.paper_default(prior.dim)
                picked = make_selector(search, prior, grid, 4).select(late_iso, rng=rng)
                kappa0, v0 = float(picked.kappa0), float(picked.v0)
                score = getattr(
                    picked, "best_score", getattr(picked, "best_log_evidence", None)
                )
            elif prov_selector == "fixed":
                kappa0, v0 = 2.0, 15.0
            estimator = make_estimator(
                config.estimator, prior=prior, kappa0=kappa0, v0=v0
            )
            iso = estimator.estimate(late_iso, rng=rng)
            mean_phys, cov_phys = transform.inverse_transform_moments(
                iso.mean, iso.covariance, "late"
            )
            diagnostics = dict(iso.info)
            if score is not None:
                diagnostics["selection_score"] = float(score)
            expected = FusionProvenance(
                estimator=config.estimator.name,
                selector=prov_selector,
                kappa0=kappa0,
                v0=v0,
                config_hash=config.config_hash(),
                n_samples=12,
                diagnostics=diagnostics,
            )
            np.testing.assert_array_equal(result.mean, mean_phys, err_msg=policy)
            np.testing.assert_array_equal(result.covariance, cov_phys, err_msg=policy)
            assert result.provenance.to_dict() == expected.to_dict(), policy

    def test_mle_baseline_through_same_preprocessing(self, stage_pair):
        early, late, e_nom, l_nom, _truth = stage_pair
        pipeline = FusionPipeline.fit(early, e_nom, l_nom)
        result = pipeline.estimate_with("mle", late[:32])
        assert result.isotropic.method == "mle"
        expected_mean = late[:32].mean(axis=0)
        assert np.allclose(result.mean, expected_mean, atol=1e-8)

    def test_bmf_beats_mle_on_cov_small_n(self, stage_pair, rng):
        early, late, e_nom, l_nom, truth = stage_pair
        pipeline = FusionPipeline.fit(early, e_nom, l_nom)
        wins = 0
        for k in range(10):
            idx = rng.choice(late.shape[0], size=8, replace=False)
            bmf = pipeline.estimate(late[idx], rng=rng)
            mle = pipeline.estimate_with("mle", late[idx])
            bmf_err = np.linalg.norm(bmf.covariance - truth.covariance)
            mle_err = np.linalg.norm(mle.covariance - truth.covariance)
            wins += bmf_err < mle_err
        assert wins >= 8


class TestProvenance:
    def test_typed_provenance_fields(self, stage_pair, rng):
        early, late, e_nom, l_nom, _truth = stage_pair
        pipeline = FusionPipeline.fit(early, e_nom, l_nom)
        result = pipeline.estimate(late[:16], rng=rng)
        prov = result.provenance
        assert prov.estimator == "bmf"
        assert prov.selector == "cv"
        assert prov.kappa0 is not None and prov.kappa0 > 0.0
        assert prov.v0 is not None and prov.v0 > 5.0
        assert prov.n_samples == 16
        assert isinstance(prov.config_hash, str) and len(prov.config_hash) == 12

    def test_provenance_dict_round_trip(self, stage_pair, rng):
        early, late, e_nom, l_nom, _truth = stage_pair
        pipeline = FusionPipeline.fit(early, e_nom, l_nom)
        prov = pipeline.estimate(late[:12], rng=rng).provenance
        assert FusionProvenance.from_dict(prov.to_dict()) == prov

    def test_seed_recorded_only_when_config_drives_rng(self, stage_pair):
        early, late, e_nom, l_nom, _truth = stage_pair
        config = FusionConfig(seed=11)
        pipeline = FusionPipeline.fit(early, e_nom, l_nom, config=config)
        assert pipeline.estimate(late[:12]).provenance.seed == 11
        # Caller-supplied rng: the config seed did not drive this run.
        explicit = pipeline.estimate(late[:12], rng=np.random.default_rng(0))
        assert explicit.provenance.seed is None


class TestFusionPipeline:
    def test_estimate_with_swaps_estimator(self, stage_pair, rng):
        early, late, e_nom, l_nom, _truth = stage_pair
        pipeline = FusionPipeline.fit(early, e_nom, l_nom)
        for name in ("mle", "oas", "robust-bmf"):
            result = pipeline.estimate_with(name, late[:16], rng=rng)
            assert result.provenance.estimator == name
            assert is_spd(result.covariance)

    def test_spec_params_pin_selection(self, stage_pair, rng):
        early, late, e_nom, l_nom, _truth = stage_pair
        pipeline = FusionPipeline.fit(early, e_nom, l_nom)
        spec = EstimatorSpec("bmf", {"kappa0": 7.0, "v0": 30.0})
        result = pipeline.estimate_with(spec, late[:12], rng=rng)
        assert result.provenance.selector == "fixed"
        assert result.provenance.kappa0 == 7.0
        assert result.provenance.v0 == 30.0

    def test_shift_scale_false_runs_raw(self, stage_pair, rng):
        early, late, _e_nom, _l_nom, _truth = stage_pair
        config = FusionConfig(estimator="mle", shift_scale=False)
        pipeline = FusionPipeline.fit(early, config=config)
        assert pipeline.transform is None
        result = pipeline.estimate(late[:20], rng=rng)
        assert result.transform is None
        np.testing.assert_allclose(result.mean, late[:20].mean(axis=0))

    def test_shift_scale_true_needs_nominals(self, stage_pair):
        early, _late, _e_nom, _l_nom, _truth = stage_pair
        with pytest.raises(ConfigError, match="early_nominal and late_nominal"):
            FusionPipeline.fit(early)

    def test_evidence_selector_via_config(self, stage_pair, rng):
        early, late, e_nom, l_nom, _truth = stage_pair
        config = FusionConfig(selector="evidence")
        pipeline = FusionPipeline.fit(early, e_nom, l_nom, config=config)
        result = pipeline.estimate(late[:12], rng=rng)
        assert result.provenance.selector == "evidence"
        assert "selection_score" in result.provenance.diagnostics

    def test_registered_selector_reaches_config_and_bmf_spec(
        self, stage_pair, monkeypatch
    ):
        """One dispatch: a registered selector serves the pipeline's config
        and a ``bmf`` spec's ``selector`` param (the way ``ErrorSweep`` runs
        it) alike, with the same (kappa0, v0) from the same generator."""
        early, late, e_nom, l_nom, _truth = stage_pair
        # Register into a private copy so the process-wide table is restored.
        monkeypatch.setattr(
            registry_module, "_SELECTORS", dict(registry_module._SELECTORS)
        )

        class RandomCorner:
            """Draws a grid point from ``rng``: no built-in selector does."""

            def __init__(self, prior, grid, n_folds):
                self.grid = grid

            def select(self, data, rng=None):
                i = rng.integers(self.grid.kappa0_values.size)
                j = rng.integers(self.grid.v0_values.size)
                return SimpleNamespace(
                    kappa0=self.grid.kappa0_values[i], v0=self.grid.v0_values[j]
                )

        register_selector("random-corner", RandomCorner)
        config = FusionConfig(selector="random-corner")
        pipeline = FusionPipeline.fit(early, e_nom, l_nom, config=config)
        via_config = pipeline.estimate(late[:12], rng=np.random.default_rng(9))

        spec = EstimatorSpec("bmf", {"selector": "random-corner"})
        late_iso = pipeline.transform.transform(late[:12], "late")
        via_spec = spec(pipeline.prior).estimate(late_iso, rng=np.random.default_rng(9))

        assert via_config.provenance.selector == "random-corner"
        assert (via_config.provenance.kappa0, via_config.provenance.v0) == (
            via_spec.info["kappa0"],
            via_spec.info["v0"],
        )
        np.testing.assert_array_equal(via_config.isotropic.mean, via_spec.mean)
        np.testing.assert_array_equal(
            via_config.isotropic.covariance, via_spec.covariance
        )

    @pytest.mark.parametrize("name", available_selectors())
    def test_config_grid_and_folds_reach_every_selector(
        self, name, stage_pair, monkeypatch
    ):
        """``FusionConfig.grid`` and ``n_folds`` are what the search runs on:
        the chosen (kappa0, v0) lies on the configured grid, and the CV
        scores ``Q`` folds."""
        early, late, e_nom, l_nom, _truth = stage_pair
        built = []
        table = dict(registry_module._SELECTORS)
        factory = table[name]

        def recording(prior, grid, n_folds):
            selector = factory(prior, grid, n_folds)
            built.append((grid, n_folds, selector))
            return selector

        table[name] = recording
        monkeypatch.setattr(registry_module, "_SELECTORS", table)
        spec = GridSpec("linear", n_kappa=3, n_v=3, upper=50.0)
        config = FusionConfig(selector=name, n_folds=8, grid=spec)
        pipeline = FusionPipeline.fit(early, e_nom, l_nom, config=config)
        prov = pipeline.estimate(late[:24], rng=np.random.default_rng(5)).provenance

        expected = spec.materialize(pipeline.prior.dim)
        [(grid, n_folds, selector)] = built
        np.testing.assert_array_equal(grid.kappa0_values, expected.kappa0_values)
        np.testing.assert_array_equal(grid.v0_values, expected.v0_values)
        assert n_folds == 8
        assert prov.selector == name
        assert prov.kappa0 in expected.kappa0_values.tolist()
        assert prov.v0 in expected.v0_values.tolist()
        if isinstance(selector, TwoDimensionalCV):
            assert selector.n_folds == 8
