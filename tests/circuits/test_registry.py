"""Tests for the circuit registry and registry-dispatched generation."""

import numpy as np
import pytest

from repro.circuits.adc import FlashADCDesign
from repro.circuits.montecarlo import (
    _dataset_cache_key,
    dataset_cache_path,
    generate_adc_dataset,
    generate_opamp_dataset,
)
from repro.circuits.opamp import OpAmpDesign
from repro.circuits.ota import generate_ota_dataset
from repro.circuits.registry import circuit_names, generate_dataset, get_circuit
from repro.circuits.variants import CircuitVariant
from repro.exceptions import ConfigError


class TestRegistryContents:
    def test_all_circuits_registered(self):
        assert circuit_names() == ("opamp", "adc", "ota", "r2r_dac", "svf", "sar_adc")

    def test_unknown_circuit_lists_registry(self):
        with pytest.raises(ConfigError, match="unknown circuit"):
            get_circuit("dac")
        with pytest.raises(ConfigError, match="r2r_dac"):
            get_circuit("dac")

    def test_entry_metadata(self):
        entry = get_circuit("opamp")
        assert entry.default_samples == 5000


class TestLegacyCachePaths:
    """The registry refactor must not move any pre-existing cache entry.

    The hashes below were captured from the pre-registry generators; if
    either changes, every previously cached dataset silently regenerates
    — treat a failure here as a cache-key regression, not a fixture to
    update.
    """

    def test_opamp_default_key_is_stable(self):
        key = _dataset_cache_key("opamp", 5000, 2015, OpAmpDesign())
        assert key == (
            "78f945944217597035cb9cd917cd278bf414e79796a821f68b79fa1cab5a7987"
        )

    def test_adc_default_key_is_stable(self):
        key = _dataset_cache_key("adc", 1000, 2015, FlashADCDesign())
        assert key == (
            "cc830679a8d21bf9ba6e9366f01c3c057bfb333f20199a20d8fade2cc884ba95"
        )

    def test_absent_extra_matches_legacy(self):
        # extra=None and extra={} must both take the pre-variant code path.
        design = FlashADCDesign()
        legacy = _dataset_cache_key("adc", 1000, 2015, design)
        assert _dataset_cache_key("adc", 1000, 2015, design, None) == legacy
        assert _dataset_cache_key("adc", 1000, 2015, design, {}) == legacy

    def test_variant_extra_changes_key(self):
        design = FlashADCDesign()
        extra = CircuitVariant(corner="SS").as_config()
        assert _dataset_cache_key("adc", 1000, 2015, design, extra) != (
            _dataset_cache_key("adc", 1000, 2015, design)
        )

    def test_cache_path_filename_shape(self, tmp_path):
        path = dataset_cache_path("opamp", 5000, 2015, OpAmpDesign(), tmp_path)
        assert path.parent == tmp_path
        assert path.name == "opamp-78f945944217597035cb.npz"


class TestWrapperEquivalence:
    def test_adc_wrapper_matches_registry(self, tmp_path):
        via_wrapper = generate_adc_dataset(
            n_samples=16, seed=7, cache_dir=tmp_path, use_cache=False
        )
        via_registry = generate_dataset(
            "adc", n_samples=16, seed=7, cache_dir=tmp_path, use_cache=False
        )
        assert np.array_equal(via_wrapper.early, via_registry.early)
        assert np.array_equal(via_wrapper.late, via_registry.late)
        assert via_wrapper.metric_names == via_registry.metric_names

    def test_opamp_wrapper_matches_registry(self, tmp_path):
        via_wrapper = generate_opamp_dataset(
            n_samples=12, seed=3, cache_dir=tmp_path, use_cache=False
        )
        via_registry = generate_dataset(
            "opamp", n_samples=12, seed=3, cache_dir=tmp_path, use_cache=False
        )
        assert np.array_equal(via_wrapper.early, via_registry.early)
        assert np.array_equal(via_wrapper.late, via_registry.late)

    def test_ota_wrapper_matches_registry(self, tmp_path):
        via_wrapper = generate_ota_dataset(
            n_samples=12, seed=3, cache_dir=tmp_path, use_cache=False
        )
        via_registry = generate_dataset(
            "ota", n_samples=12, seed=3, cache_dir=tmp_path, use_cache=False
        )
        assert np.array_equal(via_wrapper.early, via_registry.early)
        assert np.array_equal(via_wrapper.late, via_registry.late)
        assert np.array_equal(via_wrapper.early_nominal, via_registry.early_nominal)
        assert np.array_equal(via_wrapper.late_nominal, via_registry.late_nominal)

    def test_wrapper_and_registry_share_cache_entry(self, tmp_path):
        generate_adc_dataset(n_samples=10, seed=5, cache_dir=tmp_path)
        entries = list(tmp_path.glob("*.npz"))
        assert len(entries) == 1
        generate_dataset("adc", n_samples=10, seed=5, cache_dir=tmp_path)
        assert list(tmp_path.glob("*.npz")) == entries


class TestDispatchValidation:
    def test_unknown_circuit_raises(self):
        with pytest.raises(ConfigError, match="unknown circuit"):
            generate_dataset("flash9000", n_samples=8)

    def test_variant_changes_cache_path_and_data(self, tmp_path):
        base = generate_dataset("adc", n_samples=16, seed=7, cache_dir=tmp_path)
        varied = generate_dataset(
            "adc",
            n_samples=16,
            seed=7,
            variant=CircuitVariant(corner="SS"),
            cache_dir=tmp_path,
        )
        assert len(list(tmp_path.glob("*.npz"))) == 2
        assert not np.array_equal(base.late, varied.late)

    def test_default_variant_keeps_legacy_path(self, tmp_path):
        generate_dataset(
            "adc", n_samples=16, seed=7, variant=CircuitVariant(), cache_dir=tmp_path
        )
        expected = dataset_cache_path("adc", 16, 7, FlashADCDesign(), tmp_path)
        assert expected.exists()
