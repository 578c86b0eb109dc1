"""Disk cache round-trips for the paired-dataset generators."""

import struct
import zipfile

import numpy as np
import pytest

from repro.circuits import montecarlo
from repro.circuits.adc import FlashADC, FlashADCDesign
from repro.circuits.montecarlo import (
    dataset_cache_path,
    generate_adc_dataset,
    generate_opamp_dataset,
)
from repro.io import save_dataset

N = 12


@pytest.fixture
def counting_adc_builds(monkeypatch):
    """Count how many times the ADC bank is actually simulated."""
    calls = {"n": 0}
    original = FlashADC.simulate_batch

    def counted(self, *args, **kwargs):
        calls["n"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(FlashADC, "simulate_batch", counted)
    return calls


class TestCacheRoundTrip:
    def test_second_identical_call_hits_cache(self, tmp_path, counting_adc_builds):
        first = generate_adc_dataset(n_samples=N, cache_dir=tmp_path)
        assert counting_adc_builds["n"] == 2  # early + late stage
        second = generate_adc_dataset(n_samples=N, cache_dir=tmp_path)
        assert counting_adc_builds["n"] == 2  # served from disk, no resim
        np.testing.assert_array_equal(first.early, second.early)
        np.testing.assert_array_equal(first.late, second.late)
        np.testing.assert_array_equal(first.early_nominal, second.early_nominal)
        np.testing.assert_array_equal(first.late_nominal, second.late_nominal)
        assert first.metric_names == second.metric_names

    def test_opamp_cache_round_trip(self, tmp_path):
        first = generate_opamp_dataset(n_samples=N, cache_dir=tmp_path)
        path = dataset_cache_path(
            "opamp", N, 2015, montecarlo.OpAmpDesign(), tmp_path
        )
        assert path.exists()
        second = generate_opamp_dataset(n_samples=N, cache_dir=tmp_path)
        np.testing.assert_array_equal(first.early, second.early)
        np.testing.assert_array_equal(first.late, second.late)


class TestCacheInvalidation:
    def test_config_changes_miss_the_cache(self, tmp_path, counting_adc_builds):
        generate_adc_dataset(n_samples=N, cache_dir=tmp_path)
        assert counting_adc_builds["n"] == 2
        generate_adc_dataset(n_samples=N + 1, cache_dir=tmp_path)
        assert counting_adc_builds["n"] == 4  # n_samples change -> rebuild
        generate_adc_dataset(n_samples=N, seed=7, cache_dir=tmp_path)
        assert counting_adc_builds["n"] == 6  # seed change -> rebuild
        generate_adc_dataset(
            n_samples=N,
            design=FlashADCDesign(noise_rms=1e-3),
            cache_dir=tmp_path,
        )
        assert counting_adc_builds["n"] == 8  # design change -> rebuild

    def test_distinct_configs_get_distinct_files(self, tmp_path):
        base = FlashADCDesign()
        changed = FlashADCDesign(noise_rms=1e-3)
        assert dataset_cache_path("adc", N, 2015, base, tmp_path) != (
            dataset_cache_path("adc", N, 2015, changed, tmp_path)
        )
        assert dataset_cache_path("adc", N, 2015, base, tmp_path) != (
            dataset_cache_path("adc", N, 7, base, tmp_path)
        )

    def test_use_cache_false_bypasses(self, tmp_path, counting_adc_builds):
        generate_adc_dataset(n_samples=N, cache_dir=tmp_path, use_cache=False)
        generate_adc_dataset(n_samples=N, cache_dir=tmp_path, use_cache=False)
        assert counting_adc_builds["n"] == 4
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_entry_is_regenerated(self, tmp_path):
        first = generate_adc_dataset(n_samples=N, cache_dir=tmp_path)
        path = dataset_cache_path("adc", N, 2015, FlashADCDesign(), tmp_path)
        path.write_bytes(b"not an npz")
        second = generate_adc_dataset(n_samples=N, cache_dir=tmp_path)
        np.testing.assert_array_equal(first.late, second.late)


class TestCacheEnvironment:
    def test_env_var_selects_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv(montecarlo.DATASET_CACHE_ENV, str(tmp_path))
        generate_adc_dataset(n_samples=N)
        assert any(p.suffix == ".npz" for p in tmp_path.iterdir())


def assert_bit_identical(a, b):
    for name in ("early", "late", "early_nominal", "late_nominal"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes(), name
    assert a.metric_names == b.metric_names


def member_data_span(path, member):
    """Byte range of ``member``'s (stored) data inside the zip at ``path``."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    raw = path.read_bytes()
    name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
    start = info.header_offset + 30 + name_len + extra_len
    return start, start + info.compress_size


class TestStoredLayout:
    """Banks are written uncompressed; older deflated entries still load."""

    def test_every_member_is_stored(self, tmp_path):
        bank = generate_adc_dataset(n_samples=N, use_cache=False)
        path = tmp_path / "bank.npz"
        save_dataset(bank, path)
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
        assert sorted(i.filename for i in infos) == sorted(
            f"{name}.npy"
            for name in ("early", "late", "early_nominal", "late_nominal", "metric_names")
        )
        assert {i.compress_type for i in infos} == {zipfile.ZIP_STORED}

    def test_deflated_entry_from_older_writer_is_a_hit(
        self, tmp_path, counting_adc_builds
    ):
        fresh = generate_adc_dataset(n_samples=N, use_cache=False)
        counting_adc_builds["n"] = 0
        path = dataset_cache_path("adc", N, 2015, FlashADCDesign(), tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            early=fresh.early,
            late=fresh.late,
            early_nominal=fresh.early_nominal,
            late_nominal=fresh.late_nominal,
            metric_names=np.array(fresh.metric_names, dtype=np.str_),
        )
        with zipfile.ZipFile(path) as archive:
            assert archive.getinfo("early.npy").compress_type == zipfile.ZIP_DEFLATED
        served = generate_adc_dataset(n_samples=N, cache_dir=tmp_path)
        assert counting_adc_builds["n"] == 0
        assert_bit_identical(served, fresh)

    @pytest.mark.parametrize("member", ["early.npy", "late.npy"])
    def test_flipped_byte_in_a_stored_member_is_rebuilt(
        self, tmp_path, counting_adc_builds, member
    ):
        first = generate_adc_dataset(n_samples=N, cache_dir=tmp_path)
        assert counting_adc_builds["n"] == 2
        path = dataset_cache_path("adc", N, 2015, FlashADCDesign(), tmp_path)
        start, stop = member_data_span(path, member)
        raw = bytearray(path.read_bytes())
        raw[stop - 3] ^= 0x01  # one mantissa bit of the last float64
        path.write_bytes(bytes(raw))
        rebuilt = generate_adc_dataset(n_samples=N, cache_dir=tmp_path)
        assert counting_adc_builds["n"] == 4  # CRC-32 mismatch -> rebuilt
        assert_bit_identical(rebuilt, first)
        served = generate_adc_dataset(n_samples=N, cache_dir=tmp_path)
        assert counting_adc_builds["n"] == 4  # the rebuild was written back
        assert_bit_identical(served, first)
