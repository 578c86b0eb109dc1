"""Tests for sweep expansion and cache-routed scenario compilation."""

import dataclasses
from pathlib import Path

import pytest

from repro.exceptions import ConfigError
from repro.scenarios import (
    LIBRARY_VERSION,
    ScenarioDoc,
    ScenarioSpec,
    compile_all,
    compile_instance,
    expand,
    parse_scenario_doc,
)
from repro.schemas import SCENARIO_SCHEMA


def _doc(scenarios):
    return parse_scenario_doc(
        {
            "schema": SCENARIO_SCHEMA,
            "library": LIBRARY_VERSION,
            "scenarios": scenarios,
        }
    )


GRID = [
    {
        "name": "grid",
        "circuit": "adc",
        "knobs": {"samples": 8},
        "sweep": {"mismatch": ["nominal", "high"], "corner": ["TT", "SS"]},
    }
]


class TestExpansion:
    def test_cross_product_size_and_order(self):
        instances = expand(_doc(GRID))
        # Axes iterate in sorted-name order (corner before mismatch),
        # values in listed order, slowest axis first.
        assert [i.name for i in instances] == [
            "grid@corner=TT,mismatch=nominal",
            "grid@corner=TT,mismatch=high",
            "grid@corner=SS,mismatch=nominal",
            "grid@corner=SS,mismatch=high",
        ]

    def test_point_scenario_keeps_bare_name(self):
        instances = expand(_doc([{"name": "point", "circuit": "ota"}]))
        assert [i.name for i in instances] == ["point"]
        assert instances[0].n_samples == 2000  # registry default budget

    def test_document_order_preserved_across_scenarios(self):
        doc = _doc(
            [
                {"name": "b-first", "circuit": "ota"},
                {"name": "a-second", "circuit": "adc"},
            ]
        )
        assert [i.name for i in expand(doc)] == ["b-first", "a-second"]

    def test_expansion_is_deterministic(self):
        first = expand(_doc(GRID))
        second = expand(_doc(GRID))
        assert [i.name for i in first] == [i.name for i in second]
        assert [i.config_hash for i in first] == [i.config_hash for i in second]

    def test_hashes_distinct_across_points(self):
        hashes = [i.config_hash for i in expand(_doc(GRID))]
        assert len(set(hashes)) == len(hashes)

    def test_hash_tracks_sample_budget(self):
        inst = expand(_doc(GRID))[0]
        resized = dataclasses.replace(inst, n_samples=inst.n_samples + 1)
        assert resized.config_hash != inst.config_hash

    def test_knob_resolution_applied(self):
        inst = expand(_doc(GRID))[3]  # corner=SS, mismatch=high
        assert inst.variant.corner == "SS"
        assert inst.variant.mismatch_scale == 1.5
        assert inst.n_samples == 8

    def test_unknown_circuit_rejected(self):
        with pytest.raises(ConfigError, match="unknown circuit"):
            expand(_doc([{"name": "s", "circuit": "nope"}]))

    def test_unknown_knob_rejected(self):
        with pytest.raises(ConfigError, match="has no knob"):
            expand(_doc([{"name": "s", "circuit": "adc", "knobs": {"gain": "x"}}]))

    def test_duplicate_expanded_names_rejected(self):
        # Unreachable through the parser (names are unique and cannot
        # contain '@'), but expand() also guards hand-built documents.
        spec = ScenarioSpec(name="dup", circuit="ota")
        doc = ScenarioDoc(
            schema=SCENARIO_SCHEMA,
            library=LIBRARY_VERSION,
            scenarios=(spec, spec),
        )
        with pytest.raises(ConfigError, match="duplicate expanded instance name"):
            expand(doc)


class TestCompilation:
    @pytest.fixture(scope="class")
    def instances(self):
        return expand(_doc(GRID))

    def test_compile_instance_reports(self, instances, tmp_path):
        dataset, report = compile_instance(instances[0], cache_dir=tmp_path)
        assert dataset.n_samples == 8
        assert report["name"] == instances[0].name
        assert report["config_hash"] == instances[0].config_hash
        assert report["cache_hit"] is False
        assert report["n_samples"] == 8
        assert report["dim"] == dataset.dim

    def test_recompile_is_pure_cache_service(self, instances, tmp_path):
        cold = compile_all(instances, cache_dir=tmp_path)
        assert [r["cache_hit"] for r in cold] == [False] * len(instances)
        warm = compile_all(instances, cache_dir=tmp_path)
        assert [r["cache_hit"] for r in warm] == [True] * len(instances)
        assert [r["cache_path"] for r in warm] == [r["cache_path"] for r in cold]

    @pytest.mark.parametrize("index", [0, 3])  # identity and SS/high variant
    def test_corrupt_entry_reports_a_miss_and_rebuilds(self, instances, tmp_path, index):
        inst = instances[index]
        _, cold = compile_instance(inst, cache_dir=tmp_path)
        path = Path(cold["cache_path"])
        path.write_bytes(b"garbage")
        rebuilt, report = compile_instance(inst, cache_dir=tmp_path)
        assert report["cache_hit"] is False
        assert report["cache_path"] == cold["cache_path"]
        fresh, _ = compile_instance(inst, cache_dir=tmp_path / "unused", use_cache=False)
        for name in ("early", "late", "early_nominal", "late_nominal"):
            assert getattr(rebuilt, name).tobytes() == getattr(fresh, name).tobytes()
        served, warm = compile_instance(inst, cache_dir=tmp_path)
        assert warm["cache_hit"] is True
        assert served.late.tobytes() == fresh.late.tobytes()

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_worker_count_does_not_change_reports(self, instances, tmp_path, jobs):
        compile_all(instances, n_jobs=jobs, cache_dir=tmp_path)  # cold fill
        serial = compile_all(instances, n_jobs=1, cache_dir=tmp_path)
        sharded = compile_all(instances, n_jobs=jobs, cache_dir=tmp_path)
        assert sharded == serial
        assert [r["cache_hit"] for r in sharded] == [True] * len(instances)

    def test_empty_list_rejected(self):
        with pytest.raises(ConfigError, match="at least one instance"):
            compile_all([])

    def test_use_cache_false_bypasses_cache(self, instances, tmp_path):
        _, report = compile_instance(
            instances[0], cache_dir=tmp_path / "empty", use_cache=False
        )
        assert report["cache_hit"] is False
        assert not (tmp_path / "empty").exists()
