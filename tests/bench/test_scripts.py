"""The ``scripts/bench_*.py`` shims: each appends one entry, same keys.

Each script runs at small sizes into a temporary trajectory.  Its entry's
``results`` keys must match the latest entry the script wrote to the
committed ``BENCH_<name>.json``, so a refactor cannot silently fork a
trajectory.  ``baseline`` is optional (``--baseline``) and not compared.
"""

import importlib
from pathlib import Path

import pytest

from repro.bench import load_trajectory

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Small-size flags per script (the serving gate needs shards 1 and 4).
SMALL = {
    "mc": [
        "--opamp-samples", "64", "--adc-samples", "24", "--ota-samples", "64",
        "--die-seed-dies", "16", "--repeats", "1",
    ],
    "cv": ["--n-samples", "16", "32", "--repeats", "1"],
    "serving": ["--smoke", "--shards", "1", "4"],
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_script_appends_one_entry_with_committed_keys(name, tmp_path):
    script = importlib.import_module(f"scripts.bench_{name}")
    out = tmp_path / f"BENCH_{name}.json"
    assert script.main([*SMALL[name], "--out", str(out)]) == 0

    (entry,) = load_trajectory(out, name)["history"]
    section = entry["config"].get("section")
    committed = [
        e
        for e in load_trajectory(REPO_ROOT / f"BENCH_{name}.json", name)["history"]
        if e["config"].get("section") == section
    ]
    assert set(entry["results"]) == set(committed[-1]["results"]) - {"baseline"}


def test_serving_smoke_refuses_shards_without_its_gate(tmp_path):
    """--smoke gates 4 shards against 1; without both it must not pass."""
    script = importlib.import_module("scripts.bench_serving")
    out = tmp_path / "BENCH_serving.json"
    with pytest.raises(SystemExit) as exc:
        script.main(["--smoke", "--shards", "2", "8", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
