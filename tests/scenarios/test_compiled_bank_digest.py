"""Pin the bytes of one compiled ``ams_fleet`` bank per circuit.

Each circuit's banks must stay byte-identical when its batch engine is
reworked, or every cached dataset silently changes meaning.  One
instance per registry circuit is compiled into a throwaway cache, and
one sha256 runs over every bank's early, late and nominal bytes.  The
instances sit off the typical corner, so the process-sample circuits
re-centre their draws and the die-seed circuits shift their designs.

``DIGEST`` was computed before process draws became array-backed, while
each nominal die still came from a per-die engine.  It stays asserted with
the nominal dies taken from that engine's twin in ``loop_oracle.py``,
which proves every early/late byte unchanged.  ``PRODUCTION_DIGEST`` pins
the same banks with the nominal dies of ``simulate_batch``.
"""

import hashlib

import numpy as np

from repro.scenarios import builtin_document_path, compile_instance, expand
from repro.scenarios.spec import load_scenario_doc

from tests.circuits.loop_oracle import use_oracle_nominals

#: One ``builtin:ams_fleet`` instance per registry circuit.
INSTANCES = (
    "flash-adc-corners@corner=SS,mismatch=high",
    "r2r-dac-corners@corner=FS,divergence=severe",
    "sar-adc-corners@corner=SF,mismatch=extreme",
    "svf-corners@corner=FF,q=high",
    "opamp-corners@compensation=strong,corner=SF",
    "ota-variation@divergence=mild,mismatch=high",
)

DIGEST = "cd23bfcb6045475c51b7babb17c21fa9527c89e5ec721414b15a3f9eeabdd498"

PRODUCTION_DIGEST = "382cc9b3b4624bc1af9b5b9bf1e72319ec692c21ff3d13532fb1e3ad6d78d85f"


def fleet_digest(tmp_path) -> str:
    doc = load_scenario_doc(builtin_document_path("ams_fleet"))
    by_name = {inst.name: inst for inst in expand(doc)}
    assert {by_name[name].circuit for name in INSTANCES} == {
        "adc", "r2r_dac", "sar_adc", "svf", "opamp", "ota"
    }
    digest = hashlib.sha256()
    for name in INSTANCES:
        dataset, _ = compile_instance(by_name[name], cache_dir=tmp_path)
        for array in (
            dataset.early, dataset.late, dataset.early_nominal, dataset.late_nominal
        ):
            digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    return digest.hexdigest()


def test_compiled_fleet_banks_are_pinned(tmp_path, monkeypatch):
    use_oracle_nominals(monkeypatch)
    assert fleet_digest(tmp_path) == DIGEST


def test_compiled_fleet_banks_production_bytes(tmp_path):
    assert fleet_digest(tmp_path) == PRODUCTION_DIGEST
