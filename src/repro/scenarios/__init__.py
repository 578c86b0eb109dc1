"""Scenario compiler: declarative circuit/scenario library.

A scenario document (YAML or JSON, schema ``repro.scenario.v1``) names
circuits from :mod:`repro.circuits.registry` and describes what to vary
through discrete knobs — topology, process corner, mismatch magnitude,
early/late divergence, sample budget.  The pipeline is::

    load_scenario_doc(path)          # parse + schema/library validation
      -> expand(doc)                 # sweep cross products, deterministic order
      -> compile_all(instances)      # paired MC datasets via the dataset cache

Every expanded instance carries a content hash of its full generation
config, and compilation routes through the existing sha256-keyed dataset
disk cache — recompiling an unchanged document touches no engine.
"""

from pathlib import Path

from repro.exceptions import ConfigError
from repro.scenarios.compiler import (
    ScenarioInstance,
    compile_all,
    compile_instance,
    expand,
)
from repro.scenarios.library import (
    DIVERGENCE_LEVELS,
    LIBRARY_VERSION,
    MISMATCH_LEVELS,
    SAMPLE_TIERS,
    resolve_knobs,
    topology_knobs,
)
from repro.scenarios.spec import (
    DEFAULT_SEED,
    RESERVED_KNOBS,
    ScenarioDoc,
    ScenarioSpec,
    load_scenario_doc,
    parse_scenario_doc,
)

__all__ = [
    "DEFAULT_SEED",
    "DIVERGENCE_LEVELS",
    "LIBRARY_VERSION",
    "MISMATCH_LEVELS",
    "RESERVED_KNOBS",
    "SAMPLE_TIERS",
    "ScenarioDoc",
    "ScenarioInstance",
    "ScenarioSpec",
    "builtin_documents",
    "builtin_document_path",
    "compile_all",
    "compile_instance",
    "expand",
    "load_scenario_doc",
    "parse_scenario_doc",
    "resolve_knobs",
    "topology_knobs",
]

_BUILTIN_DIR = Path(__file__).resolve().parent / "builtin"
_BUILTIN_PREFIX = "builtin:"


def builtin_documents() -> "list[str]":
    """Names of the scenario documents bundled with the package."""
    if not _BUILTIN_DIR.is_dir():
        return []
    return sorted(
        f"{_BUILTIN_PREFIX}{p.stem}"
        for p in _BUILTIN_DIR.iterdir()
        if p.suffix in (".yaml", ".yml", ".json")
    )


def builtin_document_path(name: str) -> Path:
    """Resolve ``builtin:<name>`` (or a bare builtin name) to its file."""
    stem = name[len(_BUILTIN_PREFIX) :] if name.startswith(_BUILTIN_PREFIX) else name
    for suffix in (".yaml", ".yml", ".json"):
        candidate = _BUILTIN_DIR / f"{stem}{suffix}"
        if candidate.is_file():
            return candidate
    known = ", ".join(builtin_documents()) or "<none bundled>"
    raise ConfigError(f"unknown builtin scenario document {name!r}; available: {known}")
