"""Scenario compiler: sweep expansion and dataset compilation.

:func:`expand` turns a parsed document into a flat, deterministically
ordered list of :class:`ScenarioInstance` — one per point of each
scenario's sweep cross product.  Ordering rules (stable across machines,
worker counts and Python hash randomisation):

* scenarios expand in document order;
* sweep axes iterate in *sorted axis-name* order;
* each axis's values iterate in their listed order, slowest axis first.

Every instance carries a ``config_hash`` — a sha256 over the canonical
JSON of its complete generation config (schema marker, library version,
circuit, effective knobs, sample budget, seed, resolved design and
variant) — so two instances hash equal exactly when they would compile
byte-identical datasets.

:func:`compile_instance` / :func:`compile_all` run instances through
:func:`repro.circuits.registry.generate_dataset`, i.e. through the
existing vectorized engines and the sha256-keyed dataset disk cache:
recompiling an unchanged document is pure cache service.  ``compile_all``
optionally shards across forked workers (order-preserving, results
identical for every worker count).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.circuits.registry import get_circuit, generate_dataset
from repro.circuits.montecarlo import CacheLookup, PairedDataset, recorded_cache_lookups
from repro.circuits.variants import CircuitVariant
from repro.exceptions import ConfigError
from repro.scenarios.library import LIBRARY_VERSION, resolve_knobs
from repro.scenarios.spec import ScenarioDoc, ScenarioSpec
from repro.schemas import SCENARIO_SCHEMA, canonical_json

__all__ = ["ScenarioInstance", "expand", "compile_instance", "compile_all"]


@dataclass(frozen=True)
class ScenarioInstance:
    """One fully-resolved compilation unit of a scenario document.

    Attributes
    ----------
    name:
        Unique instance name: the scenario name, plus ``@axis=value,...``
        (sorted axis order) when the scenario sweeps.
    circuit:
        Registry circuit name.
    knobs:
        The effective knob mapping (fixed knobs merged with this sweep
        point) — design intent, for reports and fan-out labels.
    n_samples, seed:
        Monte-Carlo budget and master seed.
    design:
        Resolved design dataclass (topology knobs applied).
    variant:
        Resolved :class:`CircuitVariant` (reserved knobs applied).
    """

    name: str
    circuit: str
    knobs: Dict[str, Any]
    n_samples: int
    seed: int
    design: Any
    variant: CircuitVariant

    @property
    def config_hash(self) -> str:
        """sha256 over the canonical encoding of the full generation config."""
        import dataclasses

        payload = {
            "schema": SCENARIO_SCHEMA,
            "library": LIBRARY_VERSION,
            "circuit": self.circuit,
            "knobs": {k: self.knobs[k] for k in sorted(self.knobs)},
            "n_samples": self.n_samples,
            "seed": self.seed,
            "design": dataclasses.asdict(self.design),
            "variant": self.variant.as_config(),
        }
        return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _expand_scenario(spec: ScenarioSpec) -> List[ScenarioInstance]:
    axes = sorted(spec.sweep)
    points: List[Tuple[Tuple[str, Any], ...]]
    if axes:
        points = [
            tuple(zip(axes, combo))
            for combo in product(*(spec.sweep[a] for a in axes))
        ]
    else:
        points = [()]
    out: List[ScenarioInstance] = []
    for point in points:
        knobs = dict(spec.knobs)
        knobs.update(point)
        if point:
            suffix = ",".join(f"{axis}={value}" for axis, value in point)
            name = f"{spec.name}@{suffix}"
        else:
            name = spec.name
        design, variant, n_samples = resolve_knobs(spec.circuit, knobs, spec.name)
        out.append(
            ScenarioInstance(
                name=name,
                circuit=spec.circuit,
                knobs=knobs,
                n_samples=n_samples,
                seed=spec.seed,
                design=design,
                variant=variant,
            )
        )
    return out


def expand(doc: ScenarioDoc) -> List[ScenarioInstance]:
    """Expand a document into its deterministic, ordered instance list."""
    instances: List[ScenarioInstance] = []
    for spec in doc.scenarios:
        get_circuit(spec.circuit)  # self-diagnosing unknown-circuit error
        instances.extend(_expand_scenario(spec))
    seen: set = set()
    for inst in instances:
        if inst.name in seen:
            raise ConfigError(
                f"{doc.source}: duplicate expanded instance name {inst.name!r}"
            )
        seen.add(inst.name)
    return instances


def _instance_report(
    inst: ScenarioInstance,
    dataset: PairedDataset,
    lookup: CacheLookup,
) -> Dict[str, Any]:
    return {
        "name": inst.name,
        "circuit": inst.circuit,
        "config_hash": inst.config_hash,
        "cache_path": str(lookup.path),
        "cache_hit": lookup.hit,
        "n_samples": dataset.n_samples,
        "dim": dataset.dim,
    }


def compile_instance(
    inst: ScenarioInstance,
    cache_dir: Optional[Union[str, Path]] = None,
    use_cache: bool = True,
) -> Tuple[PairedDataset, Dict[str, Any]]:
    """Compile one instance to its paired dataset (cache-routed).

    Returns the dataset plus a JSON-safe report: instance name, circuit,
    config hash, cache path, whether the bank was read back from that
    cache entry (``False`` when it was built, also when a corrupt entry
    was rebuilt), and the dataset shape.
    """
    with recorded_cache_lookups() as lookups:
        dataset = generate_dataset(
            inst.circuit,
            n_samples=inst.n_samples,
            seed=inst.seed,
            design=inst.design,
            variant=inst.variant,
            cache_dir=cache_dir,
            use_cache=use_cache,
        )
    (lookup,) = lookups  # one cache-routed build per instance
    return dataset, _instance_report(inst, dataset, lookup)


def compile_all(
    instances: List[ScenarioInstance],
    n_jobs: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    use_cache: bool = True,
) -> List[Dict[str, Any]]:
    """Compile every instance; reports come back in expansion order.

    ``n_jobs`` shards the instance list across forked workers (each
    instance's own engines then run single-process); datasets land in the
    shared disk cache, reports are returned in the input order regardless
    of worker count.  Falls back to in-process compilation when forking
    is unavailable.
    """
    if not instances:
        raise ConfigError("compile_all requires at least one instance")

    def compile_shard(shard: List[ScenarioInstance]) -> List[Dict[str, Any]]:
        return [
            compile_instance(inst, cache_dir=cache_dir, use_cache=use_cache)[1]
            for inst in shard
        ]

    from repro.experiments.parallel import fork_available, replicate, resolve_n_jobs

    jobs = min(resolve_n_jobs(n_jobs), len(instances))
    if jobs > 1 and fork_available():
        shards = [
            list(instances[i::jobs]) for i in range(jobs)
        ]
        shards = [s for s in shards if s]
        parts = replicate(compile_shard, shards, n_jobs=jobs)
        # Re-interleave the strided shards back into expansion order.
        merged: List[Optional[Dict[str, Any]]] = [None] * len(instances)
        for lane, part in enumerate(parts):
            for step, report in enumerate(part):
                merged[lane + step * jobs] = report
        return [r for r in merged if r is not None]
    return compile_shard(list(instances))
