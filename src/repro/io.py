"""Serialization: datasets to ``.npz``, estimates and sweeps to JSON/CSV.

A validation team generates Monte-Carlo banks once (hours of simulator
time) and fuses many times; these helpers make the banks and the results
durable artefacts:

* :func:`save_dataset` / :func:`load_dataset` — round-trip a
  :class:`~repro.circuits.montecarlo.PairedDataset` through one ``.npz``;
* :func:`estimate_to_dict` / :func:`estimate_from_dict` and
  :func:`save_estimate` / :func:`load_estimate` — JSON round-trip of a
  :class:`~repro.core.estimators.MomentEstimate`;
* :func:`save_config` / :func:`load_config` — JSON round-trip of a
  declarative :class:`~repro.core.registry.FusionConfig` (lossless:
  ``load_config(path)`` equals the saved config, hash included);
* :func:`result_to_dict` / :func:`result_from_dict` and
  :func:`save_result` / :func:`load_result` — full
  :class:`~repro.core.pipeline.PipelineResult` round-trip: physical-space
  moments, the isotropic estimate, typed provenance, and the fitted
  shift/scale transform parameters;
* :func:`sweep_to_csv` — flat CSV of a sweep's raw errors for external
  plotting tools.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Dict, Union

import numpy as np

from repro.circuits.montecarlo import PairedDataset
from repro.core.estimators import EstimateInfo, MomentEstimate
from repro.exceptions import ConfigError, DimensionError, SchemaVersionError
from repro.experiments.sweep import SweepResult
from repro.schemas import RESULT_SCHEMA, canonical_json, fsync_dir, write_json_atomic

__all__ = [
    "canonical_json",
    "fsync_dir",
    "write_json_atomic",
    "save_dataset",
    "load_dataset",
    "estimate_to_dict",
    "estimate_from_dict",
    "save_estimate",
    "load_estimate",
    "save_config",
    "load_config",
    "result_to_dict",
    "result_from_dict",
    "save_result",
    "load_result",
    "check_schema_version",
    "sweep_to_csv",
]

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# canonical JSON + crash-safe writes (shared by checkpoints, WALs, manifests)
# ---------------------------------------------------------------------------
# canonical_json / fsync_dir / write_json_atomic live in repro.schemas (the
# bottom layer) so every layer can reach them; re-exported here because this
# module is where serialisation consumers historically import them from.


def _info_value(value: Any) -> Union[bool, int, float, str]:
    """Coerce one diagnostics value to a JSON-safe typed scalar.

    Estimator ``info`` dicts legitimately mix numbers with strings (e.g.
    ``{"kappa0": 3.0, "shrinkage_kind": "oas"}``); the old serializer
    forced everything through ``float`` and crashed on the strings.
    """
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, str):
        return value
    raise ConfigError(
        f"info values must be bool/int/float/str, got {type(value).__name__}: {value!r}"
    )


def _info_dict(info: Dict[str, Any]) -> EstimateInfo:
    return {str(k): _info_value(v) for k, v in info.items()}


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------
def save_dataset(dataset: PairedDataset, path: PathLike) -> None:
    """Write a paired dataset to a single compressed ``.npz`` file."""
    np.savez_compressed(
        Path(path),
        early=dataset.early,
        late=dataset.late,
        early_nominal=dataset.early_nominal,
        late_nominal=dataset.late_nominal,
        metric_names=np.array(dataset.metric_names, dtype=np.str_),
    )


def load_dataset(path: PathLike) -> PairedDataset:
    """Load a paired dataset written by :func:`save_dataset`."""
    with np.load(Path(path), allow_pickle=False) as data:
        required = {"early", "late", "early_nominal", "late_nominal", "metric_names"}
        missing = required - set(data.files)
        if missing:
            raise DimensionError(f"dataset file missing arrays: {sorted(missing)}")
        return PairedDataset(
            early=data["early"],
            late=data["late"],
            early_nominal=data["early_nominal"],
            late_nominal=data["late_nominal"],
            metric_names=tuple(str(n) for n in data["metric_names"]),
        )


# ---------------------------------------------------------------------------
# estimates
# ---------------------------------------------------------------------------
def estimate_to_dict(estimate: MomentEstimate) -> Dict:
    """JSON-safe dictionary representation of a moment estimate."""
    return {
        "mean": estimate.mean.tolist(),
        "covariance": estimate.covariance.tolist(),
        "n_samples": int(estimate.n_samples),
        "method": estimate.method,
        "info": _info_dict(estimate.info),
    }


def estimate_from_dict(payload: Dict) -> MomentEstimate:
    """Inverse of :func:`estimate_to_dict`; validates the result."""
    try:
        estimate = MomentEstimate(
            mean=np.asarray(payload["mean"], dtype=float),
            covariance=np.asarray(payload["covariance"], dtype=float),
            n_samples=int(payload["n_samples"]),
            method=str(payload["method"]),
            info=_info_dict(payload.get("info", {})),
        )
    except KeyError as exc:
        raise DimensionError(f"estimate payload missing field {exc}") from exc
    return estimate.validate()


def save_estimate(estimate: MomentEstimate, path: PathLike) -> None:
    """Write an estimate to a JSON file (atomic + durable)."""
    write_json_atomic(estimate_to_dict(estimate), path, canonical=False)


def load_estimate(path: PathLike) -> MomentEstimate:
    """Load an estimate from a JSON file written by :func:`save_estimate`."""
    return estimate_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# fusion configs
# ---------------------------------------------------------------------------
def save_config(config, path: PathLike) -> None:
    """Write a :class:`~repro.core.registry.FusionConfig` to a JSON file
    (atomic + durable)."""
    write_json_atomic(config.to_dict(), path, canonical=False)


def load_config(path: PathLike):
    """Load a fusion config saved by :func:`save_config` (lossless inverse)."""
    from repro.core.registry import FusionConfig

    return FusionConfig.from_json(Path(path).read_text())


# ---------------------------------------------------------------------------
# schema versioning
# ---------------------------------------------------------------------------
def check_schema_version(
    payload: Dict, supported: int, name: str, default: int = 1
) -> int:
    """Validate the ``schema_version`` field of a serialized artefact.

    Returns the declared version.  A payload without the field is treated
    as ``default`` (files written before versioning existed); anything
    other than ``supported`` raises :class:`~repro.exceptions.SchemaVersionError`
    — previously unknown future versions loaded silently and produced
    whatever the old field layout happened to decode to.
    """
    version = payload.get("schema_version", default)
    if not isinstance(version, int) or isinstance(version, bool):
        raise SchemaVersionError(
            f"{name}: schema_version must be an integer, got {version!r}"
        )
    if version != supported:
        raise SchemaVersionError(
            f"{name}: unsupported schema_version {version} "
            f"(this reader supports version {supported}); "
            "upgrade the repro package to read this file"
        )
    return version


# ---------------------------------------------------------------------------
# pipeline results
# ---------------------------------------------------------------------------
#: Structural version of the pipeline-result payload; bump on any breaking
#: field change so old readers fail loudly instead of misdecoding.
RESULT_SCHEMA_VERSION = 1


def result_to_dict(result) -> Dict:
    """JSON-safe dictionary of a :class:`~repro.core.pipeline.PipelineResult`.

    Persists the *physical-space* moments (what a designer consumes), the
    isotropic-space estimate (what Eq. 37–38 errors are computed in), the
    typed provenance, and — when the run used the Sec. 4.1 preprocessing —
    the fitted transform parameters, so the mapping between the two spaces
    survives with the artefact.
    """
    transform = result.transform
    return {
        "schema": RESULT_SCHEMA,
        "schema_version": RESULT_SCHEMA_VERSION,
        "mean": np.asarray(result.mean, dtype=float).tolist(),
        "covariance": np.asarray(result.covariance, dtype=float).tolist(),
        "isotropic": estimate_to_dict(result.isotropic),
        "provenance": result.provenance.to_dict(),
        "transform": None
        if transform is None
        else {
            "early_nominal": np.asarray(transform.early_nominal, dtype=float).tolist(),
            "late_nominal": np.asarray(transform.late_nominal, dtype=float).tolist(),
            "scale": np.asarray(transform.scale, dtype=float).tolist(),
        },
    }


def result_from_dict(payload: Dict):
    """Inverse of :func:`result_to_dict`."""
    from repro.core.pipeline import FusionProvenance, PipelineResult
    from repro.core.preprocessing import ShiftScaleTransform

    if payload.get("schema") != RESULT_SCHEMA:
        raise ConfigError(
            f"not a serialized pipeline result (schema {payload.get('schema')!r}, "
            f"expected {RESULT_SCHEMA!r})"
        )
    check_schema_version(payload, RESULT_SCHEMA_VERSION, "pipeline result")
    try:
        transform_payload = payload["transform"]
        transform = None
        if transform_payload is not None:
            transform = ShiftScaleTransform(
                early_nominal=np.asarray(transform_payload["early_nominal"], dtype=float),
                late_nominal=np.asarray(transform_payload["late_nominal"], dtype=float),
                scale=np.asarray(transform_payload["scale"], dtype=float),
            )
        return PipelineResult(
            mean=np.asarray(payload["mean"], dtype=float),
            covariance=np.asarray(payload["covariance"], dtype=float),
            isotropic=estimate_from_dict(payload["isotropic"]),
            provenance=FusionProvenance.from_dict(payload["provenance"]),
            transform=transform,
        )
    except KeyError as exc:
        raise ConfigError(f"pipeline result payload missing field {exc}") from exc


def save_result(result, path: PathLike) -> None:
    """Write a pipeline result (physical moments + provenance) to JSON,
    atomically (a crash mid-write leaves any previous artefact intact)."""
    write_json_atomic(result_to_dict(result), path, canonical=False)


def load_result(path: PathLike):
    """Load a pipeline result saved by :func:`save_result`."""
    return result_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------
def sweep_to_csv(result: SweepResult, path: PathLike) -> None:
    """Flatten a sweep's raw per-repetition errors to CSV.

    Columns: ``method, n_late, repetition, mean_error, cov_error`` — one
    row per (method, n, repetition), ready for pandas/gnuplot.
    """
    with open(Path(path), "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["method", "n_late", "repetition", "mean_error", "cov_error"])
        for method in result.methods:
            for n in sorted(result.mean_errors[method]):
                m_errs = result.mean_errors[method][n]
                c_errs = result.cov_errors[method][n]
                for rep, (m_err, c_err) in enumerate(zip(m_errs, c_errs)):
                    writer.writerow([method, n, rep, repr(m_err), repr(c_err)])
