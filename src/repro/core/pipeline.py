"""End-to-end fusion pipeline: Algorithm 1 as one straight-line flow.

The one-call public API a circuit team would use:

>>> pipeline = FusionPipeline.fit(
...     early_samples, early_nominal, late_nominal)   # doctest: +SKIP
>>> result = pipeline.estimate(late_samples)          # doctest: +SKIP
>>> result.mean, result.covariance                    # physical units

:meth:`FusionPipeline.fit` is the one place the Sec. 4.1 shift/scale
transform and the early-stage prior are fitted.  :meth:`FusionPipeline.estimate`
then runs the paper's fixed four steps in order:

1. map the late samples into the isotropic space of the fitted transform
   (identity when disabled);
2. resolve ``(kappa0, v0)`` for hyper-parameter-aware estimators: pinned
   spec params, ``"none"``, ``"fixed"``, or any search selector registered
   via :func:`repro.core.registry.register_selector` (the paper's
   two-dimensional CV and the fold-free evidence search are two of them);
3. build the configured estimator through the registry (*any* registered
   name, not just BMF) and run it — Eq. 31–32 for BMF;
4. map the fused moments back to physical units.

Which estimator runs, how hyper-parameters are selected, the grid, the
seed — all of it is declarative data in a
:class:`~repro.core.registry.FusionConfig`, and the returned
:class:`PipelineResult` carries a typed :class:`FusionProvenance` (estimator
name, selected hyper-parameters, seed, config hash) instead of a loose
``Dict[str, float]``, so a saved result is traceable to the exact
configuration that produced it.

:class:`BMFPipeline` keeps the original BMF-only constructor/`fit`
signature as a thin shim over the config-driven machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.core.estimators import EstimateInfo, MomentEstimate
from repro.core.hypergrid import HyperParameterGrid
from repro.core.preprocessing import ShiftScaleTransform
from repro.core.prior import PriorKnowledge
from repro.core.registry import (
    EstimatorRegistry,
    EstimatorSpec,
    FusionConfig,
    default_registry,
    make_selector,
)
from repro.exceptions import ConfigError, DimensionError
from repro.linalg.validation import as_samples

__all__ = [
    "FusionProvenance",
    "PipelineResult",
    "FusionPipeline",
    "BMFPipeline",
]


# ---------------------------------------------------------------------------
# typed provenance
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FusionProvenance:
    """What produced a fused estimate — enough to reproduce or audit it.

    Attributes
    ----------
    estimator:
        Registry name of the estimator that ran (e.g. ``"bmf"``).
    selector:
        How hyper-parameters were resolved (``"cv"``, ``"evidence"``,
        ``"fixed"``, ``"none"``); ``None`` for estimators that take no
        hyper-parameters.
    kappa0, v0:
        The normal-Wishart hyper-parameters actually used, when any.
    seed:
        The config's base seed, if the run's randomness derived from it
        (``None`` when the caller supplied its own generator).
    config_hash:
        Stable content hash of the full :class:`FusionConfig`.
    n_samples:
        Late-stage sample count consumed.
    diagnostics:
        Estimator and selection extras (selection scores, rejected-row
        counts...).
    """

    estimator: str
    selector: Optional[str] = None
    kappa0: Optional[float] = None
    v0: Optional[float] = None
    seed: Optional[int] = None
    config_hash: Optional[str] = None
    n_samples: int = 0
    diagnostics: EstimateInfo = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation (inverse of :meth:`from_dict`)."""
        return {
            "estimator": self.estimator,
            "selector": self.selector,
            "kappa0": None if self.kappa0 is None else float(self.kappa0),
            "v0": None if self.v0 is None else float(self.v0),
            "seed": None if self.seed is None else int(self.seed),
            "config_hash": self.config_hash,
            "n_samples": int(self.n_samples),
            "diagnostics": dict(self.diagnostics),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FusionProvenance":
        if "estimator" not in payload:
            raise ConfigError("provenance payload missing 'estimator'")
        return cls(
            estimator=str(payload["estimator"]),
            selector=payload.get("selector"),
            kappa0=None if payload.get("kappa0") is None else float(payload["kappa0"]),
            v0=None if payload.get("v0") is None else float(payload["v0"]),
            seed=None if payload.get("seed") is None else int(payload["seed"]),
            config_hash=payload.get("config_hash"),
            n_samples=int(payload.get("n_samples", 0)),
            diagnostics=dict(payload.get("diagnostics", {})),
        )


@dataclass(frozen=True)
class PipelineResult:
    """Fused late-stage moments in both physical and isotropic spaces."""

    #: Fused mean in physical units.
    mean: np.ndarray
    #: Fused covariance in physical units.
    covariance: np.ndarray
    #: The isotropic-space estimate (the space of Eq. 37–38).
    isotropic: MomentEstimate
    #: Typed record of what produced this result.
    provenance: FusionProvenance
    #: The fitted preprocessing, so saved results are reconstructable
    #: (None when the pipeline ran without shift/scale).
    transform: Optional[ShiftScaleTransform] = None

    @property
    def info(self) -> EstimateInfo:
        """Legacy diagnostics view: the isotropic estimate's info dict."""
        return dict(self.isotropic.info)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------
class FusionPipeline:
    """Fitted preprocessing + prior, running any registry estimator.

    Construct with :meth:`fit`; then call :meth:`estimate` for each batch
    of late-stage samples (e.g. per die, per corner).  The estimator, the
    hyper-parameter selection policy, and the grid are all data in a
    :class:`~repro.core.registry.FusionConfig` — swap estimators by
    editing the config (or use :meth:`estimate_with` for one-off runs),
    never by touching pipeline code.
    """

    def __init__(
        self,
        transform: Optional[ShiftScaleTransform],
        prior: PriorKnowledge,
        config: Optional[FusionConfig] = None,
        registry: Optional[EstimatorRegistry] = None,
        grid: Optional[HyperParameterGrid] = None,
    ) -> None:
        if transform is not None and transform.dim != prior.dim:
            raise DimensionError(
                f"transform dim {transform.dim} != prior dim {prior.dim}"
            )
        self.transform = transform
        self.prior = prior
        self.config = config if config is not None else FusionConfig()
        self.registry = registry if registry is not None else default_registry()
        if grid is not None:
            self.grid: Optional[HyperParameterGrid] = grid
        elif self.config.grid is not None:
            self.grid = self.config.grid.materialize(prior.dim)
        else:
            self.grid = None

    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls,
        early_samples,
        early_nominal=None,
        late_nominal=None,
        config: Optional[FusionConfig] = None,
        registry: Optional[EstimatorRegistry] = None,
        grid: Optional[HyperParameterGrid] = None,
    ) -> "FusionPipeline":
        """Fit preprocessing and prior from early-stage data.

        With ``config.shift_scale`` (the paper's flow) the two nominal
        vectors are required; without it the prior is measured from the
        raw early samples and no transform is fitted.
        """
        cfg = config if config is not None else FusionConfig()
        if cfg.shift_scale:
            if early_nominal is None or late_nominal is None:
                raise ConfigError(
                    "shift/scale preprocessing needs early_nominal and late_nominal"
                )
            transform: Optional[ShiftScaleTransform] = ShiftScaleTransform.fit(
                early_samples, early_nominal, late_nominal
            )
            early_iso = transform.transform(early_samples, stage="early")
        else:
            transform = None
            early_iso = as_samples(early_samples)
        prior = PriorKnowledge.from_samples(early_iso)
        return cls(
            transform=transform,
            prior=prior,
            config=cfg,
            registry=registry,
            grid=grid,
        )

    # ------------------------------------------------------------------
    def estimate(
        self,
        late_samples,
        rng: Optional[np.random.Generator] = None,
        config: Optional[FusionConfig] = None,
    ) -> PipelineResult:
        """Run Algorithm 1 on one late-stage batch.

        ``rng`` seeds the hyper-parameter search (CV fold splits) and the
        estimator; when omitted and the config carries a ``seed``, a
        generator is derived from it so the whole run is reproducible
        from the config alone.
        """
        cfg = config if config is not None else self.config
        seed_used: Optional[int] = None
        if rng is None and cfg.seed is not None:
            rng = np.random.default_rng(cfg.seed)
            seed_used = cfg.seed
        grid = self.grid
        if config is not None and config.grid is not None and config is not self.config:
            grid = config.grid.materialize(self.prior.dim)

        data = as_samples(late_samples)
        if self.transform is not None:
            late_iso = self.transform.transform(data, stage="late")
        else:
            late_iso = np.array(data, dtype=float, copy=True)

        kappa0, v0, selector, score = self._resolve_hyperparams(cfg, grid, late_iso, rng)
        estimator = self.registry.build(
            cfg.estimator, prior=self.prior, kappa0=kappa0, v0=v0
        )
        iso_estimate = estimator.estimate(late_iso, rng=rng)
        diagnostics: EstimateInfo = dict(iso_estimate.info)
        # An estimator that self-selected (selector "none") still reports
        # what it used; fold that back into the provenance.
        if kappa0 is None and "kappa0" in diagnostics:
            kappa0 = float(diagnostics["kappa0"])
            selector = selector or "estimator"
        if v0 is None and "v0" in diagnostics:
            v0 = float(diagnostics["v0"])
        if score is not None:
            diagnostics["selection_score"] = score

        if self.transform is not None:
            mean, covariance = self.transform.inverse_transform_moments(
                iso_estimate.mean, iso_estimate.covariance, stage="late"
            )
        else:
            mean = np.array(iso_estimate.mean, copy=True)
            covariance = np.array(iso_estimate.covariance, copy=True)

        provenance = FusionProvenance(
            estimator=cfg.estimator.name,
            selector=selector,
            kappa0=kappa0,
            v0=v0,
            seed=seed_used,
            config_hash=cfg.config_hash(),
            n_samples=iso_estimate.n_samples,
            diagnostics=diagnostics,
        )
        return PipelineResult(
            mean=mean,
            covariance=covariance,
            isotropic=iso_estimate,
            provenance=provenance,
            transform=self.transform,
        )

    def _resolve_hyperparams(
        self,
        cfg: FusionConfig,
        grid: Optional[HyperParameterGrid],
        late_iso: np.ndarray,
        rng: Optional[np.random.Generator],
    ) -> Tuple[Optional[float], Optional[float], Optional[str], Optional[float]]:
        """``(kappa0, v0, selector, selection score)`` per the config's policy.

        Only estimators whose registry entry advertises
        ``accepts_hyperparams`` take part.  Precedence: explicit values in
        the estimator spec's params (they *are* the selection), then
        ``"none"`` (the estimator selects for itself), then ``"fixed"``,
        then a registered search selector run on the isotropic samples.
        """
        if not self.registry.entry(cfg.estimator.name).accepts_hyperparams:
            return None, None, None, None
        params = cfg.estimator.params
        if params.get("kappa0") is not None and params.get("v0") is not None:
            return float(params["kappa0"]), float(params["v0"]), "fixed", None
        if cfg.selector == "none":
            return None, None, None, None
        if cfg.selector == "fixed":
            # FusionConfig refuses "fixed" without both values.
            return float(cfg.kappa0), float(cfg.v0), "fixed", None
        if self.prior is None:
            raise ConfigError("hyper-parameter selection requires a fitted prior")
        if grid is None:
            grid = HyperParameterGrid.paper_default(self.prior.dim)
        selector = make_selector(cfg.selector, self.prior, grid, cfg.n_folds)
        result = selector.select(late_iso, rng=rng)
        best = getattr(result, "best_score", getattr(result, "best_log_evidence", None))
        return (
            float(result.kappa0),
            float(result.v0),
            cfg.selector,
            None if best is None else float(best),
        )

    # ------------------------------------------------------------------
    def estimate_with(
        self,
        estimator: Union[str, EstimatorSpec],
        late_samples,
        rng: Optional[np.random.Generator] = None,
    ) -> PipelineResult:
        """Run a different registry estimator through the same fitted flow.

        The fair-comparison workhorse: identical preprocessing and prior,
        only the estimation stage changes.
        """
        spec = EstimatorSpec(estimator) if isinstance(estimator, str) else estimator
        cfg = self.config.replace(estimator=spec)
        return self.estimate(late_samples, rng=rng, config=cfg)

    def estimate_mle(
        self, late_samples, rng: Optional[np.random.Generator] = None
    ) -> PipelineResult:
        """Baseline MLE through the same preprocessing, for fair comparison."""
        return self.estimate_with("mle", late_samples, rng=rng)


class BMFPipeline(FusionPipeline):
    """The original BMF-only facade over :class:`FusionPipeline`.

    Kept for source compatibility: the constructor and :meth:`fit` take the
    historical ``(grid, n_folds, kappa0, v0)`` arguments and translate them
    into a :class:`FusionConfig` targeting the ``"bmf"`` registry entry.
    """

    def __init__(
        self,
        transform: ShiftScaleTransform,
        prior: PriorKnowledge,
        grid: Optional[HyperParameterGrid] = None,
        n_folds: int = 4,
        kappa0: Optional[float] = None,
        v0: Optional[float] = None,
    ) -> None:
        config = FusionConfig(
            estimator=EstimatorSpec("bmf"),
            selector="fixed" if kappa0 is not None else "cv",
            kappa0=kappa0,
            v0=v0,
            n_folds=n_folds,
        )
        super().__init__(transform, prior, config=config, grid=grid)

    @classmethod
    def fit(
        cls,
        early_samples,
        early_nominal=None,
        late_nominal=None,
        grid: Optional[HyperParameterGrid] = None,
        n_folds: int = 4,
        kappa0: Optional[float] = None,
        v0: Optional[float] = None,
    ) -> "BMFPipeline":
        """Fit preprocessing and prior from early-stage data (legacy API).

        ``kappa0``/``v0`` pin the hyper-parameters (ablation mode) and
        otherwise cross validation selects them per late-stage dataset.
        """
        fitted = FusionPipeline.fit(early_samples, early_nominal, late_nominal)
        return cls(
            transform=fitted.transform,
            prior=fitted.prior,
            grid=grid,
            n_folds=n_folds,
            kappa0=kappa0,
            v0=v0,
        )
