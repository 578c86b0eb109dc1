"""End-to-end fusion pipeline: Algorithm 1 as one straight-line flow.

The one way to configure and run Algorithm 1 is a
:class:`~repro.core.registry.FusionConfig` handed to
:class:`FusionPipeline`:

>>> pipeline = FusionPipeline.fit(
...     early_samples, early_nominal, late_nominal)   # doctest: +SKIP
>>> result = pipeline.estimate(late_samples)          # doctest: +SKIP
>>> result.mean, result.covariance                    # physical units
>>> pinned = FusionPipeline.fit(
...     early_samples, early_nominal, late_nominal,
...     config=FusionConfig(selector="fixed", kappa0=5.0, v0=50.0),
... )                                                  # doctest: +SKIP
>>> pipeline.estimate_with("mle", late_samples)       # doctest: +SKIP

:meth:`FusionPipeline.fit` is the one place the Sec. 4.1 shift/scale
transform and the early-stage prior are fitted.  :meth:`FusionPipeline.estimate`
then runs the paper's fixed four steps in order:

1. map the late samples into the isotropic space of the fitted transform
   (identity when disabled);
2. resolve ``(kappa0, v0)`` for hyper-parameter-aware estimators: pinned
   spec params, then ``"fixed"``, then a search selector registered via
   :func:`repro.core.registry.register_selector` (the paper's
   two-dimensional CV and the fold-free evidence search are two of them)
   run over the config's grid with the config's fold count;
3. build the configured estimator from the estimator table (*any*
   registered name, not just BMF) and run it — Eq. 31–32 for BMF;
4. map the fused moments back to physical units.

:meth:`FusionPipeline.estimate_with` runs a different estimator through
the same fitted flow (``estimate_with("mle", ...)`` is the paper's
baseline).  The returned :class:`PipelineResult` carries a typed
:class:`FusionProvenance` (estimator name, selected hyper-parameters,
seed, config hash), so a saved result is traceable to the exact
configuration that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.core.estimators import EstimateInfo, MomentEstimate
from repro.core.preprocessing import ShiftScaleTransform
from repro.core.prior import PriorKnowledge
from repro.core.registry import (
    EstimatorSpec,
    FusionConfig,
    GridSpec,
    estimator_entry,
    make_estimator,
    make_selector,
)
from repro.exceptions import ConfigError, DimensionError
from repro.linalg.validation import as_samples

__all__ = [
    "FusionProvenance",
    "PipelineResult",
    "FusionPipeline",
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
        ``"fixed"``, another registered selector, or ``"estimator"`` when
        the estimator reports values it fixed itself); ``None`` for
        estimators that take no hyper-parameters.
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
    """Fitted preprocessing + prior, running any registered estimator.

    Construct with :meth:`fit`; then call :meth:`estimate` for each batch
    of late-stage samples (e.g. per die, per corner).  The estimator, the
    hyper-parameter selector, the fold count and the grid are all data in
    a :class:`~repro.core.registry.FusionConfig` — swap estimators by
    editing the config (or use :meth:`estimate_with` for one-off runs),
    never by touching pipeline code.
    """

    def __init__(
        self,
        transform: Optional[ShiftScaleTransform],
        prior: PriorKnowledge,
        config: Optional[FusionConfig] = None,
    ) -> None:
        if transform is not None and transform.dim != prior.dim:
            raise DimensionError(
                f"transform dim {transform.dim} != prior dim {prior.dim}"
            )
        self.transform = transform
        self.prior = prior
        self.config = config if config is not None else FusionConfig()

    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls,
        early_samples,
        early_nominal=None,
        late_nominal=None,
        config: Optional[FusionConfig] = None,
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
        return cls(transform=transform, prior=prior, config=cfg)

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
        from the config alone.  ``config`` overrides the fitted one for
        this call only.
        """
        cfg = config if config is not None else self.config
        seed_used: Optional[int] = None
        if rng is None and cfg.seed is not None:
            rng = np.random.default_rng(cfg.seed)
            seed_used = cfg.seed

        data = as_samples(late_samples)
        if self.transform is not None:
            late_iso = self.transform.transform(data, stage="late")
        else:
            late_iso = np.array(data, dtype=float, copy=True)

        kappa0, v0, selector, score = self._resolve_hyperparams(cfg, late_iso, rng)
        estimator = make_estimator(cfg.estimator, prior=self.prior, kappa0=kappa0, v0=v0)
        iso_estimate = estimator.estimate(late_iso, rng=rng)
        diagnostics: EstimateInfo = dict(iso_estimate.info)
        # An estimator that fixes its own hyper-parameters without taking
        # them (univariate-bmf) still reports what it used; fold that back
        # into the provenance.
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
        late_iso: np.ndarray,
        rng: Optional[np.random.Generator],
    ) -> Tuple[Optional[float], Optional[float], Optional[str], Optional[float]]:
        """``(kappa0, v0, selector, selection score)`` per the config's policy.

        Only estimators whose table entry advertises ``accepts_hyperparams``
        take part.  Precedence: explicit values in the estimator spec's
        params (they *are* the selection), then ``"fixed"``, then a
        registered search selector run on the isotropic samples over
        ``cfg.grid`` (the paper default when unset) with ``cfg.n_folds``.
        """
        if not estimator_entry(cfg.estimator.name).accepts_hyperparams:
            return None, None, None, None
        params = cfg.estimator.params
        if params.get("kappa0") is not None and params.get("v0") is not None:
            return float(params["kappa0"]), float(params["v0"]), "fixed", None
        if cfg.selector == "fixed":
            # FusionConfig refuses "fixed" without both values.
            return float(cfg.kappa0), float(cfg.v0), "fixed", None
        grid = (cfg.grid if cfg.grid is not None else GridSpec()).materialize(self.prior.dim)
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
        """Run a different registered estimator through the same fitted flow.

        The fair-comparison workhorse: identical preprocessing and prior,
        only the estimation stage changes (``"mle"`` is the paper's
        baseline).
        """
        spec = EstimatorSpec(estimator) if isinstance(estimator, str) else estimator
        cfg = self.config.replace(estimator=spec)
        return self.estimate(late_samples, rng=rng, config=cfg)
