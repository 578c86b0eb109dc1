"""Core contribution: multivariate BMF moment estimation (Algorithm 1)."""

from repro.core.bmf import BMFEstimator, map_moments
from repro.core.baselines import ShrinkageEstimator
from repro.core.confidence import (
    CredibleSummary,
    mean_credible_region,
    mean_region_contains,
    posterior_credible_summary,
)
from repro.core.bmf_bd import BernoulliBMF, BernoulliMomentEstimator, BetaPrior
from repro.core.crossval import CrossValidationResult, TwoDimensionalCV, make_folds
from repro.core.evidence import (
    EvidenceResult,
    EvidenceSelector,
    log_evidence,
    log_evidence_grid,
)
from repro.core.errors import (
    EstimationError,
    covariance_error,
    estimation_error,
    mean_error,
)
from repro.core.estimators import EstimateInfo, MomentEstimate, MomentEstimator
from repro.core.hypergrid import HyperParameterGrid
from repro.core.mle import MLEstimator
from repro.core.multipop import MultiPopulationBMF, PopulationData
from repro.core.pipeline import (
    FusionPipeline,
    FusionProvenance,
    PipelineResult,
)
from repro.core.preprocessing import ShiftScaleTransform
from repro.core.prior import PriorKnowledge
from repro.core.registry import (
    EstimatorSpec,
    FusionConfig,
    GridSpec,
    available_estimators,
    estimator_entry,
    make_estimator,
    register_estimator,
    register_selector,
)

__all__ = [
    "BMFEstimator",
    "BernoulliBMF",
    "BernoulliMomentEstimator",
    "BetaPrior",
    "CredibleSummary",
    "CrossValidationResult",
    "EstimateInfo",
    "EstimationError",
    "EstimatorSpec",
    "EvidenceResult",
    "EvidenceSelector",
    "FusionConfig",
    "FusionPipeline",
    "FusionProvenance",
    "GridSpec",
    "HyperParameterGrid",
    "MLEstimator",
    "MomentEstimate",
    "MomentEstimator",
    "MultiPopulationBMF",
    "PipelineResult",
    "PopulationData",
    "PriorKnowledge",
    "ShiftScaleTransform",
    "ShrinkageEstimator",
    "TwoDimensionalCV",
    "available_estimators",
    "covariance_error",
    "estimation_error",
    "estimator_entry",
    "log_evidence",
    "log_evidence_grid",
    "make_estimator",
    "make_folds",
    "map_moments",
    "mean_credible_region",
    "mean_region_contains",
    "mean_error",
    "posterior_credible_summary",
    "register_estimator",
    "register_selector",
]
