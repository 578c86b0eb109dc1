"""repro — Multivariate Bayesian Model Fusion for AMS moment estimation.

Reproduction of Huang, Fang, Yang, Zeng & Li, "Efficient Multivariate
Moment Estimation via Bayesian Model Fusion for Analog and Mixed-Signal
Circuits", DAC 2015.

Quick start::

    from repro import FusionPipeline
    pipeline = FusionPipeline.fit(early_samples, early_nominal, late_nominal)
    result = pipeline.estimate(late_samples)   # fused mean + covariance
    result.provenance                          # estimator, (kappa0, v0), config hash

Every estimator lives in a registry (``repro.available_estimators()``);
which one a pipeline runs is declarative data in a ``FusionConfig``.

Sub-packages
------------
``repro.core``
    The paper's contribution: normal-Wishart BMF, MLE baseline,
    shift/scale preprocessing, two-dimensional cross validation.
``repro.stats``
    Probability substrate (multivariate Gaussian, Wishart, normal-Wishart,
    normality diagnostics).
``repro.linalg``
    SPD utilities, norms, shrinkage baselines.
``repro.circuits``
    Behavioural circuit simulators standing in for the paper's SPICE runs
    (two-stage op-amp, flash ADC, MNA AC solver, process variations).
``repro.yieldest``
    Parametric yield from fused moments.
``repro.experiments``
    Harness regenerating every figure of the paper's Sec. 5.
``repro.extensions``
    Future-work features: higher-order moments, robust fusion.
"""

from repro._version import __version__
from repro.core import (
    BMFEstimator,
    EstimatorSpec,
    FusionConfig,
    FusionPipeline,
    FusionProvenance,
    GridSpec,
    HyperParameterGrid,
    MLEstimator,
    MomentEstimate,
    PipelineResult,
    PriorKnowledge,
    ShiftScaleTransform,
    TwoDimensionalCV,
    available_estimators,
    covariance_error,
    make_estimator,
    map_moments,
    mean_error,
    register_estimator,
)
from repro.exceptions import ReproError
from repro.stats import MultivariateGaussian, NormalWishart

__all__ = [
    "BMFEstimator",
    "EstimatorSpec",
    "FusionConfig",
    "FusionPipeline",
    "FusionProvenance",
    "GridSpec",
    "HyperParameterGrid",
    "MLEstimator",
    "MomentEstimate",
    "MultivariateGaussian",
    "NormalWishart",
    "PipelineResult",
    "PriorKnowledge",
    "ReproError",
    "ShiftScaleTransform",
    "TwoDimensionalCV",
    "__version__",
    "available_estimators",
    "covariance_error",
    "make_estimator",
    "map_moments",
    "mean_error",
    "register_estimator",
]
