"""Parametric yield estimation from fused multivariate moments."""

from repro.yieldest.parametric import (
    YieldEstimator,
    YieldReport,
    gaussian_box_probability,
)
from repro.yieldest.specs import Specification, SpecificationSet

__all__ = [
    "Specification",
    "SpecificationSet",
    "YieldEstimator",
    "YieldReport",
    "gaussian_box_probability",
]
