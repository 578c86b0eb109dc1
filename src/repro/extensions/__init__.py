"""Extensions beyond the paper: streaming and robust fusion."""

from repro.extensions.robust import RobustBMFEstimator, mahalanobis_gate
from repro.extensions.sequential import (
    SequentialBMF,
    SequentialBMFEstimator,
    SequentialState,
)

__all__ = [
    "RobustBMFEstimator",
    "SequentialBMF",
    "SequentialBMFEstimator",
    "SequentialState",
    "mahalanobis_gate",
]
