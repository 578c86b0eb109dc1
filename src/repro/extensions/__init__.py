"""Extensions beyond the paper: robust fusion."""

from repro.extensions.robust import RobustBMFEstimator, mahalanobis_gate

__all__ = [
    "RobustBMFEstimator",
    "mahalanobis_gate",
]
