"""Package-level tests: exports, version, exception hierarchy."""

import pytest

import repro
from repro.exceptions import (
    DimensionError,
    HyperParameterError,
    InsufficientDataError,
    NetlistError,
    NotFittedError,
    NotSPDError,
    ReproError,
    SimulationError,
    SingularMatrixError,
    SpecificationError,
)


class TestVersion:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_version_matches_metadata(self):
        from repro._version import __version__

        assert repro.__version__ == __version__


class TestTopLevelExports:
    def test_all_resolvable(self):
        missing = [name for name in repro.__all__ if not hasattr(repro, name)]
        assert missing == []

    def test_key_classes_importable(self):
        from repro import (
            BMFEstimator,
            FusionPipeline,
            MLEstimator,
            MultivariateGaussian,
            NormalWishart,
            PriorKnowledge,
        )

        assert BMFEstimator.name == "bmf"
        assert MLEstimator.name == "mle"

    def test_subpackage_all_resolvable(self):
        import repro.circuits
        import repro.core
        import repro.experiments
        import repro.extensions
        import repro.linalg
        import repro.stats
        import repro.yieldest

        for module in (
            repro.circuits,
            repro.core,
            repro.experiments,
            repro.extensions,
            repro.linalg,
            repro.stats,
            repro.yieldest,
        ):
            missing = [n for n in module.__all__ if not hasattr(module, n)]
            assert missing == [], f"{module.__name__}: {missing}"


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc_type in (
            DimensionError,
            HyperParameterError,
            InsufficientDataError,
            NetlistError,
            NotFittedError,
            NotSPDError,
            SimulationError,
            SingularMatrixError,
            SpecificationError,
        ):
            assert issubclass(exc_type, ReproError)

    def test_value_error_compatibility(self):
        """User-input errors must also be catchable as ValueError."""
        for exc_type in (
            DimensionError,
            HyperParameterError,
            InsufficientDataError,
            NetlistError,
            NotSPDError,
            SingularMatrixError,
            SpecificationError,
        ):
            assert issubclass(exc_type, ValueError)

    def test_runtime_error_compatibility(self):
        for exc_type in (NotFittedError, SimulationError):
            assert issubclass(exc_type, RuntimeError)

    def test_catch_base_class(self, synthetic_prior):
        """One except clause catches any library error."""
        from repro.core.bmf import BMFEstimator

        with pytest.raises(ReproError):
            BMFEstimator(synthetic_prior, kappa0=-1.0, v0=10.0)
