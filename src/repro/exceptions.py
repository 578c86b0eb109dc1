"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Subclasses are deliberately fine-grained: numerical
problems (non-SPD covariances, singular systems) are distinguished from
user errors (bad shapes, insufficient samples) because the recommended
remedies differ — the former usually call for regularisation, the latter
for fixing the call site.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""


class DimensionError(ReproError, ValueError):
    """Raised when array arguments have incompatible or invalid shapes."""


class InsufficientDataError(ReproError, ValueError):
    """Raised when an estimator receives fewer samples than it requires."""


class NotSPDError(ReproError, ValueError):
    """Raised when a matrix expected to be symmetric positive definite is not."""


class SingularMatrixError(ReproError, ValueError):
    """Raised when a linear system or inversion encounters a singular matrix."""


class SimulationError(ReproError, RuntimeError):
    """Raised when a circuit simulation cannot be completed."""


class BackendUnavailableError(ReproError, RuntimeError):
    """Raised when a requested solver backend's dependency is missing.

    The sparse MNA backend needs scipy, which is never a hard
    dependency; asking for it explicitly when scipy is absent raises this
    instead of an opaque :class:`ImportError`, and ``auto`` falls back
    to dense silently rather than raise.
    """


class NetlistError(ReproError, ValueError):
    """Raised when a circuit netlist is malformed (dangling node, bad value...)."""


class SpecificationError(ReproError, ValueError):
    """Raised when a performance specification is malformed."""


class HyperParameterError(ReproError, ValueError):
    """Raised when BMF hyper-parameters violate their constraints.

    The normal-Wishart prior requires ``kappa_0 > 0`` and ``v_0 > d`` (the
    paper uses ``v_0 >= d``; strict inequality keeps the prior mode of the
    precision matrix well defined, see Eq. (16) of the paper).
    """


class NotFittedError(ReproError, RuntimeError):
    """Raised when a transform/estimator is used before being fitted."""


class UnknownEstimatorError(ReproError, KeyError):
    """Raised when a registry lookup names an estimator that is not registered.

    The message always lists the available names so a typo in a config file
    or on the command line is self-diagnosing.
    """


class ConfigError(ReproError, ValueError):
    """Raised when a serialized :class:`~repro.core.registry.FusionConfig`
    or :class:`~repro.core.registry.EstimatorSpec` payload is malformed."""


class SchemaVersionError(ConfigError):
    """Raised when a serialized artefact declares an unsupported schema version.

    Distinguished from a generally malformed payload (:class:`ConfigError`)
    because the remedy differs: the file is *valid*, just written by a
    newer (or unknown) revision — upgrade the reader instead of fixing the
    file.  Loaders must raise this rather than guessing at forward
    compatibility.
    """


class SessionNotFoundError(ReproError, KeyError):
    """Raised when a serving query names a session key that does not exist
    (never created, or already evicted by TTL / capacity pressure)."""


class WalCorruptionError(ReproError, RuntimeError):
    """Raised when a write-ahead log fails hash-chain verification.

    A *torn tail* (the last record truncated by a crash mid-write) is not
    corruption — recovery drops it silently and the log stays usable.
    This error means something stronger: a record in the *middle* of the
    chain fails its sha256 link, or valid-looking records follow a broken
    one — the file was edited, reordered, or damaged at rest, and replaying
    it would reconstruct a state that never existed.
    """

