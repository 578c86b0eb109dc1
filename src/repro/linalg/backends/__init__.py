"""Solver backend registry and uniform selection API.

Two backend kinds plug into the numerical substrate:

* **kernel backends** (``"numpy"``, ``"numba"``) implement the batched
  SPD primitives behind :mod:`repro.linalg.batched` — every consumer of
  ``cholesky_batched`` / ``solve_triangular_batched`` /
  ``mahalanobis_sq_batched`` (the CV scorer, the serving batch scorer)
  switches backend through this one seam, with zero changes at call
  sites;
* **MNA backends** (``"dense"``, ``"sparse"``) pick the system-solve
  strategy of :meth:`repro.circuits.mna.StampPlan.solve_batched`.  The
  numeric cores live down here (:mod:`repro.linalg.backends.sparse_mna`);
  the stamp-plan layering glue lives up in ``circuits``.

Selection
---------
``"auto"`` resolves per kind: kernels prefer numba when importable, MNA
solves prefer dense up to :data:`DENSE_AUTO_MAX_REDUCED_SIZE` unknowns
(batched LAPACK/Cramer wins while the stacked systems fit in cache and
memory) and sparse beyond that when scipy is importable.  The *active*
kernel backend is ambient state — a :class:`contextvars.ContextVar`, so
`` use_kernel_backend`` scopes correctly across threads and the serving
queue — initialised from the ``REPRO_LINALG_BACKEND`` environment
variable and defaulting to ``"numpy"``: the default pipeline stays
bit-identical to the pre-backend code unless a caller opts in.

Adding a backend means registering a :class:`BackendSpec` with an
availability probe and a loader returning a
:class:`~repro.linalg.backends.base.KernelBackend`; see
``docs/PERFORMANCE.md`` for the walkthrough.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional, Tuple

from repro.exceptions import BackendUnavailableError, ConfigError
from repro.linalg.backends import numba_kernels, numpy_kernels, sparse_mna
from repro.linalg.backends.base import (
    KIND_KERNELS,
    KIND_MNA,
    BackendSpec,
    KernelBackend,
)

__all__ = [
    "BackendSpec",
    "KernelBackend",
    "KIND_KERNELS",
    "KIND_MNA",
    "DENSE_AUTO_MAX_REDUCED_SIZE",
    "register_backend",
    "get_backend_spec",
    "available_backends",
    "registered_backends",
    "resolve_kernel_backend",
    "resolve_mna_backend",
    "active_kernel_backend",
    "kernels",
    "set_default_kernel_backend",
    "use_kernel_backend",
]

#: Environment variable consulted for the initial kernel-backend default.
ENV_KERNEL_BACKEND = "REPRO_LINALG_BACKEND"

#: ``auto`` MNA resolution: largest reduced system kept on the dense
#: path.  Below this the stacked dense solves (and the closed-form
#: Cramer path for m <= 3) beat per-system sparse LU by a wide margin;
#: above it the dense ``O(m^2)`` per-(sample, frequency) memory starts
#: to dominate and factorized sparse LU scales instead.
DENSE_AUTO_MAX_REDUCED_SIZE = 64

_REGISTRY: Dict[Tuple[str, str], BackendSpec] = {}

#: Loaded kernel-backend cache (loading may trigger JIT machinery).
_LOADED: Dict[str, KernelBackend] = {}


def register_backend(spec: BackendSpec) -> BackendSpec:
    """Add a backend to the registry; re-registering a name is an error."""
    key = (spec.kind, spec.name)
    if key in _REGISTRY:
        raise ConfigError(f"backend {spec.name!r} already registered for kind {spec.kind!r}")
    if spec.kind not in (KIND_KERNELS, KIND_MNA):
        raise ConfigError(f"unknown backend kind {spec.kind!r}")
    _REGISTRY[key] = spec
    return spec


def get_backend_spec(kind: str, name: str) -> BackendSpec:
    """Look up one registered backend; unknown names raise ConfigError."""
    try:
        return _REGISTRY[(kind, name)]
    except KeyError:
        known = ", ".join(sorted(n for k, n in _REGISTRY if k == kind)) or "<none>"
        raise ConfigError(
            f"unknown {kind} backend {name!r}; registered: {known} (or 'auto')"
        ) from None


def registered_backends(kind: str) -> List[str]:
    """Every registered backend name for ``kind``, sorted."""
    return sorted(name for k, name in _REGISTRY if k == kind)


def available_backends(kind: str) -> List[str]:
    """Registered backends whose dependency probe passes, sorted."""
    return [name for name in registered_backends(kind) if _REGISTRY[(kind, name)].is_available()]


# ---------------------------------------------------------------------------
# built-in registrations
# ---------------------------------------------------------------------------
register_backend(
    BackendSpec(
        name="numpy",
        kind=KIND_KERNELS,
        description="reference NumPy/LAPACK batched kernels (bit-identical default)",
        is_available=numpy_kernels.is_available,
        loader=numpy_kernels.load,
    )
)
register_backend(
    BackendSpec(
        name="numba",
        kind=KIND_KERNELS,
        description="fused numba-compiled batched kernels (optional; 1e-12 agreement)",
        is_available=numba_kernels.is_available,
        loader=numba_kernels.load,
        meta={"tolerance": 1e-12},
    )
)
register_backend(
    BackendSpec(
        name="dense",
        kind=KIND_MNA,
        description="stacked dense solves with closed-form m<=3 fast path",
        is_available=lambda: True,
    )
)
register_backend(
    BackendSpec(
        name="sparse",
        kind=KIND_MNA,
        description="CSC scatter plan + scipy splu, symbolic analysis done once",
        is_available=sparse_mna.is_available,
        meta={"tolerance": 1e-9},
    )
)


# ---------------------------------------------------------------------------
# kernel-backend selection (ambient, context-scoped)
# ---------------------------------------------------------------------------
def _initial_default() -> str:
    env = os.environ.get(ENV_KERNEL_BACKEND, "").strip()
    return env if env else "numpy"


#: Per-context override; ``None`` means "use the process default".
_ACTIVE: ContextVar[Optional[str]] = ContextVar("repro_kernel_backend", default=None)

_DEFAULT: str = _initial_default()


def resolve_kernel_backend(name: Optional[str] = None) -> str:
    """Resolve a requested name (or the ambient selection) to a concrete one.

    ``None`` reads the ambient selection (context override, else process
    default); ``"auto"`` prefers numba when importable and falls back to
    numpy.  Explicitly naming an unavailable backend raises
    :class:`~repro.exceptions.BackendUnavailableError`.
    """
    if name is None:
        override = _ACTIVE.get()
        name = override if override is not None else _DEFAULT
    if name == "auto":
        return "numba" if get_backend_spec(KIND_KERNELS, "numba").is_available() else "numpy"
    spec = get_backend_spec(KIND_KERNELS, name)
    if not spec.is_available():
        raise BackendUnavailableError(
            f"kernel backend {name!r} is registered but its dependency is missing"
        )
    return name


def active_kernel_backend() -> str:
    """Concrete name of the kernel backend dispatch will use right now."""
    return resolve_kernel_backend(None)


def kernels(name: Optional[str] = None) -> KernelBackend:
    """The loaded :class:`KernelBackend` for ``name`` (ambient when None)."""
    concrete = resolve_kernel_backend(name)
    backend = _LOADED.get(concrete)
    if backend is None:
        backend = get_backend_spec(KIND_KERNELS, concrete).loader()
        _LOADED[concrete] = backend
    return backend


def set_default_kernel_backend(name: str) -> str:
    """Set the process-wide default (validated); returns the concrete name.

    ``"auto"`` is stored as-is so availability is re-resolved per call —
    the CLI uses this so ``--linalg-backend auto`` means "best available
    at solve time", not "best available at startup".
    """
    global _DEFAULT
    if name != "auto":
        resolve_kernel_backend(name)  # validate eagerly
    _DEFAULT = name
    return resolve_kernel_backend(None) if name == "auto" else name


@contextmanager
def use_kernel_backend(name: Optional[str]) -> Iterator[str]:
    """Scope the active kernel backend; ``None`` keeps the ambient choice."""
    if name is None:
        yield active_kernel_backend()
        return
    resolved = resolve_kernel_backend(name if name != "auto" else "auto")
    token = _ACTIVE.set(name if name != "auto" else resolved)
    try:
        yield resolved
    finally:
        _ACTIVE.reset(token)


# ---------------------------------------------------------------------------
# MNA-backend selection (resolved per solve; no ambient state)
# ---------------------------------------------------------------------------
def resolve_mna_backend(name: Optional[str], reduced_size: int) -> str:
    """Resolve an MNA backend request against the reduced system size.

    ``None``/``"auto"`` keeps small cores dense (closed-form/stacked
    LAPACK territory) and switches to sparse above
    :data:`DENSE_AUTO_MAX_REDUCED_SIZE` when scipy is importable —
    falling back to dense, never raising, when it is not.  Explicit
    names are validated and availability-checked.
    """
    if name is None or name == "auto":
        if (
            reduced_size > DENSE_AUTO_MAX_REDUCED_SIZE
            and get_backend_spec(KIND_MNA, "sparse").is_available()
        ):
            return "sparse"
        return "dense"
    spec = get_backend_spec(KIND_MNA, name)
    if not spec.is_available():
        raise BackendUnavailableError(
            f"MNA backend {name!r} is registered but its dependency is missing"
        )
    return name
