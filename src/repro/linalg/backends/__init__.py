"""MNA solver-backend selection: dense stacked solves or sparse LU.

:meth:`repro.circuits.mna.StampPlan.solve_batched` solves its stacked
systems one of two ways:

* ``"dense"`` — stacked LAPACK solves with a closed-form Cramer path for
  reduced cores of at most three unknowns; always available;
* ``"sparse"`` — a CSC scatter plan factorised with scipy's ``splu``
  (:mod:`repro.linalg.backends.sparse_mna`); needs scipy.

The numeric cores live down here; the stamp-plan glue lives up in
``circuits``.  ``"auto"`` (or ``None``) keeps reduced systems of up to
:data:`DENSE_AUTO_MAX_REDUCED_SIZE` unknowns dense and goes sparse
beyond that when scipy is importable.  Selection is resolved per solve;
there is no ambient state.
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import BackendUnavailableError, ConfigError
from repro.linalg.backends import sparse_mna

__all__ = [
    "DENSE_AUTO_MAX_REDUCED_SIZE",
    "resolve_mna_backend",
]

#: Every MNA backend name, in the order error messages list them.
_MNA_BACKENDS = ("dense", "sparse")

#: ``auto`` MNA resolution: largest reduced system kept on the dense
#: path.  Below this the stacked dense solves (and the closed-form
#: Cramer path for m <= 3) beat per-system sparse LU by a wide margin;
#: above it the dense ``O(m^2)`` per-(sample, frequency) memory starts
#: to dominate and factorized sparse LU scales instead.
DENSE_AUTO_MAX_REDUCED_SIZE = 64


def resolve_mna_backend(name: Optional[str], reduced_size: int) -> str:
    """Resolve an MNA backend request against the reduced system size.

    ``None``/``"auto"`` keeps small cores dense (closed-form/stacked
    LAPACK territory) and switches to sparse above
    :data:`DENSE_AUTO_MAX_REDUCED_SIZE` when scipy is importable —
    falling back to dense, never raising, when it is not.  Unknown names
    raise :class:`~repro.exceptions.ConfigError`; an explicit
    ``"sparse"`` without scipy raises
    :class:`~repro.exceptions.BackendUnavailableError`.
    """
    if name is None or name == "auto":
        if reduced_size > DENSE_AUTO_MAX_REDUCED_SIZE and sparse_mna.is_available():
            return "sparse"
        return "dense"
    if name not in _MNA_BACKENDS:
        raise ConfigError(
            f"unknown mna backend {name!r}; known: {', '.join(_MNA_BACKENDS)} (or 'auto')"
        )
    if name == "sparse" and not sparse_mna.is_available():
        raise BackendUnavailableError(
            "MNA backend 'sparse' needs scipy, which is not installed; "
            "install scipy or use the dense backend"
        )
    return name
