"""Validation helpers for symmetric positive (semi-)definite matrices.

Every estimator in :mod:`repro.core` must hand back a covariance matrix a
downstream yield estimator can Cholesky-factorise.  These helpers centralise
the checks and the standard repairs (symmetrisation, eigenvalue clipping,
Higham-style nearest-SPD projection) so the numerical policy lives in one
place.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

from repro.exceptions import DimensionError, NotSPDError, SingularMatrixError

__all__ = [
    "as_matrix",
    "as_samples",
    "symmetrize",
    "is_symmetric",
    "is_spd",
    "assert_spd",
    "cholesky_safe",
    "inv_spd",
    "solve_spd",
    "nearest_spd",
    "clip_eigenvalues",
    "jitter_spd",
]

#: Default relative symmetry tolerance.
SYM_TOL = 1e-8

#: Default eigenvalue floor used by repairs, relative to the largest eigenvalue.
EIG_FLOOR = 1e-12


def as_matrix(a: ArrayLike, name: str = "matrix") -> np.ndarray:
    """Convert ``a`` to a float 2-D square ndarray, validating its shape."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NotSPDError(f"{name} contains non-finite entries")
    return arr


def as_samples(x: ArrayLike, name: str = "samples") -> np.ndarray:
    """Convert ``x`` to a float ``(n, d)`` sample matrix.

    A 1-D array is promoted to a single-feature column ``(n, 1)``, matching
    the convention that rows are observations.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 1-D or 2-D, got ndim={arr.ndim}")
    if arr.shape[0] == 0:
        raise DimensionError(f"{name} must contain at least one row")
    if not np.isfinite(arr).all():
        raise DimensionError(f"{name} contains non-finite entries")
    return arr


def symmetrize(a: ArrayLike) -> np.ndarray:
    """Return the symmetric part ``(A + A^T) / 2`` of a square matrix."""
    arr = as_matrix(a)
    return (arr + arr.T) / 2.0


def _symmetric_within(arr: np.ndarray, tol: float) -> bool:
    """:func:`is_symmetric` of an array :func:`as_matrix` already checked."""
    scale = max(1.0, float(np.max(np.abs(arr))))
    return bool(np.max(np.abs(arr - arr.T)) <= tol * scale)


def is_symmetric(a: ArrayLike, tol: float = SYM_TOL) -> bool:
    """Check symmetry of ``a`` to relative tolerance ``tol``."""
    return _symmetric_within(as_matrix(a), tol)


def is_spd(a: ArrayLike, tol: float = SYM_TOL) -> bool:
    """Check whether ``a`` is symmetric positive definite via Cholesky."""
    arr = as_matrix(a)
    if not _symmetric_within(arr, tol):
        return False
    try:
        np.linalg.cholesky((arr + arr.T) / 2.0)
    except np.linalg.LinAlgError:
        return False
    return True


def assert_spd(a: ArrayLike, name: str = "matrix", tol: float = SYM_TOL) -> np.ndarray:
    """Return the symmetrised matrix, raising :class:`NotSPDError` if not SPD.

    ``a`` is converted and checked once; the symmetry test and the
    symmetrisation both work on that one array.
    """
    arr = as_matrix(a, name)
    if not _symmetric_within(arr, tol):
        raise NotSPDError(f"{name} is not symmetric")
    sym = (arr + arr.T) / 2.0
    try:
        np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as exc:
        raise NotSPDError(f"{name} is not positive definite") from exc
    return sym


def cholesky_safe(a: ArrayLike, name: str = "matrix") -> np.ndarray:
    """Cholesky factor of ``a`` with one jitter retry before failing.

    Returns the lower-triangular factor ``L`` with ``a = L @ L.T``.  If the
    plain factorisation fails, a small diagonal jitter proportional to the
    mean diagonal is added once; if that also fails, :class:`NotSPDError`
    is raised.
    """
    arr = symmetrize(as_matrix(a, name))
    try:
        return np.linalg.cholesky(arr)
    except np.linalg.LinAlgError:
        pass
    jittered = jitter_spd(arr)
    try:
        return np.linalg.cholesky(jittered)
    except np.linalg.LinAlgError as exc:
        raise NotSPDError(f"{name} is not positive definite even after jitter") from exc


def inv_spd(a: ArrayLike, name: str = "matrix") -> np.ndarray:
    """Symmetrised inverse of a (nominally SPD) matrix.

    ``np.linalg.inv`` of a symmetric matrix is only symmetric up to
    rounding; the asymmetry then leaks into posterior updates and
    eventually fails an :func:`assert_spd` downstream.  This wrapper
    re-symmetrises the inverse and converts LAPACK's bare ``LinAlgError``
    into the library's :class:`~repro.exceptions.SingularMatrixError`.
    """
    arr = as_matrix(a, name)
    try:
        inv = np.linalg.inv(arr)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"{name} is singular and cannot be inverted") from exc
    return (inv + inv.T) / 2.0


def solve_spd(a: ArrayLike, b: ArrayLike, name: str = "matrix") -> np.ndarray:
    """Solve ``a @ x = b`` for a (nominally SPD) coefficient matrix.

    Thin deterministic wrapper over ``np.linalg.solve`` — identical bits to
    a raw call — that raises :class:`~repro.exceptions.SingularMatrixError`
    instead of a bare ``LinAlgError``.  Prefer this over forming
    :func:`inv_spd` explicitly when only the product is needed.
    """
    arr = as_matrix(a, name)
    rhs = np.asarray(b, dtype=float)
    try:
        return np.linalg.solve(arr, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"{name} is singular; cannot solve") from exc


def jitter_spd(a: ArrayLike, rel: float = 1e-10) -> np.ndarray:
    """Add a relative diagonal jitter to nudge a matrix towards SPD."""
    arr = symmetrize(as_matrix(a))
    d = arr.shape[0]
    scale = float(np.trace(arr)) / max(d, 1)
    if scale <= 0.0:
        scale = 1.0
    return arr + np.eye(d) * scale * rel


def clip_eigenvalues(a: ArrayLike, floor_rel: float = EIG_FLOOR) -> np.ndarray:
    """Clip the eigenvalues of a symmetric matrix to a relative floor.

    The floor is ``floor_rel * max(eigenvalue, 1)`` so a zero matrix still
    receives a strictly positive spectrum.
    """
    arr = symmetrize(as_matrix(a))
    vals, vecs = np.linalg.eigh(arr)
    floor = floor_rel * max(float(vals[-1]), 1.0)
    vals = np.maximum(vals, floor)
    return symmetrize(vecs @ np.diag(vals) @ vecs.T)


def nearest_spd(a: ArrayLike, floor_rel: float = EIG_FLOOR) -> np.ndarray:
    """Project a square matrix to the nearest SPD matrix (Higham, 1988).

    Takes the symmetric part, replaces it by its positive polar factor
    average, and clips residual non-positive eigenvalues.  The result is
    guaranteed to pass :func:`is_spd`.
    """
    arr = as_matrix(a)
    sym = symmetrize(arr)
    # Polar decomposition of the symmetric part via SVD.
    _, s, vt = np.linalg.svd(sym)
    h = symmetrize(vt.T @ np.diag(s) @ vt)
    candidate = symmetrize((sym + h) / 2.0)
    candidate = clip_eigenvalues(candidate, floor_rel)
    # One extra clip pass covers pathological rounding.
    if not is_spd(candidate):
        candidate = clip_eigenvalues(candidate, floor_rel * 10)
    return candidate
