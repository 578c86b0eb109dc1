"""Batched dense linear algebra for stacks of small SPD matrices.

The hyper-parameter searches (Sec. 4.2 cross validation, the evidence
selector, the multi-population tau search) all score *many* small Gaussians
at once: one candidate covariance per grid point per fold.  Doing that with
one :class:`~repro.stats.multivariate_gaussian.MultivariateGaussian` per
candidate costs a Python-level Cholesky factorisation each — thousands of
interpreter round-trips per search.  The primitives here operate on a
``(B, d, d)`` stack in a handful of NumPy gufunc calls instead.

Numerical policy
----------------
The scalar helpers in :mod:`repro.linalg.validation` define the repair
policy (plain Cholesky, one diagonal-jitter retry, eigenvalue-clip
fallback).  The batched versions reproduce it *matrix for matrix*: the same
LAPACK routines run on the same inputs, so a candidate takes the same
repair branch whether it is scored through the scalar loop or the batched
kernel.  This is what lets the cross-validation equivalence suite demand
``1e-10`` agreement between the two paths.

Failures are reported through boolean masks rather than exceptions: a
stack is allowed to contain irreparable (indefinite or non-finite)
members, which callers score as ``-inf``.

Failure isolation
-----------------
``np.linalg.cholesky`` raises for the whole stack when any member is
indefinite.  :func:`cholesky_batched` finds the failing members by
bisection, so every member that factors is still factored by the same
LAPACK call a scalar path would make.  Triangular solves run a Python
loop over the ``d`` rows only, vectorised over the batch and the
right-hand sides.  reprolint RPL002 keeps code outside ``repro.linalg``
on these wrappers instead of raw ``np.linalg`` calls.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.typing import ArrayLike

from repro.exceptions import DimensionError, SingularMatrixError
from repro.linalg.validation import EIG_FLOOR

__all__ = [
    "as_spd_stack",
    "cholesky_batched",
    "cholesky_batched_safe",
    "solve_batched",
    "solve_triangular_batched",
    "logdet_batched",
    "mahalanobis_sq_batched",
    "clip_eigenvalues_batched",
    "jitter_spd_batched",
    "symmetrize_batched",
]


def as_spd_stack(a: ArrayLike, name: str = "stack") -> np.ndarray:
    """Convert ``a`` to a float ``(B, d, d)`` stack of square matrices.

    A single ``(d, d)`` matrix is promoted to a one-element stack.  Unlike
    :func:`repro.linalg.validation.as_matrix` this does *not* reject
    non-finite entries — batched callers handle bad members via masks.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3:
        raise DimensionError(f"{name} must be (B, d, d), got ndim={arr.ndim}")
    if arr.shape[1] != arr.shape[2]:
        raise DimensionError(f"{name} members must be square, got shape {arr.shape}")
    return arr


def symmetrize_batched(stack: ArrayLike) -> np.ndarray:
    """Symmetric part ``(A + A^T) / 2`` of every member of the stack."""
    arr = as_spd_stack(stack)
    return (arr + np.swapaxes(arr, -1, -2)) / 2.0


def cholesky_batched(stack: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a ``(B, d, d)`` stack with a failure mask.

    Returns ``(L, ok)`` where ``L[i]`` satisfies
    ``stack[i] = L[i] @ L[i].T`` wherever ``ok[i]`` is True.  Members that
    are indefinite or contain non-finite entries get ``ok[i] = False`` and
    an all-zero factor; no exception is raised for them.
    """
    arr = as_spd_stack(stack)
    out = np.zeros_like(arr)
    ok = np.zeros(arr.shape[0], dtype=bool)
    finite = np.isfinite(arr).all(axis=(1, 2))
    _cholesky_into(arr, np.flatnonzero(finite), out, ok)
    return out, ok


def _cholesky_into(
    arr: np.ndarray, idx: np.ndarray, out: np.ndarray, ok: np.ndarray
) -> None:
    """Factor ``arr[idx]`` into ``out``, isolating failures by bisection.

    ``np.linalg.cholesky`` raises for the whole batch when any member is
    indefinite, without saying which; recursively splitting the failing
    range finds the stragglers in ``O(log B)`` gufunc calls when failures
    are rare (the common case) while every *successful* member is still
    factored by the exact same LAPACK routine a scalar call would use.
    """
    if idx.size == 0:
        return
    try:
        out[idx] = np.linalg.cholesky(arr[idx])
        ok[idx] = True
        return
    except np.linalg.LinAlgError:
        if idx.size == 1:
            return
    mid = idx.size // 2
    _cholesky_into(arr, idx[:mid], out, ok)
    _cholesky_into(arr, idx[mid:], out, ok)


def jitter_spd_batched(stack: ArrayLike, rel: float = 1e-10) -> np.ndarray:
    """Batched :func:`repro.linalg.validation.jitter_spd` (same arithmetic)."""
    arr = symmetrize_batched(stack)
    d = arr.shape[-1]
    scale = np.trace(arr, axis1=-2, axis2=-1) / max(d, 1)
    scale = np.where(scale <= 0.0, 1.0, scale)
    return arr + np.eye(d) * (scale * rel)[:, None, None]


def clip_eigenvalues_batched(stack: ArrayLike, floor_rel: float = EIG_FLOOR) -> np.ndarray:
    """Batched :func:`repro.linalg.validation.clip_eigenvalues`.

    Every member's spectrum is clipped to ``floor_rel * max(eig_max, 1)``;
    the eigendecomposition and reconstruction use the same LAPACK/BLAS
    kernels as the scalar helper, keeping the two numerically identical.
    Non-finite members are returned unchanged (they stay irreparable).
    """
    arr = symmetrize_batched(stack)
    out = arr.copy()
    finite = np.isfinite(arr).all(axis=(1, 2))
    sel = np.flatnonzero(finite)
    if sel.size == 0:
        return out
    vals, vecs = np.linalg.eigh(arr[sel])
    floor = floor_rel * np.maximum(vals[:, -1], 1.0)
    vals = np.maximum(vals, floor[:, None])
    rebuilt = (vecs * vals[:, None, :]) @ np.swapaxes(vecs, -1, -2)
    out[sel] = (rebuilt + np.swapaxes(rebuilt, -1, -2)) / 2.0
    return out


def cholesky_batched_safe(
    stack: ArrayLike,
    jitter_rel: float = 1e-10,
    clip_floor_rel: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched Cholesky with the scalar code's full repair ladder.

    Mirrors what the scoring loops do per candidate:

    1. plain Cholesky (:func:`cholesky_batched`);
    2. failed members: one diagonal-jitter retry
       (:func:`repro.linalg.validation.jitter_spd` semantics);
    3. still failing and ``clip_floor_rel`` is given: eigenvalue-clip the
       *original* matrix and run steps 1–2 on the repaired version —
       exactly the ``clip_eigenvalues`` fallback of
       :class:`~repro.core.crossval.TwoDimensionalCV`;
    4. anything still failing is reported via ``ok = False``.

    The input is symmetrised first, as every scalar entry point does.
    Returns ``(L, ok)``.
    """
    arr = symmetrize_batched(stack)
    chol, ok = cholesky_batched(arr)
    if not ok.all():
        bad = np.flatnonzero(~ok)
        finite = np.isfinite(arr[bad]).all(axis=(1, 2))
        bad = bad[finite]
        if bad.size:
            retry, retry_ok = cholesky_batched(jitter_spd_batched(arr[bad], jitter_rel))
            chol[bad[retry_ok]] = retry[retry_ok]
            ok[bad[retry_ok]] = True
    if clip_floor_rel is not None and not ok.all():
        bad = np.flatnonzero(~ok)
        finite = np.isfinite(arr[bad]).all(axis=(1, 2))
        bad = bad[finite]
        if bad.size:
            clipped = clip_eigenvalues_batched(arr[bad], clip_floor_rel)
            retry, retry_ok = cholesky_batched_safe(clipped, jitter_rel, None)
            chol[bad[retry_ok]] = retry[retry_ok]
            ok[bad[retry_ok]] = True
    return chol, ok


def solve_batched(systems: np.ndarray, rhs: np.ndarray, name: str = "systems") -> np.ndarray:
    """Solve a stack of square systems ``systems[...] @ x = rhs[...]``.

    ``systems`` is ``(..., m, m)`` and ``rhs`` is ``(..., m)`` (the vector
    RHS convention of the MNA engine); the result has ``rhs``'s shape.
    Unlike the SPD helpers this accepts *general* (including complex,
    non-symmetric) matrices — it exists so callers get the library's
    :class:`~repro.exceptions.SingularMatrixError` taxonomy and a single
    audited entry point instead of scattering raw ``np.linalg.solve``
    calls.  The arithmetic is a verbatim pass-through: bit-identical to
    the raw call.
    """
    try:
        return np.linalg.solve(systems, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"{name}: singular stacked system") from exc


def solve_triangular_batched(chol: ArrayLike, rhs: ArrayLike, lower: bool = True) -> np.ndarray:
    """Solve ``L[i] x[i] = rhs[i]`` for a stack of triangular systems.

    ``chol`` is ``(B, d, d)``; ``rhs`` is ``(B, d)`` or ``(B, d, k)``.
    Forward (``lower=True``) or backward substitution, vectorised over
    the batch with a Python loop over the ``d`` rows only, so the cost is
    ``O(d)`` interpreter steps regardless of ``B`` and ``k``.
    """
    factors = as_spd_stack(chol, "chol")
    b = np.asarray(rhs, dtype=float)
    squeeze = b.ndim == 2
    if squeeze:
        b = b[:, :, None]
    if b.ndim != 3 or b.shape[0] != factors.shape[0] or b.shape[1] != factors.shape[1]:
        raise DimensionError(
            f"rhs shape {np.asarray(rhs).shape} incompatible with chol {factors.shape}"
        )
    x = _solve_triangular(factors, b, lower)
    return x[:, :, 0] if squeeze else x


def _solve_triangular(factors: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """Row-recurrence substitution over validated ``(B, d, d)``/``(B, d, k)`` stacks."""
    d = factors.shape[1]
    x = np.empty_like(b)
    rows = range(d) if lower else range(d - 1, -1, -1)
    for i in rows:
        if lower:
            acc = np.einsum("bj,bjk->bk", factors[:, i, :i], x[:, :i, :]) if i else 0.0
        else:
            acc = (
                np.einsum("bj,bjk->bk", factors[:, i, i + 1 :], x[:, i + 1 :, :])
                if i < d - 1
                else 0.0
            )
        x[:, i, :] = (b[:, i, :] - acc) / factors[:, i, i, None]
    return x


def logdet_batched(chol: ArrayLike) -> np.ndarray:
    """``log |Sigma_i|`` from the stacked Cholesky factors, shape ``(B,)``."""
    factors = as_spd_stack(chol, "chol")
    diag = np.diagonal(factors, axis1=-2, axis2=-1)
    return 2.0 * np.sum(np.log(diag), axis=-1)


def mahalanobis_sq_batched(chol: ArrayLike, means: ArrayLike, x: ArrayLike) -> np.ndarray:
    """Squared Mahalanobis distances of ``x`` rows under ``B`` Gaussians.

    ``chol`` is the ``(B, d, d)`` stack of covariance Cholesky factors,
    ``means`` is ``(B, d)`` and ``x`` is a shared ``(n, d)`` sample matrix.
    Returns ``(B, n)``.
    """
    factors = as_spd_stack(chol, "chol")
    mu = np.asarray(means, dtype=float)
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if mu.ndim != 2 or mu.shape != factors.shape[:2]:
        raise DimensionError(
            f"means shape {mu.shape} does not match chol stack {factors.shape}"
        )
    if pts.ndim != 2 or pts.shape[1] != factors.shape[1]:
        raise DimensionError(
            f"x has {pts.shape[-1] if pts.ndim else 0} columns, expected {factors.shape[1]}"
        )
    diff = np.swapaxes(pts[None, :, :] - mu[:, None, :], -1, -2)  # (B, d, n)
    z = _solve_triangular(factors, diff, True)
    return np.sum(z * z, axis=1)
