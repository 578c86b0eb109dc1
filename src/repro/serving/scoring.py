"""Grouped batch scoring: the arithmetic core shared by every serving layer.

One :class:`BatchScorer` answers a list of coalesced
:class:`~repro.serving.queue.Request` objects by grouping them into
stacked-kernel calls:

``estimate``
    one vectorised Eq. (31)–(32) pass per distinct metric dimension
    (:func:`~repro.core.bmf.map_moments_stack`);
``loglik``
    one ``cholesky_batched_safe`` + ``solve_triangular_batched`` stack per
    ``(d, n_rows)`` group, mirroring
    :func:`repro.stats.multivariate_gaussian.gaussian_loglik_batch`;
``yield``
    one :func:`~repro.yieldest.parametric.gaussian_box_probabilities`
    call per distinct bounds set.

The scorer is deliberately ignorant of *where* sessions live: callers
supply a ``snapshot_one(key) -> Session`` callable.  A shard worker
hands it a snapshot of its own store slice; the shard router hands it
sessions whose sufficient statistics were Chan-merged from many workers
(merge-on-read).  Both therefore answer through literally the same code,
which is what makes the sharded equivalence guarantees cheap to state: any
difference is in the statistics handed in, never in the scoring.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.core.bmf import map_moments_stack
from repro.core.estimators import MomentEstimate
from repro.exceptions import DimensionError, ReproError, SpecificationError
from repro.linalg.backends import use_kernel_backend
from repro.linalg.batched import (
    cholesky_batched_safe,
    logdet_batched,
    solve_triangular_batched,
)
from repro.serving.counters import ServiceCounters
from repro.serving.queue import Request
from repro.serving.sessions import Session
from repro.yieldest.parametric import gaussian_box_probabilities

__all__ = ["BatchScorer", "SnapshotFn"]

_LOG_2PI = math.log(2.0 * math.pi)

#: Jitter/clip policy for batched covariance factorisation; identical to
#: :func:`repro.stats.multivariate_gaussian.gaussian_loglik_batch`.
_CHOL_JITTER = 1e-10
_CHOL_CLIP = 1e-10

#: Resolves a session key to a frozen :class:`Session` snapshot; raises a
#: :class:`~repro.exceptions.ReproError` subclass when the key cannot be
#: served (missing session, failed shard collection, ...).
SnapshotFn = Callable[[str], Session]


class BatchScorer:
    """Answers request batches through grouped stacked-kernel calls.

    Parameters
    ----------
    counters:
        Error/latency sink (request-rate accounting stays with the caller,
        which knows whether a request was freshly accepted or replayed).
    linalg_backend:
        Kernel backend for the stacked SPD math (``None`` keeps the
        ambient process selection; see
        :func:`repro.linalg.backends.use_kernel_backend`).
    """

    def __init__(
        self,
        counters: ServiceCounters,
        linalg_backend: "str | None" = None,
    ) -> None:
        self.counters = counters
        self.linalg_backend = linalg_backend

    # ------------------------------------------------------------------
    def score(self, requests: List[Request], snapshot_one: SnapshotFn) -> None:
        """Answer every request, grouping work into stacked-kernel calls."""
        with use_kernel_backend(self.linalg_backend):
            self._score_impl(requests, snapshot_one)

    # ------------------------------------------------------------------
    def _finish(self, request: Request, result: Any) -> None:
        if not request.future.done():
            request.future.set_result(result)
        if request.submitted_at > 0.0:
            self.counters.record_latency(time.perf_counter() - request.submitted_at)

    def _fail(self, request: Request, exc: BaseException) -> None:
        self.counters.record_error()
        if not request.future.done():
            request.future.set_exception(exc)

    # ------------------------------------------------------------------
    def _score_impl(self, requests: List[Request], snapshot_one: SnapshotFn) -> None:
        # 1. snapshot each distinct session once (consistent view per batch)
        sessions: Dict[str, Session] = {}
        live: List[Request] = []
        for request in requests:
            if request.key not in sessions:
                try:
                    sessions[request.key] = snapshot_one(request.key)
                except ReproError as exc:
                    self._fail(request, exc)
                    continue
            live.append(request)

        # drop requests whose key failed to snapshot on a *later* request
        live = [r for r in live if r.key in sessions]
        if not live:
            return

        # 2. one stacked MAP pass per distinct metric dimension
        keys_by_dim: Dict[int, List[str]] = {}
        for key in sessions:
            keys_by_dim.setdefault(sessions[key].dim, []).append(key)
        moments: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for dim in sorted(keys_by_dim):
            keys = keys_by_dim[dim]
            group = [sessions[key] for key in keys]
            try:
                mu, sigma = map_moments_stack(
                    np.stack([s.prior.mean for s in group]),
                    np.stack([s.prior.covariance for s in group]),
                    np.asarray([s.kappa0 for s in group]),
                    np.asarray([s.v0 for s in group]),
                    np.asarray([s.stats.n for s in group]),
                    np.stack([s.stats.mean for s in group]),
                    np.stack([s.stats.scatter for s in group]),
                )
            except ReproError as exc:
                bad = set(keys)
                for request in live:
                    if request.key in bad:
                        self._fail(request, exc)
                live = [r for r in live if r.key not in bad]
                continue
            for i, key in enumerate(keys):
                moments[key] = (mu[i], sigma[i])

        # 3. answer by kind
        for request in live:
            if request.kind == "estimate":
                mean, cov = moments[request.key]
                session = sessions[request.key]
                self._finish(
                    request,
                    MomentEstimate(
                        mean=mean,
                        covariance=cov,
                        n_samples=session.stats.n,
                        method="bmf",
                        info={
                            "kappa0": session.kappa0,
                            "v0": session.v0,
                            "serving": True,
                        },
                    ),
                )
        self._score_loglik(
            [r for r in live if r.kind == "loglik"], sessions, moments
        )
        self._score_yield(
            [r for r in live if r.kind == "yield"], sessions, moments
        )

    def _score_loglik(
        self,
        requests: List[Request],
        sessions: Dict[str, Session],
        moments: Dict[str, Tuple[np.ndarray, np.ndarray]],
    ) -> None:
        """Grouped log-likelihood: one Cholesky stack per ``(d, n)`` shape.

        Mirrors :func:`repro.stats.multivariate_gaussian.gaussian_loglik_batch`
        — same repair ladder, same per-row-then-sum accumulation order —
        but with a *per-request* sample block instead of one shared one.
        """
        groups: Dict[Tuple[int, int], List[Tuple[Request, np.ndarray]]] = {}
        for request in requests:
            session = sessions[request.key]
            try:
                x = np.asarray(request.payload, dtype=float)
                if x.ndim == 1:
                    x = x[None, :]
                if x.ndim != 2 or x.shape[1] != session.dim:
                    raise DimensionError(
                        f"loglik payload must be (n, {session.dim}), "
                        f"got shape {np.asarray(request.payload).shape}"
                    )
                if x.shape[0] == 0:
                    raise DimensionError("loglik payload must contain >= 1 row")
            except (ReproError, TypeError, ValueError) as exc:
                self._fail(request, exc)
                continue
            groups.setdefault((session.dim, x.shape[0]), []).append((request, x))

        for dim, n_rows in sorted(groups):
            members = groups[(dim, n_rows)]
            covs = np.stack([moments[req.key][1] for req, _ in members])
            means = np.stack([moments[req.key][0] for req, _ in members])
            xs = np.stack([x for _, x in members])
            chol, ok = cholesky_batched_safe(
                covs, jitter_rel=_CHOL_JITTER, clip_floor_rel=_CHOL_CLIP
            )
            out = np.full(len(members), -np.inf)
            sel = np.flatnonzero(ok)
            if sel.size:
                diffs = np.swapaxes(xs[sel] - means[sel][:, None, :], -1, -2)
                z = solve_triangular_batched(chol[sel], diffs, lower=True)
                maha = np.sum(z * z, axis=1)
                log_det = logdet_batched(chol[sel])
                logpdf = -0.5 * (dim * _LOG_2PI + log_det[:, None] + maha)
                out[sel] = logpdf.sum(axis=1)
            for i, (request, _) in enumerate(members):
                self._finish(request, float(out[i]))

    def _score_yield(
        self,
        requests: List[Request],
        sessions: Dict[str, Session],
        moments: Dict[str, Tuple[np.ndarray, np.ndarray]],
    ) -> None:
        """Grouped box-probability yield: one stacked call per bounds set."""
        groups: Dict[Tuple[float, ...], List[Request]] = {}
        bounds: Dict[Tuple[float, ...], Tuple[np.ndarray, np.ndarray]] = {}
        for request in requests:
            session = sessions[request.key]
            try:
                lower, upper = request.payload
                lo = np.atleast_1d(np.asarray(lower, dtype=float))
                hi = np.atleast_1d(np.asarray(upper, dtype=float))
                if lo.shape != (session.dim,) or hi.shape != (session.dim,):
                    raise SpecificationError(
                        f"yield bounds must be length-{session.dim} vectors"
                    )
                if np.any(lo >= hi):
                    raise SpecificationError("yield bounds must satisfy lower < upper")
            except (ReproError, TypeError, ValueError) as exc:
                self._fail(request, exc)
                continue
            group_key = tuple(lo.tolist()) + tuple(hi.tolist())
            groups.setdefault(group_key, []).append(request)
            bounds[group_key] = (lo, hi)

        for group_key in sorted(groups):
            members = groups[group_key]
            lo, hi = bounds[group_key]
            means = np.stack([moments[req.key][0] for req in members])
            covs = np.stack([moments[req.key][1] for req in members])
            try:
                probs = gaussian_box_probabilities(means, covs, lo, hi)
            except ReproError as exc:
                for request in members:
                    self._fail(request, exc)
                continue
            for i, request in enumerate(members):
                self._finish(request, float(probs[i]))
