"""MNA backend selection, and the batched SPD primitives against LAPACK."""

import numpy as np
import pytest

from repro.exceptions import BackendUnavailableError, ConfigError
from repro.linalg import cholesky_batched, mahalanobis_sq_batched
from repro.linalg.backends import (
    DENSE_AUTO_MAX_REDUCED_SIZE,
    resolve_mna_backend,
    sparse_mna,
)

scipy_available = sparse_mna.is_available()


def spd_stack(rng, b=16, d=5):
    a = rng.standard_normal((b, d, d))
    return a @ np.swapaxes(a, -1, -2) + d * np.eye(d)


class TestMnaSelection:
    def test_explicit_dense_always_resolves(self):
        assert resolve_mna_backend("dense", 10_000) == "dense"

    def test_auto_small_system_stays_dense(self):
        assert resolve_mna_backend("auto", DENSE_AUTO_MAX_REDUCED_SIZE) == "dense"
        assert resolve_mna_backend(None, 3) == "dense"

    @pytest.mark.skipif(not scipy_available, reason="scipy not importable")
    def test_auto_large_system_goes_sparse(self):
        assert (
            resolve_mna_backend("auto", DENSE_AUTO_MAX_REDUCED_SIZE + 1) == "sparse"
        )

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(ConfigError, match="dense, sparse"):
            resolve_mna_backend("umfpack", 10)

    def test_auto_without_scipy_falls_back_dense(self, monkeypatch):
        monkeypatch.setattr(sparse_mna, "is_available", lambda: False)
        assert resolve_mna_backend("auto", 10_000) == "dense"
        with pytest.raises(BackendUnavailableError, match="scipy"):
            resolve_mna_backend("sparse", 100)


class TestNumpyBackendIsDefaultPath:
    """The batched primitives are plain LAPACK/NumPy arithmetic."""

    def test_cholesky_bit_identical_to_direct_lapack(self, rng):
        stack = spd_stack(rng)
        chol, ok = cholesky_batched(stack)
        assert ok.all()
        assert np.array_equal(chol, np.linalg.cholesky(stack))

    def test_mahalanobis_matches_explicit_solve(self, rng):
        stack = spd_stack(rng)
        mu = rng.standard_normal((stack.shape[0], 5))
        x = rng.standard_normal((9, 5))
        chol, _ = cholesky_batched(stack)
        maha = mahalanobis_sq_batched(chol, mu, x)
        diff = np.swapaxes(x[None, :, :] - mu[:, None, :], -1, -2)
        z = np.linalg.solve(chol, diff)
        assert np.allclose(maha, np.sum(z**2, axis=1), rtol=0, atol=1e-10)
