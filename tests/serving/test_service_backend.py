"""ShardWorker kernel-backend knob: scoping, equivalence, restore."""

import numpy as np
import pytest

from repro.core.prior import PriorKnowledge
from repro.exceptions import BackendUnavailableError
from repro.linalg.backends import available_backends
from repro.serving import ShardWorker

D = 4

numba_available = "numba" in available_backends("kernels")


def build_service(linalg_backend=None, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((D, D))
    prior = PriorKnowledge(rng.standard_normal(D), a @ a.T + D * np.eye(D))
    service = ShardWorker(linalg_backend=linalg_backend)
    service.create_session("pop", prior, kappa0=2.0, v0=D + 3.0)
    service.ingest("pop", rng.standard_normal((64, D)))
    return service


def score(service, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((6, D))
    return service.query_many([("estimate", "pop", None), ("loglik", "pop", x)])


class TestLinalgBackendKnob:
    def test_default_none_keeps_ambient(self):
        estimate, loglik = score(build_service())
        assert estimate.mean.shape == (D,)
        assert np.isfinite(loglik)

    def test_explicit_numpy_matches_default(self):
        default_est, default_ll = score(build_service())
        numpy_est, numpy_ll = score(build_service(linalg_backend="numpy"))
        assert np.array_equal(numpy_est.mean, default_est.mean)
        assert np.array_equal(numpy_est.covariance, default_est.covariance)
        assert numpy_ll == default_ll

    @pytest.mark.skipif(numba_available, reason="numba installed")
    def test_missing_backend_surfaces_at_query_time(self):
        service = build_service(linalg_backend="numba")
        with pytest.raises(BackendUnavailableError):
            score(service)

    @pytest.mark.skipif(not numba_available, reason="numba not importable")
    def test_numba_scoring_agrees_with_numpy(self):
        numpy_est, numpy_ll = score(build_service(linalg_backend="numpy"))
        numba_est, numba_ll = score(build_service(linalg_backend="numba"))
        np.testing.assert_allclose(numba_est.mean, numpy_est.mean, atol=1e-10)
        np.testing.assert_allclose(
            numba_est.covariance, numpy_est.covariance, atol=1e-10
        )
        assert numba_ll == pytest.approx(numpy_ll, abs=1e-8)

    def test_restore_accepts_backend_knob(self, tmp_path):
        service = build_service()
        path = tmp_path / "ckpt.json"
        service.checkpoint(path)
        restored = ShardWorker.restore(path, linalg_backend="numpy")
        orig_est, orig_ll = score(service)
        rest_est, rest_ll = score(restored)
        assert np.array_equal(rest_est.mean, orig_est.mean)
        assert rest_ll == orig_ll
