"""Session store: lifecycle, LRU/TTL eviction, snapshots, exact state."""

import numpy as np
import pytest

from repro.core.bmf import BMFEstimator
from repro.core.prior import PriorKnowledge
from repro.exceptions import ConfigError, DimensionError, SessionNotFoundError
from repro.serving.sessions import Session, SessionStore


@pytest.fixture
def prior(rng) -> PriorKnowledge:
    a = rng.standard_normal((4, 4))
    return PriorKnowledge(rng.standard_normal(4), a @ a.T + 4.0 * np.eye(4))


def make_store(**kwargs) -> SessionStore:
    return SessionStore(**kwargs)


class TestSession:
    def test_ingest_row_and_block(self, prior, rng):
        session = Session("k", prior, 2.0, 7.0)
        assert session.ingest(rng.standard_normal(4)) == 1
        assert session.ingest(rng.standard_normal((5, 4))) == 6
        assert session.n_ingested == 6

    def test_map_moments_match_estimator(self, prior, rng):
        x = rng.standard_normal((30, 4))
        session = Session("k", prior, 2.0, 7.0)
        session.ingest(x)
        mu, sigma = session.map_moments()
        ref = BMFEstimator(prior, kappa0=2.0, v0=7.0).estimate(x)
        np.testing.assert_allclose(mu, ref.mean, atol=1e-10)
        np.testing.assert_allclose(sigma, ref.covariance, atol=1e-10)

    def test_hyperparam_validation(self, prior):
        with pytest.raises(ConfigError):
            Session("k", prior, 0.0, 7.0)
        with pytest.raises(ConfigError):
            Session("k", prior, 1.0, 4.0)  # v0 must exceed d = 4

    @pytest.mark.parametrize(
        "kappa0, v0",
        [(np.nan, 7.0), (np.inf, 7.0), (1.0, np.nan), (1.0, np.inf)],
    )
    def test_rejects_non_finite_hyperparams(self, prior, kappa0, v0):
        with pytest.raises(ConfigError, match="finite"):
            Session("k", prior, kappa0, v0)

    def test_dict_round_trip_exact(self, prior, rng):
        session = Session("k", prior, 2.0, 7.0, created_op=5)
        session.ingest(rng.standard_normal((9, 4)))
        session.last_used_op = 11
        restored = Session.from_dict(session.to_dict())
        assert restored.key == "k"
        assert restored.kappa0 == 2.0
        assert restored.created_op == 5
        assert restored.last_used_op == 11
        assert restored.stats == session.stats  # bit-exact
        assert np.array_equal(restored.prior.mean, prior.mean)

    def test_from_dict_rejects_malformed(self, prior):
        payload = Session("k", prior, 2.0, 7.0).to_dict()
        del payload["kappa0"]
        with pytest.raises(ConfigError):
            Session.from_dict(payload)
        bad = Session("k", prior, 2.0, 7.0).to_dict()
        bad["stats"]["mean"] = [0.0]  # dim mismatch vs 4-d prior
        with pytest.raises(DimensionError):
            Session.from_dict(bad)


class TestSessionStore:
    def test_create_get_drop(self, prior):
        store = make_store()
        store.create("a", prior, 1.0, 6.0)
        assert "a" in store
        assert len(store) == 1
        assert store.get("a").key == "a"
        assert store.drop("a")
        assert not store.drop("a")
        with pytest.raises(SessionNotFoundError):
            store.get("a")

    def test_duplicate_create(self, prior):
        store = make_store()
        first = store.create("a", prior, 1.0, 6.0)
        with pytest.raises(ConfigError):
            store.create("a", prior, 1.0, 6.0)
        again = store.create("a", prior, 2.0, 8.0, exist_ok=True)
        assert again is first
        assert again.kappa0 == 1.0  # existing session untouched

    def test_lru_capacity_eviction(self, prior):
        store = make_store(max_sessions=2)
        store.create("a", prior, 1.0, 6.0)
        store.create("b", prior, 1.0, 6.0)
        store.get("a")  # refresh "a"; "b" becomes LRU
        store.create("c", prior, 1.0, 6.0)
        assert store.keys() == ["a", "c"]
        assert store.evictions == 1

    def test_ttl_eviction_is_logical(self, prior):
        store = make_store(ttl_ops=3)
        store.create("a", prior, 1.0, 6.0)
        store.create("b", prior, 1.0, 6.0)
        # keep "b" warm while the clock advances past "a"'s ttl
        for _ in range(4):
            store.get("b")
        assert "a" not in store
        assert "b" in store
        assert store.evictions == 1

    def test_invalid_bounds(self):
        with pytest.raises(ConfigError):
            make_store(max_sessions=0)
        with pytest.raises(ConfigError):
            make_store(ttl_ops=0)

    def test_snapshot_is_detached(self, prior, rng):
        store = make_store()
        store.create("a", prior, 1.0, 6.0)
        store.ingest("a", rng.standard_normal((5, 4)))
        frozen = store.snapshot(["a"])[0]
        store.ingest("a", rng.standard_normal(4))
        assert frozen.n_ingested == 5
        assert store.get("a").n_ingested == 6

    def test_store_round_trip_preserves_eviction_behavior(self, prior, rng):
        """Restored stores make identical eviction decisions — clock and
        LRU order are part of the serialized state."""
        store = make_store(max_sessions=2, ttl_ops=10)
        store.create("a", prior, 1.0, 6.0)
        store.create("b", prior, 1.0, 6.0)
        store.ingest("a", rng.standard_normal((3, 4)))  # "a" is now MRU
        twin = SessionStore.from_dict(store.to_dict())
        assert twin.clock == store.clock
        assert twin.keys() == store.keys()
        store.create("c", prior, 1.0, 6.0)
        twin.create("c", prior, 1.0, 6.0)
        assert store.keys() == twin.keys() == ["a", "c"]

    def test_ingest_unknown_key(self, prior, rng):
        store = make_store()
        with pytest.raises(SessionNotFoundError):
            store.ingest("ghost", rng.standard_normal(4))
