"""``repro.bench.timing``: best-of and batched best-of on a fake clock."""

import pytest

from repro.bench import timing


@pytest.fixture
def clock(monkeypatch):
    """A perf_counter that only moves when a timed call advances it."""
    now = {"t": 0.0}
    monkeypatch.setattr(timing.time, "perf_counter", lambda: now["t"])
    return now


def test_best_of_returns_the_fastest_call_and_its_result(clock):
    costs = iter([3.0, 1.0, 2.0])

    def call():
        cost = next(costs)
        clock["t"] += cost
        return cost

    assert timing.best_of(call, 3) == (1.0, 1.0)


def test_batched_doubles_calls_until_a_batch_fills_the_window(clock):
    calls = []

    def call():
        clock["t"] += 0.002
        calls.append(None)
        return len(calls)

    seconds, result = timing.best_of_batched(call, repeats=3, window_s=0.01)
    # calibration runs 1, 2, 4, 8 calls (8 x 2 ms >= 10 ms), then 3 batches of 8
    assert len(calls) == 1 + 2 + 4 + 8 + 3 * 8
    assert seconds == pytest.approx(0.002)
    assert result == 1 + 2 + 4 + 8 + 8  # last call of the first (fastest) batch


def test_batched_call_longer_than_the_window_runs_singly(clock):
    calls = []

    def call():
        clock["t"] += 0.5
        calls.append(None)

    seconds, _ = timing.best_of_batched(call, repeats=2, window_s=0.05)
    assert len(calls) == 1 + 2
    assert seconds == pytest.approx(0.5)
