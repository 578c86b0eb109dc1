"""Shared benchmark fixtures.

Benchmarks reproduce the paper's figures at a reduced-but-faithful scale by
default (a few minutes total).  Set ``REPRO_BENCH_SCALE=paper`` to run the
exact paper configuration (5000-sample op-amp bank, 1000-sample ADC bank,
100 repeated runs) — slower but matching Sec. 5 verbatim.

Every figure benchmark *prints the series the paper plots* (error vs
late-stage sample count per method) through ``_bench_util.emit``, which
bypasses pytest's capture so the tables appear in
``pytest benchmarks/ --benchmark-only`` output and in a tee'd log.

The micro-benchmarks import their bodies from ``scripts/`` and their
oracles from ``tests/``, so the repository root goes on ``sys.path``.
"""

import sys
from pathlib import Path

import pytest

from _bench_util import BenchScale, current_scale, set_capture_manager

REPO_ROOT = str(Path(__file__).resolve().parent.parent)
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)


def pytest_configure(config):
    """Hand the capture manager to emit() so tables reach the terminal."""
    capman = config.pluginmanager.getplugin("capturemanager")
    if capman is not None:
        set_capture_manager(capman)


def pytest_collection_modifyitems(config, items):
    """Mark everything under benchmarks/ so `-m 'not benchmark'` skips it."""
    for item in items:
        item.add_marker(pytest.mark.benchmark)


@pytest.fixture(scope="session")
def scale() -> BenchScale:
    return current_scale()
