"""Utilities shared by the benchmark harness (scale config, table emitter)."""

from __future__ import annotations

import contextlib
import os
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class BenchScale:
    """Benchmark sizing knobs."""

    opamp_bank: int
    adc_bank: int
    n_repeats: int
    label: str


def current_scale() -> BenchScale:
    """Resolve the active scale from ``REPRO_BENCH_SCALE``.

    ``paper`` reproduces Sec. 5 verbatim (5000/1000-sample banks, 100
    repeats); the default reduced scale keeps the whole harness to a few
    minutes while preserving every qualitative conclusion.
    """
    scale = os.environ.get("REPRO_BENCH_SCALE", "").lower()
    if scale == "paper":
        return BenchScale(opamp_bank=5000, adc_bank=1000, n_repeats=100, label="paper")
    if scale == "smoke":
        # CI-sized: exercises every benchmark code path in seconds.
        return BenchScale(opamp_bank=64, adc_bank=24, n_repeats=2, label="smoke")
    return BenchScale(opamp_bank=2000, adc_bank=800, n_repeats=30, label="reduced")


#: Set by the benchmarks conftest at session start; lets :func:`emit`
#: suspend pytest's fd-level capture so tables reach the real stdout
#: (and any `tee`'d log) even for passing tests.
_CAPTURE_MANAGER = None


def set_capture_manager(capman) -> None:
    """Register pytest's CaptureManager (called from conftest)."""
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = capman


def emit(text: str) -> None:
    """Print around pytest's capture so benchmark tables always show."""
    capman = _CAPTURE_MANAGER
    with capman.global_and_fixture_disabled() if capman else contextlib.nullcontext():
        sys.stdout.write("\n" + text + "\n")
        sys.stdout.flush()
