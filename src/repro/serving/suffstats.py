"""Serving-side names for the sufficient-statistics substrate.

The accumulator lives in :mod:`repro.stats.suffstats` and the stacked MAP
kernel (Eq. (31)–(32) over ``B`` sessions) in :mod:`repro.core.bmf`, next
to its scalar ``B = 1`` call; this module re-exports both under the
serving names existing callers import.
"""

from __future__ import annotations

from repro.core.bmf import map_moments_stack
from repro.stats.suffstats import SufficientStats, merge_all

__all__ = ["SufficientStats", "merge_all", "map_moments_stack"]
