"""Brute-force reference kernels for the die-seed circuits.

The production kernels are exact reformulations — the R-2R ladder solved
by superposition of unit-bit solves, the SAR search read from a level
staircase — so comparing ``simulate_batch`` with the per-die
``loop_bank`` of ``loop_oracle.py`` cannot catch a kernel change: the
per-die ``simulate`` calls the same kernel.  These are the kernels they
replaced, kept as oracles:

* :func:`r2r_levels_all_codes` solves the ladder once per input code
  (``2^b`` stacked right-hand sides) and averages the reference current
  over the codes explicitly;
* :func:`sar_trial_codes` runs the bit-by-bit successive-approximation
  trial loop.

:func:`oracle_twin` wraps a simulator in a subclass that routes its
kernel through the oracle, so the metric code around the kernel is shared
and any disagreement is the kernel's.  ``scripts/bench_mc.py`` imports
this module to report the production kernels' deviation.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.r2r_dac import R2R_DAC_METRIC_NAMES, R2RLadderDAC
from repro.circuits.sar_adc import SarADC

from .loop_oracle import max_rel_diff


def r2r_levels_all_codes(
    g_branch: np.ndarray, g_rung: np.ndarray, g_term: np.ndarray, vref: float
):
    """Solve the ladder for every (die, code) pair.

    One Thomas factorisation per die, then all ``2^b`` codes as stacked
    right-hand sides.  Returns ``(levels, i_ref)``: output voltages
    ``(n, 2^b)`` and the reference-rail current averaged over the codes.
    """
    n, b = g_branch.shape
    codes = np.arange(1 << b)
    bits = ((codes[:, None] >> np.arange(b)[None, :]) & 1).astype(float)
    n_codes = bits.shape[0]

    diag = g_branch.copy()
    diag[:, 0] += g_term
    if b > 1:
        diag[:, :-1] += g_rung
        diag[:, 1:] += g_rung

    denom = np.empty((n, b))
    w = np.zeros((n, b))
    denom[:, 0] = diag[:, 0]
    for i in range(1, b):
        w[:, i] = -g_rung[:, i - 1] / denom[:, i - 1]
        denom[:, i] = diag[:, i] + w[:, i] * g_rung[:, i - 1]

    rhs = bits[None, :, :] * g_branch[:, None, :] * vref
    y = np.empty((n, n_codes, b))
    y[:, :, 0] = rhs[:, :, 0]
    for i in range(1, b):
        y[:, :, i] = rhs[:, :, i] - w[:, i, None] * y[:, :, i - 1]
    v = np.empty((n, n_codes, b))
    v[:, :, b - 1] = y[:, :, b - 1] / denom[:, b - 1, None]
    for i in range(b - 2, -1, -1):
        v[:, :, i] = (y[:, :, i] + g_rung[:, i, None] * v[:, :, i + 1]) / denom[
            :, i, None
        ]

    i_codes = np.sum(bits[None, :, :] * g_branch[:, None, :] * (vref - v), axis=2)
    return v[:, :, b - 1], np.mean(i_codes, axis=1)


def sar_trial_codes(weights: np.ndarray, vcmp: np.ndarray, vref: float) -> np.ndarray:
    """Bit-by-bit SAR search of every (die, conversion) pair (float codes).

    Bit ``i`` is kept when the accumulated DAC level with it set would
    still sit at or below the comparator input.
    """
    b = weights.shape[1]
    acc = np.zeros_like(vcmp)
    code = np.zeros_like(vcmp)
    for i in range(b - 1, -1, -1):
        trial = acc + weights[:, i][:, None]
        bit = vcmp >= trial * vref
        acc = np.where(bit, trial, acc)
        code = code + bit * float(1 << i)
    return code


class _OracleR2R(R2RLadderDAC):
    def _ladder_levels(self, g_branch, g_rung, g_term):
        return r2r_levels_all_codes(g_branch, g_rung, g_term, self.design.vref)


class _OracleSar(SarADC):
    def _convert(self, weights, vcmp):
        return sar_trial_codes(weights, vcmp, self.design.vref)


def oracle_twin(sim):
    """The same design and layout, with its kernel replaced by the oracle."""
    for base, twin in ((R2RLadderDAC, _OracleR2R), (SarADC, _OracleSar)):
        if isinstance(sim, base):
            return twin(sim.design, sim.layout)
    raise TypeError(f"no oracle for {type(sim).__name__}")


def oracle_deviation(sim, die_seeds) -> float:
    """Worst relative deviation of ``sim.simulate_batch`` from its oracle.

    Each metric is compared relative to its own magnitude, except the
    R-2R gain error: it is a full-scale ratio minus one, so it is compared
    relative to that ratio.  (One ulp of full scale is already ~9e-11 of
    a die whose gain error is 5e-6, so its plain relative error says
    nothing about the kernel.)
    """
    value = sim.simulate_batch(die_seeds)
    reference = oracle_twin(sim).simulate_batch(die_seeds)
    if isinstance(sim, R2RLadderDAC):
        gain = R2R_DAC_METRIC_NAMES.index("gain_error")
        value, reference = value.copy(), reference.copy()
        value[:, gain] += 1.0
        reference[:, gain] += 1.0
    return max_rel_diff(value, reference)
