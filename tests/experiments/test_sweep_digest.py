"""Pin the error arrays of a smoke-size sweep on both paper banks.

The CV scorer may change how it computes a score, but not which
``(kappa0, v0)`` it picks: every BMF error of this sweep depends on the
winner alone.  ``DIGEST`` was computed before the closed-form scorer
landed, so a winner that flips on either bank changes it.  It was also
computed while each bank's nominal die came from a per-die engine, so it
is asserted with the nominal dies taken from that engine's twin in
``loop_oracle.py``.  ``PRODUCTION_DIGEST`` pins the same sweep with the
nominal dies of ``simulate_batch``.
"""

import hashlib

import numpy as np

from repro.circuits.montecarlo import generate_adc_dataset, generate_opamp_dataset
from repro.experiments.sweep import ErrorSweep, SweepConfig

from tests.circuits.loop_oracle import use_oracle_nominals

#: Smoke-size paper banks (the e2e benchmark's smoke sizes), paper seed.
BANKS = {"opamp": (generate_opamp_dataset, 400), "adc": (generate_adc_dataset, 200)}
SEED = 2015
SIZES = (8, 16, 32)
REPEATS = 5

DIGEST = "12f13c0eb60dfc7e3bb05cad91b6ff738c1a2c64c88e709421f31db0b9a58920"

PRODUCTION_DIGEST = "10febcf5870a58ca9721011d7260cff46a7bb348ec846bcd6f71241c84d575d4"


def error_digest(results) -> str:
    """sha256 over every bank's mean and covariance errors, in a fixed order."""
    h = hashlib.sha256()
    for bank in sorted(results):
        result = results[bank]
        for errors in (result.mean_errors, result.cov_errors):
            for method in sorted(errors):
                for n in sorted(errors[method]):
                    h.update(f"{bank}/{method}/{n}".encode())
                    h.update(np.asarray(errors[method][n], dtype="<f8").tobytes())
    return h.hexdigest()


def sweep_digest() -> str:
    config = SweepConfig(sample_sizes=SIZES, n_repeats=REPEATS, seed=SEED)
    results = {
        name: ErrorSweep(
            generate(n_samples=size, seed=SEED, use_cache=False), config=config
        ).run()
        for name, (generate, size) in BANKS.items()
    }
    return error_digest(results)


def test_paper_bank_sweep_errors_are_pinned(monkeypatch):
    use_oracle_nominals(monkeypatch)
    assert sweep_digest() == DIGEST


def test_paper_bank_sweep_errors_production_bytes():
    assert sweep_digest() == PRODUCTION_DIGEST
