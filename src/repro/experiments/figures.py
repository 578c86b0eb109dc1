"""Figure drivers: one function per figure in the paper's Sec. 5.

Each driver runs the corresponding experiment end-to-end and returns the
:class:`~repro.experiments.sweep.SweepResult` whose series *are* the
figure.  The benchmark files under ``benchmarks/`` call these and print
the paper-versus-measured comparison.

* Figure 4(a)/(b): op-amp mean / covariance error vs late-stage samples.
* Figure 5(a)/(b): flash-ADC mean / covariance error vs samples.
* Figure 1: shift-and-scale isotropy demonstration.
* Figure 2(a): the cross-validation likelihood landscape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.circuits.montecarlo import PairedDataset
from repro.core.crossval import CrossValidationResult, TwoDimensionalCV
from repro.core.pipeline import FusionPipeline
from repro.core.preprocessing import ShiftScaleTransform
from repro.experiments import datasets
from repro.experiments.sweep import ErrorSweep, SweepConfig, SweepResult

__all__ = [
    "figure4_opamp",
    "figure5_adc",
    "figure1_shift_scale",
    "figure2_cv_surface",
    "FigureData",
]


def _clamp_sizes(sample_sizes: Tuple[int, ...], n_bank: int) -> Tuple[int, ...]:
    """Drop sweep sizes a reduced bank cannot support (keep at least one)."""
    kept = tuple(n for n in sample_sizes if n <= n_bank)
    if not kept:
        kept = (min(min(sample_sizes), n_bank),)
    return kept


@dataclass(frozen=True)
class FigureData:
    """A finished figure experiment: the sweep plus its dataset context."""

    name: str
    sweep: SweepResult
    dataset: PairedDataset


def figure4_opamp(
    n_bank: int = datasets.PAPER_OPAMP_SAMPLES,
    sample_sizes: Tuple[int, ...] = (8, 16, 32, 64, 128, 256),
    n_repeats: int = 100,
    seed: int = 7,
) -> FigureData:
    """Reproduce Figure 4: op-amp error-vs-samples for MLE and BMF.

    Defaults match the paper (5000-sample bank, 100 repeats); reduce
    ``n_bank``/``n_repeats`` for quick runs.
    """
    dataset = datasets.opamp_dataset(n_bank)
    sweep = ErrorSweep(
        dataset,
        config=SweepConfig(
            sample_sizes=_clamp_sizes(sample_sizes, n_bank),
            n_repeats=n_repeats,
            seed=seed,
        ),
    ).run()
    return FigureData(name="figure4_opamp", sweep=sweep, dataset=dataset)


def figure5_adc(
    n_bank: int = datasets.PAPER_ADC_SAMPLES,
    sample_sizes: Tuple[int, ...] = (8, 16, 32, 64, 128),
    n_repeats: int = 100,
    seed: int = 11,
) -> FigureData:
    """Reproduce Figure 5: flash-ADC error-vs-samples for MLE and BMF."""
    dataset = datasets.adc_dataset(n_bank)
    sweep = ErrorSweep(
        dataset,
        config=SweepConfig(
            sample_sizes=_clamp_sizes(sample_sizes, n_bank),
            n_repeats=n_repeats,
            seed=seed,
        ),
    ).run()
    return FigureData(name="figure5_adc", sweep=sweep, dataset=dataset)


def figure1_shift_scale(
    n_bank: int = 2000,
) -> Dict[str, Dict[str, float]]:
    """Reproduce Figure 1's point: shift+scale makes both stages isotropic.

    Returns isotropy diagnostics (max |mean| in sigma units, std range)
    for the raw and the transformed op-amp clouds at both stages.
    """
    ds = datasets.opamp_dataset(n_bank)
    transform = ShiftScaleTransform.fit(ds.early, ds.early_nominal, ds.late_nominal)
    out: Dict[str, Dict[str, float]] = {}
    for stage, raw in (("early", ds.early), ("late", ds.late)):
        raw_means = raw.mean(axis=0)
        raw_stds = raw.std(axis=0, ddof=0)
        out[f"{stage}_raw"] = {
            "mean_magnitude_range": float(
                np.log10(
                    max(np.abs(raw_means).max(), 1e-300)
                    / max(np.abs(raw_means).min(), 1e-300)
                )
            ),
            "std_magnitude_range": float(
                np.log10(raw_stds.max() / raw_stds.min())
            ),
        }
        out[f"{stage}_transformed"] = transform.isotropy_report(raw, stage)
    return out


def figure2_cv_surface(
    n_late: int = 32,
    n_bank: int = 2000,
    seed: int = 3,
) -> CrossValidationResult:
    """Reproduce Figure 2(a): the CV likelihood surface over (kappa0, v0).

    Runs the two-dimensional search once on an ``n_late``-sample op-amp
    draw and returns the full score grid.
    """
    ds = datasets.opamp_dataset(n_bank)
    pipeline = FusionPipeline.fit(ds.early, ds.early_nominal, ds.late_nominal)
    late_iso = pipeline.transform.transform(ds.late, "late")
    rng = np.random.default_rng(seed)
    idx = rng.choice(late_iso.shape[0], size=n_late, replace=False)
    return TwoDimensionalCV(pipeline.prior).select(late_iso[idx], rng=rng)
