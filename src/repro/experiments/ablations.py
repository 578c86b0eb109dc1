"""Ablation studies for the design choices DESIGN.md calls out.

Each ablation isolates one ingredient of the paper's method:

* :func:`ablate_shift_scale` — run the fusion with and without the
  Sec. 4.1 preprocessing (quantifies why Fig. 1 matters);
* :func:`ablate_fixed_hyperparams` — CV-selected versus pinned
  ``(kappa0, v0)`` (quantifies why Sec. 4.2 matters);
* :func:`ablate_fold_count` — sensitivity to the CV fold count ``Q``;
* :func:`ablate_shrinkage_baselines` — BMF versus prior-free shrinkage
  (Ledoit-Wolf / OAS), separating "prior content" from "regularisation";
* :func:`ablate_prior_quality` — degrade the early-stage moments and watch
  the CV re-weight them (the Eq. 33-36 extremes, measured);
* :func:`ablate_selector` — the paper's Q-fold CV versus fold-free
  evidence (marginal-likelihood) hyper-parameter selection;
* :func:`ablate_non_gaussian` — robustness of the advantage when the
  joint-Gaussian assumption is violated (the Sec. 1 caveat);
* :func:`ablate_dimensionality` — synthetic d-sweep showing the gain grows
  with the number of correlated metrics.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.circuits.montecarlo import PairedDataset

# Re-exported for source compatibility: the adapter moved to core.baselines
# when it joined the estimator registry ("ledoit-wolf" / "oas" / ...).
from repro.core.baselines import ShrinkageEstimator
from repro.linalg.validation import cholesky_safe
from repro.core.errors import covariance_error, mean_error
from repro.core.pipeline import FusionPipeline
from repro.core.prior import PriorKnowledge
from repro.core.registry import EstimatorSpec, make_estimator
from repro.experiments.parallel import replicate
from repro.experiments.sweep import ErrorSweep, SweepConfig, SweepResult
from repro.stats.multivariate_gaussian import MultivariateGaussian

__all__ = [
    "ablate_shift_scale",
    "ablate_fixed_hyperparams",
    "ablate_fold_count",
    "ablate_non_gaussian",
    "ablate_shrinkage_baselines",
    "ablate_prior_quality",
    "ablate_process_quality",
    "ablate_selector",
    "ablate_dimensionality",
    "ShrinkageEstimator",
]


def ablate_shift_scale(
    dataset: PairedDataset,
    config: Optional[SweepConfig] = None,
    n_jobs: int = 1,
) -> Dict[str, SweepResult]:
    """BMF with versus without the Sec. 4.1 preprocessing.

    Without the shift, the early/late nominal gap leaks into the rank-one
    term of Eq. (32); without the scale, large-magnitude metrics dominate
    the CV likelihood.  Note the errors of the two runs live in different
    spaces — compare each arm's BMF *relative to its own MLE*.

    ``n_jobs`` applies when ``config`` is None (otherwise set it on the
    config); same convention for every sweep-delegating ablation below.
    """
    cfg = config if config is not None else SweepConfig(n_repeats=30, n_jobs=n_jobs)
    return {
        "with_shift_scale": ErrorSweep(dataset, config=cfg, shift_scale=True).run(),
        "without_shift_scale": ErrorSweep(dataset, config=cfg, shift_scale=False).run(),
    }


def ablate_fixed_hyperparams(
    dataset: PairedDataset,
    pinned: Tuple[Tuple[float, float], ...] = ((1.0, 10.0), (10.0, 100.0), (100.0, 1000.0)),
    config: Optional[SweepConfig] = None,
    n_jobs: int = 1,
) -> SweepResult:
    """CV-selected hyper-parameters versus pinned settings."""
    cfg = config if config is not None else SweepConfig(n_repeats=30, n_jobs=n_jobs)
    d = dataset.early.shape[1]
    estimators: Dict[str, EstimatorSpec] = {"bmf_cv": EstimatorSpec("bmf")}
    for kappa0, v0 in pinned:
        estimators[f"bmf_k{kappa0:g}_v{v0:g}"] = EstimatorSpec(
            "bmf", {"kappa0": kappa0, "v0": max(v0, d + 1.0)}
        )
    return ErrorSweep(dataset, estimators=estimators, config=cfg).run()


def ablate_fold_count(
    dataset: PairedDataset,
    fold_counts: Tuple[int, ...] = (2, 4, 8),
    config: Optional[SweepConfig] = None,
    n_jobs: int = 1,
) -> SweepResult:
    """Sensitivity of the BMF accuracy to the CV fold count Q (Sec. 4.2)."""
    cfg = config if config is not None else SweepConfig(n_repeats=30, n_jobs=n_jobs)
    estimators = {
        f"bmf_q{q}": EstimatorSpec("bmf", {"n_folds": q}) for q in fold_counts
    }
    return ErrorSweep(dataset, estimators=estimators, config=cfg).run()


def ablate_shrinkage_baselines(
    dataset: PairedDataset,
    config: Optional[SweepConfig] = None,
    n_jobs: int = 1,
) -> SweepResult:
    """BMF versus MLE versus prior-free shrinkage covariances.

    If BMF merely regularised, Ledoit-Wolf/OAS would match it; the gap
    that remains measures the value of the early-stage *content*.
    """
    cfg = config if config is not None else SweepConfig(n_repeats=30, n_jobs=n_jobs)
    estimators = {
        "mle": EstimatorSpec("mle"),
        "bmf": EstimatorSpec("bmf"),
        "ledoit_wolf": EstimatorSpec("ledoit-wolf"),
        "oas": EstimatorSpec("oas"),
    }
    return ErrorSweep(dataset, estimators=estimators, config=cfg).run()


def ablate_prior_quality(
    dataset: PairedDataset,
    mean_bias_sigmas: Tuple[float, ...] = (0.0, 0.5, 2.0),
    n_late: int = 32,
    n_repeats: int = 30,
    seed: int = 5,
    n_jobs: int = 1,
) -> Dict[float, Dict[str, float]]:
    """Degrade the prior mean and watch CV shrink ``kappa0`` (Eq. 33-34).

    For each bias level (in per-dimension sigma units added to the early
    mean) returns the average selected ``kappa0``/``v0`` and the BMF
    errors — an executable version of the paper's Sec. 3.3 discussion.

    Repetition ``r`` uses the same ``SeedSequence`` child at every bias
    level — a paired design: each level sees identical late-stage draws,
    so level-to-level differences isolate the prior bias.  ``n_jobs``
    parallelises the repetitions (bit-identical to serial).
    """
    fitted = FusionPipeline.fit(
        dataset.early, dataset.early_nominal, dataset.late_nominal
    )
    late_iso = fitted.transform.transform(dataset.late, "late")
    base_prior = fitted.prior
    exact_mean = late_iso.mean(axis=0)
    centered = late_iso - exact_mean
    exact_cov = centered.T @ centered / late_iso.shape[0]

    children = np.random.SeedSequence(seed).spawn(n_repeats)
    direction = np.ones(base_prior.dim) / np.sqrt(base_prior.dim)
    sigmas = np.sqrt(np.diag(base_prior.covariance))

    def one_repetition(task):
        bias_value, child = task
        prior = PriorKnowledge(
            base_prior.mean + bias_value * sigmas * direction,
            base_prior.covariance,
        )
        rng = np.random.default_rng(child)
        idx = rng.choice(late_iso.shape[0], size=n_late, replace=False)
        est = make_estimator("bmf", prior).estimate(late_iso[idx], rng=rng)
        return (
            est.info["kappa0"],
            est.info["v0"],
            mean_error(est.mean, exact_mean),
            covariance_error(est.covariance, exact_cov),
        )

    out: Dict[float, Dict[str, float]] = {}
    for bias in mean_bias_sigmas:
        tasks = [(float(bias), child) for child in children]
        rows = replicate(one_repetition, tasks, n_jobs=n_jobs)
        k0s, v0s, merrs, cerrs = map(list, zip(*rows))
        out[float(bias)] = {
            "median_kappa0": float(np.median(k0s)),
            "median_v0": float(np.median(v0s)),
            "mean_error": float(np.mean(merrs)),
            "cov_error": float(np.mean(cerrs)),
        }
    return out


def ablate_process_quality(
    local_scales: Tuple[float, ...] = (0.5, 1.0, 2.0),
    n_bank: int = 600,
    n_late: int = 16,
    n_repeats: int = 20,
    seed: int = 29,
    n_jobs: int = 1,
) -> Dict[float, Dict[str, float]]:
    """BMF advantage versus process mismatch severity.

    Regenerates the op-amp banks with the Pelgrom local-mismatch sigmas
    scaled by ``local_scale`` (0.5 = a mature process, 2.0 = a noisy early
    node) and measures both estimators at ``n_late`` samples.  Both error
    *levels* rise with mismatch, but the BMF/MLE ratio should be roughly
    scale-free: the isotropic-space geometry is largely unchanged when all
    local sigmas scale together.
    """
    from repro.circuits.montecarlo import PairedDataset
    from repro.circuits.opamp import OPAMP_METRIC_NAMES, TwoStageOpAmp
    from repro.circuits.process import ProcessVariationModel

    out: Dict[float, Dict[str, float]] = {}
    for scale_factor in local_scales:
        if scale_factor <= 0.0:
            raise ValueError(f"local scale must be > 0, got {scale_factor}")
        early_sim = TwoStageOpAmp.schematic()
        late_sim = TwoStageOpAmp.post_layout()
        base = early_sim.process_model()
        model = ProcessVariationModel(
            sigma_vth_global=base.sigma_vth_global,
            sigma_kp_rel_global=base.sigma_kp_rel_global,
            polarity_correlation=base.polarity_correlation,
            local_scale=scale_factor,
        )
        rng = np.random.default_rng(seed)
        bank = model.sample_bank(early_sim.devices, n_bank, rng)
        dataset = PairedDataset(
            early=early_sim.simulate_batch(bank),
            late=late_sim.simulate_batch(bank),
            early_nominal=early_sim.simulate_nominal().as_array(),
            late_nominal=late_sim.simulate_nominal().as_array(),
            metric_names=OPAMP_METRIC_NAMES,
        )
        sweep = ErrorSweep(
            dataset,
            config=SweepConfig(
                sample_sizes=(n_late,), n_repeats=n_repeats, seed=seed,
                n_jobs=n_jobs,
            ),
        ).run()
        bmf = sweep.cov_error_curve("bmf")[n_late]
        mle = sweep.cov_error_curve("mle")[n_late]
        out[float(scale_factor)] = {
            "bmf_cov_error": bmf,
            "mle_cov_error": mle,
            "advantage": mle / max(bmf, 1e-12),
        }
    return out


def ablate_selector(
    dataset: PairedDataset,
    config: Optional[SweepConfig] = None,
    n_jobs: int = 1,
) -> SweepResult:
    """The paper's Q-fold CV versus evidence (marginal-likelihood) selection.

    Both search the same grid; CV scores held-out likelihood (robust to
    prior misspecification, fold-split randomness), evidence scores the
    exact marginal likelihood (deterministic, fold-free, but can
    over-trust a misspecified prior at small n).  Run on the circuit
    workloads, where the prior *is* mildly misspecified by construction.
    """
    cfg = config if config is not None else SweepConfig(n_repeats=30, n_jobs=n_jobs)
    estimators = {
        "bmf_cv": EstimatorSpec("bmf", {"selector": "cv"}),
        "bmf_evidence": EstimatorSpec("bmf", {"selector": "evidence"}),
        "mle": EstimatorSpec("mle"),
    }
    return ErrorSweep(dataset, estimators=estimators, config=cfg).run()


def ablate_non_gaussian(
    skew_levels: Tuple[float, ...] = (0.0, 0.5, 1.0),
    n_late: int = 16,
    n_repeats: int = 30,
    seed: int = 23,
    n_jobs: int = 1,
) -> Dict[float, Dict[str, float]]:
    """Robustness to the joint-Gaussian assumption (the Sec. 1 caveat).

    Generates sinh-skewed populations (a Gaussian pushed through
    ``x + skew * (exp(x / 2) - 1)`` per dimension — smooth, monotone, and
    increasingly asymmetric with ``skew``), then measures how both
    estimators' errors against the *true* population moments degrade.
    BMF's relative advantage should persist: both methods fit the same
    misspecified Gaussian family, so the prior's variance reduction keeps
    paying even when the model is wrong.

    Repetition ``r`` reuses the same seed child across skew levels (paired
    design); ``n_jobs`` parallelises repetitions bit-identically.  Returns
    per-skew-level average errors plus the BMF/MLE error ratio.
    """
    rng = np.random.default_rng(seed)
    d = 4
    a = rng.standard_normal((d, d))
    cov_base = a @ a.T / d + np.eye(d)
    chol = cholesky_safe(cov_base, "cov_base")

    def population(skew: float, n: int, gen: np.random.Generator) -> np.ndarray:
        z = gen.standard_normal((n, d)) @ chol.T
        return z + skew * (np.exp(z / 2.0) - 1.0)

    children = np.random.SeedSequence(seed).spawn(n_repeats)
    out: Dict[float, Dict[str, float]] = {}
    for skew in skew_levels:
        # Ground truth + prior from a large population of the same law.
        big = population(skew, 60_000, np.random.default_rng(seed + 1))
        exact_mean = big.mean(axis=0)
        exact_cov = np.cov(big.T, bias=True)
        prior = PriorKnowledge(exact_mean, exact_cov)

        def one_repetition(child, skew=skew, prior=prior, exact_cov=exact_cov):
            gen = np.random.default_rng(child)
            late = population(skew, n_late, gen)
            bmf = make_estimator("bmf", prior).estimate(late, rng=gen)
            mle = make_estimator("mle").estimate(late)
            return (
                covariance_error(bmf.covariance, exact_cov),
                covariance_error(mle.covariance, exact_cov),
            )

        rows = replicate(one_repetition, children, n_jobs=n_jobs)
        bmf_errs, mle_errs = zip(*rows)
        bmf_mean = float(np.mean(bmf_errs))
        mle_mean = float(np.mean(mle_errs))
        out[float(skew)] = {
            "bmf_cov_error": bmf_mean,
            "mle_cov_error": mle_mean,
            "advantage": mle_mean / max(bmf_mean, 1e-12),
        }
    return out


def ablate_dimensionality(
    dims: Tuple[int, ...] = (2, 5, 10),
    n_late: int = 16,
    n_repeats: int = 30,
    seed: int = 9,
    n_jobs: int = 1,
) -> Dict[int, Dict[str, float]]:
    """Synthetic d-sweep: BMF's covariance advantage grows with d.

    The MLE covariance has rank <= n-1, so at fixed ``n`` its error grows
    with ``d`` while a good prior keeps BMF flat.  The population per
    dimension is built from a shared setup generator (as before); the
    repetitions draw from per-repetition seed children and run through the
    parallel engine.  Returns per-dimension average errors for both
    methods.
    """
    rng = np.random.default_rng(seed)
    children = np.random.SeedSequence(seed).spawn(n_repeats)
    out: Dict[int, Dict[str, float]] = {}
    for d in dims:
        a = rng.standard_normal((d, d))
        sigma_true = a @ a.T / d + np.eye(d)
        mu_true = rng.standard_normal(d) * 0.3
        truth = MultivariateGaussian(mu_true, sigma_true)
        prior = PriorKnowledge(mu_true + 0.05, sigma_true * 1.1)

        def one_repetition(child, truth=truth, prior=prior, sigma_true=sigma_true):
            gen = np.random.default_rng(child)
            late = truth.sample(n_late, gen)
            bmf = make_estimator("bmf", prior).estimate(late, rng=gen)
            mle = make_estimator("mle").estimate(late)
            return (
                covariance_error(bmf.covariance, sigma_true),
                covariance_error(mle.covariance, sigma_true),
            )

        rows = replicate(one_repetition, children, n_jobs=n_jobs)
        bmf_c, mle_c = zip(*rows)
        out[d] = {
            "bmf_cov_error": float(np.mean(bmf_c)),
            "mle_cov_error": float(np.mean(mle_c)),
            "advantage": float(np.mean(mle_c) / max(np.mean(bmf_c), 1e-12)),
        }
    return out
