"""Error-versus-sample-count sweeps (the x/y data of Figures 4 and 5).

For each late-stage sample count ``n`` the sweep repeats ``n_repeats``
times (the paper uses 100 "repeated runs based on independent samples to
average out random fluctuations"): draw ``n`` late rows, run every
estimator, and record the Eq. (37)–(38) errors against the exact moments
measured from the *full* late-stage bank.  Everything happens in the
shifted-and-scaled space of Sec. 4.1, exactly as the paper computes its
error criteria.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.montecarlo import PairedDataset
from repro.core.errors import covariance_error, mean_error
from repro.core.estimators import MomentEstimator
from repro.core.pipeline import FusionPipeline
from repro.core.prior import PriorKnowledge
from repro.core.registry import EstimatorSpec, FusionConfig
from repro.exceptions import DimensionError
from repro.experiments.parallel import replicate, resolve_n_jobs
from repro.stats.moments import mle_covariance, sample_mean

__all__ = ["SweepConfig", "SweepResult", "ErrorSweep", "default_estimators"]

#: Factory signature: receives the fitted prior, returns a fresh estimator.
#: An :class:`~repro.core.registry.EstimatorSpec` *is* such a factory, so
#: sweeps accept registry names, specs, and plain callables interchangeably.
EstimatorFactory = Callable[[PriorKnowledge], MomentEstimator]

#: What callers may put in an ``estimators`` mapping.
EstimatorLike = Union[str, EstimatorSpec, EstimatorFactory]


def default_estimators() -> Dict[str, EstimatorSpec]:
    """The paper's two contenders: MLE baseline and the proposed BMF.

    Returned as registry specs — swap in any other registered name (see
    :func:`repro.core.registry.available_estimators`) without touching
    sweep code.
    """
    return {
        "mle": EstimatorSpec("mle"),
        "bmf": EstimatorSpec("bmf"),
    }


def _normalize_estimators(
    estimators: Union[Mapping[str, EstimatorLike], Sequence[str], None],
) -> Dict[str, EstimatorFactory]:
    """Coerce registry names/specs/callables into a name -> factory dict.

    A bare sequence of registry names (``["mle", "bmf", "oas"]``) becomes a
    mapping keyed by those names; string values become
    :class:`EstimatorSpec` (which is itself a ``prior -> estimator``
    factory); callables pass through untouched for back-compatibility.
    """
    if estimators is None:
        return dict(default_estimators())
    if not isinstance(estimators, Mapping):
        estimators = {name: name for name in estimators}
    out: Dict[str, EstimatorFactory] = {}
    for name, value in estimators.items():
        if isinstance(value, str):
            out[name] = EstimatorSpec(value)
        elif isinstance(value, EstimatorSpec) or callable(value):
            out[name] = value
        else:
            raise TypeError(
                f"estimator {name!r} must be a registry name, EstimatorSpec, "
                f"or factory callable, got {type(value).__name__}"
            )
    if not out:
        raise DimensionError("estimators mapping must be non-empty")
    return out


@dataclass(frozen=True)
class SweepConfig:
    """Sweep parameters.

    Attributes
    ----------
    sample_sizes:
        Late-stage sample counts ``n`` (the figures' x-axis).
    n_repeats:
        Independent repetitions per ``n`` (paper: 100).
    seed:
        Base RNG seed; repetition ``r`` uses a child seed so runs are
        reproducible yet independent.
    n_jobs:
        Worker processes for the replication loop: ``1`` (default) runs
        serially, ``-1`` uses every CPU, any other positive value is taken
        literally.  Because each repetition derives all randomness from its
        own ``SeedSequence`` child, results are **bit-identical** for every
        ``n_jobs`` setting.
    """

    sample_sizes: Tuple[int, ...] = (8, 16, 32, 64, 128, 256)
    n_repeats: int = 100
    seed: int = 7
    n_jobs: int = 1

    def __post_init__(self) -> None:
        if not self.sample_sizes:
            raise DimensionError("sample_sizes must be non-empty")
        if any(n < 2 for n in self.sample_sizes):
            raise DimensionError("every sample size must be >= 2")
        if self.n_repeats < 1:
            raise DimensionError("n_repeats must be >= 1")
        resolve_n_jobs(self.n_jobs)


@dataclass
class SweepResult:
    """Raw and summarised sweep outcomes.

    ``mean_errors[method][n]`` / ``cov_errors[method][n]`` hold one error
    per repetition; the ``*_curve`` methods average them into the series
    plotted in the paper's figures.
    """

    config: SweepConfig
    mean_errors: Dict[str, Dict[int, List[float]]]
    cov_errors: Dict[str, Dict[int, List[float]]]
    hyperparams: Dict[int, List[Tuple[float, float]]] = field(default_factory=dict)

    @property
    def methods(self) -> List[str]:
        """Estimator names present in the sweep."""
        return sorted(self.mean_errors)

    def mean_error_curve(self, method: str) -> Dict[int, float]:
        """Average Eq. (37) error per sample count (Fig. 4a / 5a series)."""
        return {
            n: float(np.mean(errs)) for n, errs in sorted(self.mean_errors[method].items())
        }

    def cov_error_curve(self, method: str) -> Dict[int, float]:
        """Average Eq. (38) error per sample count (Fig. 4b / 5b series)."""
        return {
            n: float(np.mean(errs)) for n, errs in sorted(self.cov_errors[method].items())
        }

    def hyperparam_medians(self, n: int) -> Tuple[float, float]:
        """Median selected ``(kappa0, v0)`` at sample count ``n``."""
        pairs = self.hyperparams.get(n, [])
        if not pairs:
            raise KeyError(f"no hyper-parameter records for n={n}")
        arr = np.asarray(pairs, dtype=float)
        return float(np.median(arr[:, 0])), float(np.median(arr[:, 1]))


class ErrorSweep:
    """Runs the paper's accuracy-vs-cost experiment on a paired dataset.

    Parameters
    ----------
    dataset:
        Paired early/late bank for one circuit.
    estimators:
        Which estimators to compare: a mapping of display name to registry
        name / :class:`~repro.core.registry.EstimatorSpec` / factory
        callable, or simply a sequence of registry names.  Defaults to the
        paper's MLE-vs-BMF pair.
    config:
        Sample sizes / repeats / seed.
    shift_scale:
        Apply the Sec. 4.1 preprocessing (True, the paper's flow).  The
        ``False`` setting exists for the ablation benchmark showing why
        the step matters.
    """

    def __init__(
        self,
        dataset: PairedDataset,
        estimators: Union[Mapping[str, EstimatorLike], Sequence[str], None] = None,
        config: Optional[SweepConfig] = None,
        shift_scale: bool = True,
    ) -> None:
        self.dataset = dataset
        self.estimators = _normalize_estimators(estimators)
        self.config = config if config is not None else SweepConfig()
        max_n = max(self.config.sample_sizes)
        if max_n > dataset.n_samples:
            raise DimensionError(
                f"largest sweep size {max_n} exceeds dataset size {dataset.n_samples}"
            )
        self.shift_scale = bool(shift_scale)
        self._prepare()

    # ------------------------------------------------------------------
    def _prepare(self) -> None:
        ds = self.dataset
        fitted = FusionPipeline.fit(
            ds.early,
            ds.early_nominal,
            ds.late_nominal,
            config=FusionConfig(shift_scale=self.shift_scale),
        )
        self._transform = fitted.transform
        self.prior = fitted.prior
        if self._transform is not None:
            self._late = self._transform.transform(ds.late, "late")
        else:
            self._late = ds.late.copy()
        # Ground truth: moments of the full late-stage bank (the paper's
        # mu_EXACT / Sigma_EXACT measured from all 5000/1000 samples).
        self.exact_mean = sample_mean(self._late)
        self.exact_cov = mle_covariance(self._late)

    # ------------------------------------------------------------------
    def _run_repetition(
        self, task: Tuple[int, np.random.SeedSequence]
    ) -> Tuple[Dict[str, Tuple[float, float]], List[Tuple[float, float]]]:
        """One independent repetition: draw ``n`` rows, run every estimator.

        Pure given the task's seed child — the repetition-level unit the
        parallel engine fans out.  Returns per-estimator ``(mean_error,
        cov_error)`` plus any recorded ``(kappa0, v0)`` selections, in
        estimator order.
        """
        n, child = task
        rng = np.random.default_rng(child)
        idx = rng.choice(self._late.shape[0], size=n, replace=False)
        subset = self._late[idx]
        errors: Dict[str, Tuple[float, float]] = {}
        selected: List[Tuple[float, float]] = []
        for name, factory in self.estimators.items():
            estimator = factory(self.prior)
            estimate = estimator.estimate(subset, rng=rng)
            errors[name] = (
                mean_error(estimate.mean, self.exact_mean),
                covariance_error(estimate.covariance, self.exact_cov),
            )
            if "kappa0" in estimate.info and "v0" in estimate.info:
                selected.append((estimate.info["kappa0"], estimate.info["v0"]))
        return errors, selected

    def run(self) -> SweepResult:
        """Execute the full sweep.

        Repetitions run through :func:`repro.experiments.parallel.replicate`
        honouring ``config.n_jobs``; every repetition owns a
        ``SeedSequence`` child and results are reassembled in task order,
        so the outcome is bit-identical whatever the worker count.
        """
        cfg = self.config
        mean_errors: Dict[str, Dict[int, List[float]]] = {
            name: {n: [] for n in cfg.sample_sizes} for name in self.estimators
        }
        cov_errors: Dict[str, Dict[int, List[float]]] = {
            name: {n: [] for n in cfg.sample_sizes} for name in self.estimators
        }
        hyperparams: Dict[int, List[Tuple[float, float]]] = {
            n: [] for n in cfg.sample_sizes
        }
        seed_seq = np.random.SeedSequence(cfg.seed)
        children = seed_seq.spawn(cfg.n_repeats * len(cfg.sample_sizes))
        tasks = [
            (n, children[i * cfg.n_repeats + r])
            for i, n in enumerate(cfg.sample_sizes)
            for r in range(cfg.n_repeats)
        ]
        rows = replicate(self._run_repetition, tasks, n_jobs=cfg.n_jobs)
        for (n, _child), (errors, selected) in zip(tasks, rows):
            for name, (m_err, c_err) in errors.items():
                mean_errors[name][n].append(m_err)
                cov_errors[name][n].append(c_err)
            hyperparams[n].extend(selected)
        return SweepResult(
            config=cfg,
            mean_errors=mean_errors,
            cov_errors=cov_errors,
            hyperparams=hyperparams,
        )
