"""Post-silicon validation of a flash ADC with noisy bench measurements.

The post-silicon twist on the paper's Sec. 5.2 experiment: late-stage
"samples" are silicon measurements carrying instrumentation noise, arriving
die by die.  The example shows

1. fusing a small noisy measurement batch (BMF vs MLE),
2. streaming the measurements die by die into a :class:`SufficientStats`
   accumulator, reading the running MAP moments (Eq. 31–32) after each
   die, with a measurement-budget stopping rule — stop paying for bench
   time once the fused moments stop moving.  By conjugacy the stream ends
   exactly where a one-shot fusion of the same dies would.

Run with:  python examples/adc_validation.py
"""

import numpy as np

from repro import FusionPipeline
from repro.circuits import ADC_METRIC_NAMES, generate_adc_dataset
from repro.core.bmf import map_moments_from_stats
from repro.core.errors import covariance_error, mean_error
from repro.linalg.norms import frobenius_norm, vector_2norm
from repro.stats.suffstats import SufficientStats

#: Stopping rule: stop once ``PATIENCE`` consecutive dies each moved the
#: fused mean by at most ``MEAN_TOL`` and the covariance by at most ``COV_TOL``.
MEAN_TOL, COV_TOL, PATIENCE = 0.02, 0.05, 5


def main() -> None:
    rng = np.random.default_rng(11)
    print("simulating 600 paired flash-ADC dies (schematic + post-layout)...")
    dataset = generate_adc_dataset(n_samples=600, seed=3)
    # Bench instrumentation noise: 10% of each metric's own sigma.
    noisy = dataset.with_measurement_noise(0.10, rng)

    pipeline = FusionPipeline.fit(noisy.early, noisy.early_nominal, noisy.late_nominal)

    # ------------------------------------------------------------------
    # Batch fusion with 10 measured dies.
    # ------------------------------------------------------------------
    batch = noisy.late_subset(10, rng)
    bmf = pipeline.estimate(batch, rng=rng)
    mle = pipeline.estimate_with("mle", batch)

    late_iso = pipeline.transform.transform(noisy.late, "late")
    exact_mean = late_iso.mean(axis=0)
    exact_cov = np.cov(late_iso.T, bias=True)

    print(
        f"\n10 noisy measurements fused; CV selected "
        f"kappa0={bmf.info['kappa0']:.3g}, v0={bmf.info['v0']:.4g}"
    )
    print("(paper Sec. 5.2: ADC selects BOTH hyper-parameters large)\n")
    print("isotropic-space errors (Eq. 37 / 38):")
    for name, result in (("BMF", bmf), ("MLE", mle)):
        print(
            f"  {name}: mean {mean_error(result.isotropic.mean, exact_mean):.4f}  "
            f"cov {covariance_error(result.isotropic.covariance, exact_cov):.4f}"
        )

    print(f"\n{'metric':<8} {'BMF mean':>12} {'true mean':>12}")
    truth_mean = noisy.late.mean(axis=0)
    for j, name in enumerate(ADC_METRIC_NAMES):
        print(f"{name:<8} {bmf.mean[j]:>12.5g} {truth_mean[j]:>12.5g}")

    # ------------------------------------------------------------------
    # Streaming fusion with an early-stop rule.
    # ------------------------------------------------------------------
    print("\nstreaming measurements die-by-die (stop when estimate settles):")
    kappa0, v0 = bmf.info["kappa0"], bmf.info["v0"]
    stats = SufficientStats.empty(pipeline.prior.dim)
    stream = pipeline.transform.transform(noisy.late_subset(64, rng), "late")
    last_mean = last_cov = None
    calm = 0  # consecutive dies whose update stayed within tolerance
    stopped_at = None
    for i, row in enumerate(stream, start=1):
        stats.push(row)
        mean, cov = map_moments_from_stats(pipeline.prior, stats, kappa0, v0)
        if last_mean is None:
            mean_step = cov_step = float("inf")
        else:
            mean_step = vector_2norm(mean - last_mean)
            cov_step = frobenius_norm(cov - last_cov)
        last_mean, last_cov = mean, cov
        if i % 8 == 0:
            err = mean_error(mean, exact_mean)
            print(
                f"  die {i:>3}: mean step {mean_step:.4f}, "
                f"error vs truth {err:.4f}"
            )
        calm = calm + 1 if mean_step <= MEAN_TOL and cov_step <= COV_TOL else 0
        if stopped_at is None and calm >= PATIENCE:
            stopped_at = i
    if stopped_at is not None:
        print(
            f"\nstopping rule fired after {stopped_at} dies — the remaining "
            f"{len(stream) - stopped_at} measurements buy almost nothing."
        )
    else:
        print("\nstopping rule did not fire within the measured batch.")


if __name__ == "__main__":
    main()
