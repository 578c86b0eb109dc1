"""Parametric yield estimation — the application that motivates the paper.

"The parametric yield value of an AMS circuit is often defined by multiple
correlated performance metrics" (Sec. 1).  This example closes that loop on
the op-amp workload:

1. define a 5-metric spec box (min gain, min bandwidth, max power, max
   |offset|, min phase margin);
2. estimate the late-stage yield three ways from only 16 post-layout
   samples:
   a. moment-based yield from the *BMF-fused* Gaussian,
   b. moment-based yield from the MLE Gaussian,
   c. direct pass/fail fusion with BMF-BD (prior work [5]);
3. compare all three against the empirical yield of the full bank.

Run with:  python examples/yield_estimation.py
"""

import numpy as np

from repro import FusionPipeline
from repro.circuits import generate_opamp_dataset
from repro.core.bmf_bd import BernoulliBMF
from repro.yieldest import Specification, SpecificationSet, YieldEstimator


def main() -> None:
    rng = np.random.default_rng(5)
    print("simulating 2000 paired op-amp dies...")
    dataset = generate_opamp_dataset(n_samples=2000, seed=9)

    # Spec box in physical units (order matches the metric columns:
    # gain, bw_3db, power, offset, phase_margin).
    late = dataset.late
    specs = SpecificationSet(
        (
            Specification.minimum("gain", float(np.quantile(late[:, 0], 0.10))),
            Specification.minimum("bw_3db", float(np.quantile(late[:, 1], 0.15))),
            Specification.maximum("power", float(np.quantile(late[:, 2], 0.90))),
            Specification.window(
                "offset",
                float(-2.0 * late[:, 3].std()),
                float(2.0 * late[:, 3].std()),
            ),
            Specification.minimum(
                "phase_margin", float(np.quantile(late[:, 4], 0.05))
            ),
        )
    )
    empirical = specs.empirical_yield(late)
    print(f"\nempirical yield over the full {late.shape[0]}-die bank: {empirical:.3f}")

    # ------------------------------------------------------------------
    # Fuse 16 late samples and integrate the spec box.
    # ------------------------------------------------------------------
    pipeline = FusionPipeline.fit(
        dataset.early, dataset.early_nominal, dataset.late_nominal
    )
    subset = dataset.late_subset(16, rng)
    bmf = pipeline.estimate(subset, rng=rng)
    mle = pipeline.estimate_with("mle", subset)

    estimator = YieldEstimator(specs)
    report_bmf = estimator.from_moments(bmf.mean, bmf.covariance, "bmf")
    report_mle = estimator.from_moments(mle.mean, mle.covariance, "mle")

    # ------------------------------------------------------------------
    # Prior work [5]: fuse binary pass/fail outcomes directly (BMF-BD).
    # ------------------------------------------------------------------
    early_yield = specs.empirical_yield(dataset.early)
    bd = BernoulliBMF(yield_e=min(max(early_yield, 0.01), 0.99), strength=30.0)
    bd_yield = bd.estimate(specs.passes(subset))

    print(f"\n{'method':<26} {'yield estimate':>14} {'abs error':>10}")
    rows = (
        ("BMF moments (this paper)", report_bmf.total_yield),
        ("MLE moments (baseline)", report_mle.total_yield),
        ("BMF-BD pass/fail ([5])", bd_yield),
    )
    for name, value in rows:
        print(f"{name:<26} {value:>14.3f} {abs(value - empirical):>10.3f}")

    print("\nper-metric marginal yields under the BMF Gaussian:")
    for metric, marginal in report_bmf.marginal_yields.items():
        print(f"  {metric:<14} {marginal:.3f}")
    print(f"limiting metric: {report_bmf.limiting_metric()}")


if __name__ == "__main__":
    main()
