"""Pre-silicon verification of a two-stage op-amp (paper Sec. 5.1).

Full circuit-level flow:

1. simulate a schematic-level (early) and post-layout (late) Monte-Carlo
   bank of the same two-stage Miller op-amp under shared process draws;
2. fuse the early knowledge with only 16 post-layout samples;
3. compare BMF against MLE on the Eq. 37/38 error criteria and report the
   estimated physical-unit moments.

Run with:  python examples/opamp_validation.py  [--samples N]
"""

import argparse

import numpy as np

from repro import FusionPipeline
from repro.circuits import OPAMP_METRIC_NAMES, generate_opamp_dataset
from repro.core.errors import covariance_error, mean_error


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--samples", type=int, default=16, help="late-stage samples to fuse"
    )
    parser.add_argument(
        "--bank", type=int, default=1500, help="Monte-Carlo bank size per stage"
    )
    args = parser.parse_args()

    rng = np.random.default_rng(42)
    print(f"simulating {args.bank} paired op-amp dies (schematic + post-layout)...")
    dataset = generate_opamp_dataset(n_samples=args.bank, seed=7)

    pipeline = FusionPipeline.fit(
        dataset.early, dataset.early_nominal, dataset.late_nominal
    )

    subset = dataset.late_subset(args.samples, rng)
    bmf = pipeline.estimate(subset, rng=rng)
    mle = pipeline.estimate_with("mle", subset)

    print(
        f"\nfused {args.samples} post-layout samples; CV selected "
        f"kappa0={bmf.info['kappa0']:.3g}, v0={bmf.info['v0']:.4g}"
    )
    print(
        "(paper Sec. 5.1: op-amp kappa0 comes out small, v0 large — the "
        "early mean is less trustworthy than the early covariance)\n"
    )

    # Physical-unit report.
    truth_mean = dataset.late.mean(axis=0)
    truth_std = dataset.late.std(axis=0)
    header = f"{'metric':<14} {'BMF estimate':>14} {'MC truth':>14} {'MC std':>12}"
    print(header)
    print("-" * len(header))
    for j, name in enumerate(OPAMP_METRIC_NAMES):
        print(
            f"{name:<14} {bmf.mean[j]:>14.5g} {truth_mean[j]:>14.5g} "
            f"{truth_std[j]:>12.3g}"
        )

    # Error comparison in the paper's isotropic space.
    late_iso = pipeline.transform.transform(dataset.late, "late")
    exact_mean = late_iso.mean(axis=0)
    exact_cov = np.cov(late_iso.T, bias=True)
    print("\nisotropic-space errors (Eq. 37 / 38):")
    for name, result in (("BMF", bmf), ("MLE", mle)):
        print(
            f"  {name}: mean {mean_error(result.isotropic.mean, exact_mean):.4f}  "
            f"cov {covariance_error(result.isotropic.covariance, exact_cov):.4f}"
        )

    corr = np.corrcoef(dataset.early.T)
    print("\nearly-stage metric correlation matrix (why multivariate matters):")
    print("         " + " ".join(f"{n[:7]:>8}" for n in OPAMP_METRIC_NAMES))
    for j, name in enumerate(OPAMP_METRIC_NAMES):
        row = " ".join(f"{corr[j, k]:>8.2f}" for k in range(5))
        print(f"{name[:8]:<9}{row}")


if __name__ == "__main__":
    main()
