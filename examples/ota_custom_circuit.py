"""Bring-your-own-circuit walkthrough on the folded-cascode OTA.

The paper validates on a two-stage op-amp and a flash ADC; this example
shows the workflow for a circuit the paper never saw:

1. generate the paired banks for the folded-cascode OTA (gain, GBW,
   power, offset, slew rate);
2. *check the BMF premise first* with the stage-similarity report —
   before spending any late-stage budget;
3. fuse 12 post-layout samples and report credible intervals from the
   full normal-Wishart posterior (not just the MAP point);
4. plan the measurement budget: how many samples would MLE have needed?

Run with:  python examples/ota_custom_circuit.py
"""

import numpy as np

from repro.circuits.ota import OTA_METRIC_NAMES, generate_ota_dataset
from repro.core.confidence import posterior_credible_summary
from repro.core.pipeline import FusionPipeline
from repro.experiments.budget import BudgetPlanner
from repro.experiments.similarity import stage_similarity
from repro.experiments.sweep import ErrorSweep, SweepConfig


def main() -> None:
    rng = np.random.default_rng(17)
    print("simulating 1200 paired folded-cascode OTA dies...")
    dataset = generate_ota_dataset(n_samples=1200, seed=8)

    # ------------------------------------------------------------------
    # 1. Premise check: are the stages similar enough for fusion?
    # ------------------------------------------------------------------
    report = stage_similarity(dataset)
    print("\nstage-similarity report (isotropic space):")
    print(f"  mean mismatch norm : {report.mean_mismatch_norm:.3f} sigma")
    print(f"  covariance gap     : {report.cov_gap:.3f} (Frobenius)")
    print(f"  hellinger distance : {report.hellinger:.3f}")
    print(f"  verdict            : {report.recommendation(n_late=12)}")

    # ------------------------------------------------------------------
    # 2. Fuse 12 post-layout samples; report posterior uncertainty.
    # ------------------------------------------------------------------
    pipeline = FusionPipeline.fit(
        dataset.early, dataset.early_nominal, dataset.late_nominal
    )
    subset = dataset.late_subset(12, rng)
    result = pipeline.estimate(subset, rng=rng)

    from repro.core.bmf import BMFEstimator

    estimator = BMFEstimator(
        pipeline.prior,
        kappa0=result.info["kappa0"],
        v0=result.info["v0"],
    )
    posterior = estimator.posterior(pipeline.transform.transform(subset, "late"))
    summary = posterior_credible_summary(posterior, level=0.90)

    print(
        f"\nfused 12 samples (kappa0={result.info['kappa0']:.3g}, "
        f"v0={result.info['v0']:.4g}); 90% credible intervals "
        "(isotropic space):"
    )
    print(f"{'metric':<12} {'mean':>8} {'interval':>22}")
    for j, name in enumerate(OTA_METRIC_NAMES):
        lo, hi = summary.mean_interval(j)
        print(f"{name:<12} {summary.mean_point[j]:>8.3f} [{lo:>9.3f}, {hi:>9.3f}]")

    truth = pipeline.transform.transform(dataset.late, "late").mean(axis=0)
    inside = sum(
        summary.mean_interval(j)[0] <= truth[j] <= summary.mean_interval(j)[1]
        for j in range(5)
    )
    print(f"(true late-stage means inside the interval: {inside}/5)")

    # ------------------------------------------------------------------
    # 3. Budget planning from a quick pilot sweep.
    # ------------------------------------------------------------------
    print("\nrunning a pilot sweep for budget planning...")
    pilot = ErrorSweep(
        dataset,
        config=SweepConfig(sample_sizes=(8, 16, 32, 64, 128), n_repeats=15, seed=2),
    ).run()
    planner = BudgetPlanner(pilot, metric="covariance")
    print(
        f"fitted decay slopes: MLE {planner.fits['mle'].slope:+.2f}, "
        f"BMF {planner.fits['bmf'].slope:+.2f}; BMF floor "
        f"{planner.bmf_floor:.3f}"
    )
    print(f"\n{'target err':>10} {'n_MLE':>8} {'n_BMF':>8} {'saving':>8}")
    for plan in planner.plan_table([1.0, 0.6, 0.4]):
        n_mle = f"{plan.n_mle:.0f}" if plan.n_mle else "n/a"
        n_bmf = f"{plan.n_bmf:.0f}" if plan.n_bmf else "floor!"
        saving = f"{plan.saving:.1f}x" if plan.saving else "-"
        print(f"{plan.target_error:>10.2f} {n_mle:>8} {n_bmf:>8} {saving:>8}")


if __name__ == "__main__":
    main()
