"""Visualize the CV landscape and the posterior uncertainty (ASCII art).

Two views the paper only sketches:

1. the Figure-2(a) search space, rendered as an ASCII heat map of the
   held-out log-likelihood over the (kappa0, v0) grid for one op-amp run;
2. the normal-Wishart *posterior* beyond its mode: samples of (mu, Sigma)
   drawn from the posterior show how much parameter uncertainty remains
   after fusing n late samples — information the point MAP estimate hides.

Run with:  python examples/posterior_visualization.py
"""

import numpy as np

from repro import FusionPipeline
from repro.circuits import generate_opamp_dataset
from repro.core.crossval import TwoDimensionalCV

_SHADES = " .:-=+*#%@"


def ascii_heatmap(scores: np.ndarray) -> str:
    """Map a score grid to ASCII shades (@ = best)."""
    finite = scores[np.isfinite(scores)]
    lo, hi = finite.min(), finite.max()
    span = hi - lo if hi > lo else 1.0
    lines = []
    for row in scores:
        cells = []
        for value in row:
            if not np.isfinite(value):
                cells.append("!")
            else:
                level = int((value - lo) / span * (len(_SHADES) - 1))
                cells.append(_SHADES[level])
        lines.append("".join(cells))
    return "\n".join(lines)


def main() -> None:
    rng = np.random.default_rng(23)
    print("simulating 1200 paired op-amp dies...")
    dataset = generate_opamp_dataset(n_samples=1200, seed=17)
    pipeline = FusionPipeline.fit(
        dataset.early, dataset.early_nominal, dataset.late_nominal
    )
    late_iso = pipeline.transform.transform(dataset.late, "late")
    n_late = 32
    subset = late_iso[rng.choice(late_iso.shape[0], n_late, replace=False)]

    # ------------------------------------------------------------------
    # 1. CV landscape (Figure 2a).
    # ------------------------------------------------------------------
    cv = TwoDimensionalCV(pipeline.prior)
    result = cv.select(subset, rng=rng)
    print(
        f"\nCV landscape at n={n_late} "
        "(rows: kappa0 low->high, cols: v0 low->high, @ = best):\n"
    )
    print(ascii_heatmap(result.scores))
    print(
        f"\nwinner: kappa0 = {result.kappa0:.3g}, v0 = {result.v0:.4g}, "
        f"held-out loglik = {result.best_score:.3f}"
    )

    # ------------------------------------------------------------------
    # 2. Posterior uncertainty.
    # ------------------------------------------------------------------
    posterior = pipeline.prior.to_normal_wishart(
        result.kappa0, result.v0
    ).posterior(subset)
    mus, lams = posterior.sample(400, rng)
    sigma_draws = np.stack([np.linalg.inv(lam) for lam in lams])

    exact_mean = late_iso.mean(axis=0)
    exact_var = late_iso.var(axis=0)
    print("\nposterior spread after fusing 32 samples (isotropic space):")
    print(f"{'dim':<4} {'post mean':>10} {'post std':>10} {'truth':>10}")
    for j in range(mus.shape[1]):
        print(
            f"{j:<4} {mus[:, j].mean():>10.3f} {mus[:, j].std():>10.3f} "
            f"{exact_mean[j]:>10.3f}"
        )
    print("\nposterior variance draws vs true variances (diagonal of Sigma):")
    for j in range(mus.shape[1]):
        draws_j = sigma_draws[:, j, j]
        print(
            f"dim {j}: posterior {np.median(draws_j):.3f} "
            f"[{np.quantile(draws_j, 0.05):.3f}, {np.quantile(draws_j, 0.95):.3f}] "
            f"vs truth {exact_var[j]:.3f}"
        )


if __name__ == "__main__":
    main()
