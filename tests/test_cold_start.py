"""Cold start: the fusion and serving paths never load SciPy, and a server
loads no circuit code.

Every SciPy import in ``repro`` sits inside the function that calls it, so
a process that only fuses, serves, recovers or sweeps never pays SciPy's
import time or memory.  The serving stack imports nothing from the circuit
substrate, the experiment harness or :mod:`repro.io` (which imports both).
The tests run in a fresh interpreter (``sys.executable``), because the test
process itself has long since imported all of it through other tests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

#: Directory that holds the ``repro`` package the tests import, so the
#: child interpreter runs the same tree (a source checkout or an install).
PACKAGE_ROOT = str(Path(repro.__file__).resolve().parents[1])

PROBE = textwrap.dedent(
    """
    import sys


    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    """
)

#: The paths the end-to-end workloads take: package imports, a served
#: stream with a WAL (create, row and block ingest, estimate, loglik,
#: checkpoint), recovery, Algorithm 1 with the default BMF and CV, a
#: scenario compile, and a smoke-size error sweep.
WORKLOAD_PATHS = PROBE + textwrap.dedent(
    """
    import io
    import json
    from pathlib import Path

    import numpy as np

    import repro
    import repro.cli
    import repro.experiments.sweep
    import repro.scenarios
    import repro.serving
    from repro.circuits.montecarlo import generate_opamp_dataset
    from repro.core.pipeline import FusionPipeline
    from repro.core.registry import EstimatorSpec
    from repro.experiments.sweep import ErrorSweep, SweepConfig
    from repro.scenarios import LIBRARY_VERSION, compile_instance, expand, parse_scenario_doc
    from repro.schemas import SCENARIO_SCHEMA
    from repro.serving import ShardedMomentService, serve_loop

    work = Path(sys.argv[1])
    seen = {"import": scipy_modules()}

    rng = np.random.default_rng(7)
    lines = []
    for key in ("a", "b", "c"):
        lines.append({"op": "create", "key": key, "prior_mean": [0.0, 0.0, 0.0],
                      "prior_covariance": np.eye(3).tolist(), "kappa0": 2.0, "v0": 8.0})
        lines.append({"op": "ingest", "key": key, "samples": rng.normal(size=3).tolist()})
        lines.append({"op": "ingest", "key": key, "samples": rng.normal(size=(64, 3)).tolist()})
        lines.append({"op": "estimate", "key": key})
        lines.append({"op": "loglik", "key": key, "x": rng.normal(size=(4, 3)).tolist()})
    lines.append({"op": "checkpoint", "path": str(work / "ckpt")})
    out = io.StringIO()
    with ShardedMomentService(n_shards=2, wal_dir=work / "wal") as live:
        serve_loop(live, [json.dumps(line) for line in lines], out=out)
    assert all(json.loads(text)["ok"] for text in out.getvalue().splitlines())
    seen["serve"] = scipy_modules()

    with ShardedMomentService.recover(work / "wal") as recovered:
        assert recovered.estimate("a").n_samples == 65
    seen["recover"] = scipy_modules()

    bank = generate_opamp_dataset(n_samples=200, seed=3, cache_dir=work / "cache")
    pipeline = FusionPipeline.fit(bank.early, bank.early_nominal, bank.late_nominal)
    pipeline.estimate(bank.late[:16], rng=np.random.default_rng(1))
    seen["fuse"] = scipy_modules()

    doc = parse_scenario_doc({"schema": SCENARIO_SCHEMA, "library": LIBRARY_VERSION,
                              "scenarios": [{"name": "p", "circuit": "adc",
                                             "knobs": {"samples": 64}}]})
    compile_instance(expand(doc)[0], cache_dir=work / "cache")
    seen["scenario"] = scipy_modules()

    config = SweepConfig(sample_sizes=(8, 16), n_repeats=2, seed=5, n_jobs=1)
    ErrorSweep(bank, estimators={"mle": "mle", "bmf": EstimatorSpec("bmf")},
               config=config).run()
    seen["sweep"] = scipy_modules()

    # The probe itself: a SciPy-backed function does load SciPy.
    from repro.stats.gof import henze_zirkler

    henze_zirkler(rng.normal(size=(40, 3)))
    seen["henze_zirkler"] = scipy_modules()
    print(json.dumps(seen))
    """
)

#: One function from each module whose SciPy import moved into the
#: function body.  Run here and in a fresh interpreter; the results must
#: be identical.
DEFERRED_CALLS = textwrap.dedent(
    """
    import numpy as np

    from repro.circuits.netlist import Netlist
    from repro.circuits.transient import TransientAnalysis
    from repro.core.confidence import posterior_credible_summary
    from repro.core.prior import PriorKnowledge
    from repro.core.registry import EstimatorSpec
    from repro.stats.distances import wasserstein2_gaussian
    from repro.stats.gof import henze_zirkler
    from repro.stats.multigamma import multigammaln
    from repro.stats.multivariate_gaussian import MultivariateGaussian
    from repro.stats.normal_wishart import NormalWishart
    from repro.stats.wishart import Wishart
    from repro.yieldest.parametric import YieldEstimator
    from repro.yieldest.specs import Specification, SpecificationSet


    def deferred_values():
        rng = np.random.default_rng(11)
        x = rng.normal(size=(30, 2)) @ np.array([[1.0, 0.4], [0.0, 0.8]])
        cov = np.array([[1.0, 0.3], [0.3, 0.5]])
        out = {}
        hz = henze_zirkler(x)
        out["henze_zirkler"] = [hz.statistic, hz.p_value]
        summary = posterior_credible_summary(NormalWishart(np.zeros(2), 2.0, 8.0, cov), 0.9)
        out["credible"] = [summary.mean_lower.tolist(), summary.var_upper.tolist()]
        prior = PriorKnowledge(mean=np.zeros(2), covariance=cov, n_samples=100)
        robust = EstimatorSpec("robust-bmf")(prior).estimate(x, rng=np.random.default_rng(2))
        out["robust_bmf"] = [robust.mean.tolist(), robust.covariance.tolist()]
        specs = SpecificationSet(
            (Specification.minimum("a", -1.0), Specification.window("b", -2.0, 2.0))
        )
        report = YieldEstimator(specs).from_moments(np.zeros(2), cov)
        out["yield_total"] = report.total_yield
        out["yield_marginals"] = sorted(report.marginal_yields.items())
        wishart = Wishart(cov, 5.0)
        out["wishart"] = [wishart.logpdf(np.eye(2)), wishart.entropy_expected_logdet()]
        out["multigammaln"] = multigammaln(3.5, 3)
        out["wasserstein2"] = wasserstein2_gaussian(np.zeros(2), np.eye(2), np.ones(2), cov)
        out["logpdf"] = MultivariateGaussian(np.zeros(2), cov).logpdf(x[:4]).tolist()
        net = Netlist()
        net.voltage_source("Vin", "in", "0", 1.0)
        net.resistor("R", "in", "out", 1000.0)
        net.capacitor("C", "out", "0", 1e-9)
        out["transient"] = TransientAnalysis(net).run(t_stop=2e-6, dt=1e-8).voltage("out").tolist()
        return out
    """
)


def _run_fresh(source: str, *args: str) -> dict:
    """Run ``source`` in a new interpreter; returns the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [PACKAGE_ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", source, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_workload_paths_load_no_scipy(tmp_path):
    seen = _run_fresh(WORKLOAD_PATHS, str(tmp_path))
    probe = seen.pop("henze_zirkler")
    assert seen == {stage: [] for stage in seen}
    assert list(seen) == ["import", "serve", "recover", "fuse", "scenario", "sweep"]
    assert "scipy.stats" in probe


def test_deferred_scipy_calls_match_in_process():
    fresh = _run_fresh(
        PROBE
        + DEFERRED_CALLS
        + textwrap.dedent(
            """
            import json

            before = scipy_modules()
            print(json.dumps({"before": before, "values": deferred_values()}))
            """
        )
    )
    assert fresh["before"] == []
    namespace: dict = {}
    exec(DEFERRED_CALLS, namespace)
    # through JSON, as the child's values came: float repr round-trips exactly
    here = json.loads(json.dumps(namespace["deferred_values"]()))
    fresh = fresh["values"]
    # Genz's quasi-Monte-Carlo box integral may move within its tolerance
    assert fresh.pop("yield_total") == pytest.approx(here.pop("yield_total"), abs=1e-5)
    assert fresh == here


def test_server_imports_no_circuit_code():
    loaded = _run_fresh(
        "import json, sys\n"
        "import repro.serving\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro.'))))\n"
    )
    assert "repro.serving.router" in loaded
    layers = {module.split(".")[1] for module in loaded}
    assert layers.isdisjoint({"circuits", "experiments", "io", "scenarios"})
