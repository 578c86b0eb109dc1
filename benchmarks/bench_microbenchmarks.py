"""Raw-speed micro-benchmarks of the library's hot paths.

Not a paper artefact — these time the computational kernels so regressions
in the estimator or the simulators are caught:

* closed-form MAP update (Eq. 31-32),
* the full two-dimensional CV search (Sec. 4.2),
* one op-amp die (a one-die ``simulate_batch``: one stamp-plan AC solve),
* one flash-ADC die (a one-die ``simulate_batch``: conversion + FFT),
* the Wishart sampler.
"""

import numpy as np
import pytest

from repro.circuits.adc import FlashADC
from repro.circuits.opamp import TwoStageOpAmp
from repro.core.bmf import BMFEstimator, map_moments
from repro.core.prior import PriorKnowledge
from repro.stats.multivariate_gaussian import MultivariateGaussian
from repro.stats.wishart import Wishart


@pytest.fixture(scope="module")
def synthetic():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 5))
    sigma = a @ a.T + 5 * np.eye(5)
    truth = MultivariateGaussian(rng.standard_normal(5), sigma)
    prior = PriorKnowledge(truth.mean + 0.05, sigma * 1.1)
    data = truth.sample(32, rng)
    return prior, data


def test_map_moments_speed(benchmark, synthetic):
    prior, data = synthetic
    mu, sigma = benchmark(map_moments, prior, data, 5.0, 50.0)
    assert mu.shape == (5,)


def test_cv_search_speed(benchmark, synthetic):
    prior, data = synthetic
    rng = np.random.default_rng(1)
    est = benchmark(lambda: BMFEstimator(prior).estimate(data, rng=rng))
    assert est.dim == 5


def test_opamp_simulation_speed(benchmark):
    sim = TwoStageOpAmp.schematic()
    samples = sim.process_model().sample(sim.devices, 1, np.random.default_rng(2))
    metrics = benchmark(sim.simulate_batch, samples)
    assert metrics[0, 0] > 0  # gain


def test_adc_conversion_speed(benchmark):
    sim = FlashADC.schematic()
    metrics = benchmark(sim.simulate_batch, [1234])
    assert metrics[0, 0] > 20.0  # SNR


def test_wishart_sampling_speed(benchmark):
    w = Wishart(np.eye(5), 20.0)
    rng = np.random.default_rng(3)
    draws = benchmark(w.sample, 10, rng)
    assert draws.shape == (10, 5, 5)


def test_transient_speed(benchmark):
    """4000-step trapezoidal run of an RC macromodel."""
    from repro.circuits.netlist import Netlist
    from repro.circuits.transient import TransientAnalysis

    net = Netlist()
    net.voltage_source("Vin", "in", "0", 1.0)
    net.resistor("R", "in", "out", 1000.0)
    net.capacitor("C", "out", "0", 1e-9)
    sim = TransientAnalysis(net)
    result = benchmark(sim.run, 4e-6, 1e-9)
    assert result.times.size == 4001


def test_noise_analysis_speed(benchmark):
    """Full output-noise spectrum of a two-resistor network, 200 points."""
    from repro.circuits.netlist import Netlist
    from repro.circuits.noise import NoiseAnalysis

    net = Netlist()
    net.voltage_source("Vin", "in", "0", 1.0)
    net.resistor("R1", "in", "out", 1e4)
    net.resistor("R2", "out", "0", 5e4)
    net.capacitor("C", "out", "0", 1e-12)
    analysis = NoiseAnalysis(net)
    freqs = np.logspace(1, 9, 200)
    result = benchmark(analysis.output_noise, "out", freqs)
    assert result.psd.shape == (200,)
