"""Sparse MNA backend vs dense: equivalence, scale, and auto selection."""

import numpy as np
import pytest

from repro.circuits.mna import StampPlan
from repro.circuits.netlist import Netlist
from repro.circuits.opamp import TwoStageOpAmp
from repro.exceptions import ConfigError, SimulationError
from repro.linalg.backends import sparse_mna

sparse_available = sparse_mna.is_available()

pytestmark = pytest.mark.skipif(
    not sparse_available, reason="scipy not importable"
)

#: The documented dense/sparse agreement gate (docs/PERFORMANCE.md).
REL_TOL = 1e-9

FREQS = np.logspace(2, 8, 7)


def ladder_plan(n_nodes, variable_caps=False):
    net = Netlist()
    net.voltage_source("Vin", "n0", "0", 1.0)
    names = []
    for i in range(n_nodes):
        net.resistor(f"R{i}", f"n{i}", f"n{i + 1}", 1000.0)
        net.capacitor(f"C{i}", f"n{i + 1}", "0", 1e-9)
        names.append(f"R{i}")
        if variable_caps:
            names.append(f"C{i}")
    return StampPlan(net, variable=tuple(names)), names


def ladder_values(names, n_samples, seed=0):
    rng = np.random.default_rng(seed)
    return {
        name: (1000.0 if name.startswith("R") else 1e-9)
        * np.exp(0.1 * rng.standard_normal(n_samples))
        for name in names
    }


def rel_diff(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


class TestDenseSparseEquivalence:
    @pytest.mark.parametrize("n_nodes", [3, 8, 32, 64, 128, 200])
    def test_ladder_voltages_agree(self, n_nodes):
        plan, names = ladder_plan(n_nodes)
        values = ladder_values(names, 5)
        out = f"n{n_nodes}"
        dense = plan.solve_batched(values, FREQS, outputs=[out], backend="dense")
        sparse = plan.solve_batched(values, FREQS, outputs=[out], backend="sparse")
        assert rel_diff(sparse.voltage(out), dense.voltage(out)) <= REL_TOL

    @pytest.mark.parametrize("n_samples", [1, 2, 17])
    def test_batch_shapes(self, n_samples):
        plan, names = ladder_plan(12)
        values = ladder_values(names, n_samples)
        dense = plan.solve_batched(values, FREQS, outputs=["n12"], backend="dense")
        sparse = plan.solve_batched(values, FREQS, outputs=["n12"], backend="sparse")
        assert sparse.voltage("n12").shape == (n_samples, FREQS.size)
        assert rel_diff(sparse.voltage("n12"), dense.voltage("n12")) <= REL_TOL

    def test_variable_capacitors_hit_the_c_scatter_path(self):
        plan, names = ladder_plan(16, variable_caps=True)
        values = ladder_values(names, 4)
        dense = plan.solve_batched(values, FREQS, outputs=["n16"], backend="dense")
        sparse = plan.solve_batched(values, FREQS, outputs=["n16"], backend="sparse")
        assert rel_diff(sparse.voltage("n16"), dense.voltage("n16")) <= REL_TOL

    def test_vccs_into_eliminated_node_folds_into_rhs(self):
        """A VCCS controlled by the driven (known) node exercises the
        variable-entry -> RHS fold of the sparse plan."""
        net = Netlist()
        net.voltage_source("Vin", "in", "0", 1.0)
        net.vccs("Ggm", "0", "out", "in", "0", 1e-3)
        net.resistor("R", "out", "0", 50e3)
        net.capacitor("C", "out", "mid", 2e-12)
        net.resistor("R2", "mid", "0", 10e3)
        plan = StampPlan(net, variable=("Ggm", "R"))
        rng = np.random.default_rng(1)
        values = {
            "Ggm": 1e-3 * np.exp(0.1 * rng.standard_normal(6)),
            "R": 50e3 * np.exp(0.1 * rng.standard_normal(6)),
        }
        dense = plan.solve_batched(values, FREQS, outputs=["out"], backend="dense")
        sparse = plan.solve_batched(values, FREQS, outputs=["out"], backend="sparse")
        assert rel_diff(sparse.voltage("out"), dense.voltage("out")) <= REL_TOL


class TestScaleAndSelection:
    def test_500_nodes_dense_refuses_sparse_solves(self):
        """The sparse backend's reason to exist: a system whose stacked
        dense form cannot fit the default memory budget."""
        plan, names = ladder_plan(500)
        values = ladder_values(names, 64)
        freqs = np.logspace(2, 8, 50)
        with pytest.raises(SimulationError):
            plan.solve_batched(values, freqs, outputs=["n500"], backend="dense")
        solution = plan.solve_batched(
            values, freqs, outputs=["n500"], backend="sparse"
        )
        v = solution.voltage("n500")
        assert v.shape == (64, 50)
        assert np.all(np.isfinite(v))

    def test_auto_picks_sparse_past_crossover(self):
        plan, names = ladder_plan(80)
        values = ladder_values(names, 3)
        auto = plan.solve_batched(values, FREQS, outputs=["n80"], backend="auto")
        sparse = plan.solve_batched(values, FREQS, outputs=["n80"], backend="sparse")
        assert np.array_equal(auto.voltage("n80"), sparse.voltage("n80"))

    def test_auto_keeps_small_systems_dense(self):
        plan, names = ladder_plan(4)
        values = ladder_values(names, 3)
        auto = plan.solve_batched(values, FREQS, outputs=["n4"], backend="auto")
        dense = plan.solve_batched(values, FREQS, outputs=["n4"], backend="dense")
        assert np.array_equal(auto.voltage("n4"), dense.voltage("n4"))

    def test_unknown_backend_rejected(self):
        plan, names = ladder_plan(4)
        values = ladder_values(names, 2)
        with pytest.raises(ConfigError, match="dense"):
            plan.solve_batched(values, FREQS, outputs=["n4"], backend="umfpack")


class TestOpAmpEndToEnd:
    def test_explicit_sparse_matches_dense_metrics(self):
        sim = TwoStageOpAmp.schematic()
        rng = np.random.default_rng(7)
        samples = sim.process_model().sample(sim.devices, 16, rng)
        dense = sim.simulate_batch(samples, mna_backend="dense")
        sparse = sim.simulate_batch(samples, mna_backend="sparse")
        assert rel_diff(sparse, dense) <= REL_TOL
